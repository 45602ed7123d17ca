"""Tier cross-check at paper scale: the DES against the Tier-2 model.

Two tiers produce the paper's numbers.  Tables I and II come from the
discrete-event simulator (DES); Table VIII's e150 rows come from the
closed-form model (:class:`~repro.perfmodel.scaling.JacobiScalingModel`).
This test runs the DES on Table VIII's 9216×1024 grid for each
single-card row it can afford and compares one iteration of each tier:

* DES: the marginal iteration ``t(3) − t(2)`` of
  :class:`~repro.core.jacobi_optimized.OptimizedJacobiRunner` (no
  readback), so the pipeline fill cancels;
* model: ``JacobiScalingModel().run(...).iteration_time_s``.

Both tiers are deterministic, so each row's ratio is pinned within ±5%
of its measured value.  A calibration or kernel change that moves one
tier but not the other fails here.  Measured DES GPt/s ÷ model GPt/s:

=====  =====  =====  =====  =====  =====
1×4    2×4    8×4    8×8    8×9    12×9
=====  =====  =====  =====  =====  =====
0.915  0.873  2.218  1.064  1.217  0.930
=====  =====  =====  =====  =====  =====

The tiers do not agree everywhere.  At 8×4 the DES gives 16.0 GPt/s,
the model 7.2 and the paper 9.20; 8×9 is 1.2× apart.  A likely cause is
that the DES has no grid-column uplink contention, which only the
Tier-2 model charges (DESIGN.md).  These pins record the disagreement;
they do not endorse either tier.

Each row simulates five sweeps over 9.4 M points (about 20–30 s of host
time per row).
"""

import pytest

from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_optimized import OptimizedJacobiRunner
from repro.experiments.reference import TABLE8_PROBLEM
from repro.perfmodel.scaling import JacobiScalingModel

NX, NY = TABLE8_PROBLEM["nx"], TABLE8_PROBLEM["ny"]

#: (cores_y, cores_x) -> DES GPt/s ÷ model GPt/s, measured
RATIOS = {
    (1, 4): 0.915,
    (2, 4): 0.873,
    (8, 4): 2.218,
    (8, 8): 1.064,
    (8, 9): 1.217,
    (12, 9): 0.930,
}


def des_iteration_s(cores_y: int, cores_x: int) -> float:
    """The DES's marginal iteration, ``t(3) − t(2)``."""
    problem = LaplaceProblem(nx=NX, ny=NY)

    def kernel_time(iterations: int) -> float:
        dev = GrayskullDevice(dram_bank_capacity=32 << 20)
        return OptimizedJacobiRunner(
            dev, problem, cores_y=cores_y, cores_x=cores_x).run(
            iterations, read_back=False).kernel_time_s

    return kernel_time(3) - kernel_time(2)


@pytest.mark.parametrize("cores", sorted(RATIOS),
                         ids=[f"{cy}x{cx}" for cy, cx in sorted(RATIOS)])
def test_des_over_model_ratio_is_pinned(cores):
    cy, cx = cores
    model_s = JacobiScalingModel().run(NX, NY, 1, cy, cx).iteration_time_s
    ratio = model_s / des_iteration_s(cy, cx)  # = DES GPt/s ÷ model GPt/s
    print(f"\n{cy}x{cx}: DES/model = {ratio:.3f} "
          f"(DES {NX * NY / (model_s / ratio) / 1e9:.2f} GPt/s, "
          f"model {NX * NY / model_s / 1e9:.2f} GPt/s)")
    assert ratio == pytest.approx(RATIOS[cores], rel=0.05)

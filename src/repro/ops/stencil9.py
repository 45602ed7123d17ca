"""9-point stencil: the stencil family's nine-point spec as an op.

The update is :meth:`~repro.core.stencil.StencilSpec.nine_point`,

``u' = 0.2·(((W + E) + N) + S) + 0.05·(((NW + NE) + SW) + SE)``

(axial weight 1/5, diagonal 1/20, each rounded to BF16 like every spec
scale), run on :class:`~repro.core.stencil.StencilRunner` — the
Section-VI dataflow every stencil in the package shares.  The DRAM
image is the :class:`~repro.core.grid.AlignedDomain` padded layout,
ping-ponged between two buffers across iterations, and the interior is
carved over cores with :func:`~repro.core.decomposition.split_domain` —
including genuine 2D decompositions.

Determinism: every intermediate of the 9-term chain passes through a
BF16 pack, so the device arithmetic is a fixed elementwise sequence of
float32 adds and multiplies, each rounded to BF16.
:func:`stencil9_reference_bits` replays that sequence vectorised over
the whole grid, independently of the spec's own mirror; because the
sequence is elementwise, the readback is **bit-identical for every
decomposition** — the property the differential tests pin across 1D
row, 1D column and 2D tilings.

DRAM-alignment rule: with ``cores_x > 1`` several cores write segments
of the same padded row concurrently, and the simulated controller
corrupts non-contiguous unaligned writes (paper Section IV).  Each
core's column offset must therefore start on a 32-byte boundary —
``run_stencil9`` validates up front that the x-split lands on
16-element multiples and says so if it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.core.decomposition import split_domain
from repro.core.grid import LaplaceProblem
from repro.core.stencil import StencilRunner, StencilSpec
from repro.dtypes.bf16 import (
    bf16_round,
    bf16_round_inplace,
    bits_to_f32,
    f32_to_bits,
)
from repro.ops.registry import (
    OpCheckError,
    OpRunResult,
    OpSpec,
    register,
    sha16,
)
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.perfmodel.ops import stencil_estimate

__all__ = [
    "Stencil9Problem",
    "NINE_POINT",
    "AXIAL_W",
    "DIAG_W",
    "stencil9_reference_bits",
    "run_stencil9",
]

#: the update every sweep applies
NINE_POINT = StencilSpec.nine_point()
#: N/S/E/W and corner weights, as the spec rounded them to BF16
AXIAL_W, DIAG_W = (scale for scale, _taps in NINE_POINT.groups)

BF16_BYTES = 2


@dataclass(frozen=True)
class Stencil9Problem:
    """``iters`` sweeps of the 9-point update over a seeded interior."""

    nx: int
    ny: int
    iters: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.nx % 32:
            raise ValueError(
                f"nx must be a multiple of 32 (tile width), got {self.nx}")
        if self.ny < 1 or self.iters < 1:
            raise ValueError("ny and iters must be >= 1")

    @property
    def spec(self) -> StencilSpec:
        """The stencil each sweep applies (what the estimate prices)."""
        return NINE_POINT

    def flops(self) -> float:
        """9 elementwise tile-op lanes per point per sweep."""
        return 9.0 * self.nx * self.ny * self.iters

    def laplace(self) -> LaplaceProblem:
        return LaplaceProblem(nx=self.nx, ny=self.ny)

    def halo_grid_bits(self) -> np.ndarray:
        """Initial ``(ny+2, nx+2)`` halo grid: Laplace boundary values
        around a seeded random BF16 interior."""
        g = self.laplace().initial_grid_bf16().copy()
        rng = np.random.default_rng(self.seed)
        g[1:-1, 1:-1] = f32_to_bits(
            rng.random((self.ny, self.nx)).astype(np.float32))
        return g


# -- host reference ----------------------------------------------------------

def stencil9_reference_bits(halo_bits: np.ndarray, iters: int) -> np.ndarray:
    """Replay the device's BF16 op sequence over the whole halo grid.

    Bit-identical to the device readback for every core decomposition
    (the chain is elementwise, so tiling cannot change any value).  The
    grid stays in float32 between packs: each op rounds in place where
    the device packs, with the device's operand order (a tap adds onto
    the running sum as ``tap + sum``, a scale multiplies as
    ``scale · sum``, the groups add as ``g₁ + g₀``), and the interior is
    packed once at the end.
    """
    g = np.asarray(halo_bits, dtype=np.uint16).copy()
    if iters <= 0:
        return g
    u = bits_to_f32(g)
    w, e = u[1:-1, :-2], u[1:-1, 2:]
    n, s = u[:-2, 1:-1], u[2:, 1:-1]
    nw, ne = u[:-2, :-2], u[:-2, 2:]
    sw, se = u[2:, :-2], u[2:, 2:]
    c1 = bf16_round(np.float32(AXIAL_W))
    c2 = bf16_round(np.float32(DIAG_W))
    ax, dg = np.empty_like(w), np.empty_like(w)
    out = u[1:-1, 1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            bf16_round_inplace(np.add(w, e, out=ax))
            bf16_round_inplace(np.add(n, ax, out=ax))
            bf16_round_inplace(np.add(s, ax, out=ax))
            bf16_round_inplace(np.add(nw, ne, out=dg))
            bf16_round_inplace(np.add(sw, dg, out=dg))
            bf16_round_inplace(np.add(se, dg, out=dg))
            bf16_round_inplace(np.multiply(c1, ax, out=ax))
            bf16_round_inplace(np.multiply(c2, dg, out=dg))
            bf16_round_inplace(np.add(dg, ax, out=out))
    g[1:-1, 1:-1] = f32_to_bits(out)
    return g


def _interior_reference(problem: Stencil9Problem) -> np.ndarray:
    """The reference sweep's interior: what the device reads back."""
    return stencil9_reference_bits(problem.halo_grid_bits(),
                                   problem.iters)[1:-1, 1:-1]


# -- host driver -------------------------------------------------------------

def run_stencil9(problem: Stencil9Problem, cores: Tuple[int, int] = (1, 1),
                 device: Optional[GrayskullDevice] = None,
                 check: bool = True,
                 costs: CostModel = DEFAULT_COSTS) -> OpRunResult:
    """Execute the stencil on the simulated e150 and check readback."""
    cy, cx = cores
    for row in split_domain(nx=problem.nx, ny=problem.ny, cores_y=cy,
                            cores_x=cx):
        for sub in row:
            if sub.x0 % 16:
                raise ValueError(
                    f"core ({sub.iy},{sub.ix}) x-offset {sub.x0} is not a "
                    "multiple of 16 elements: concurrent writes would "
                    "share a 32-byte DRAM word and corrupt — pick cores_x "
                    f"so {problem.nx} splits on 16-element boundaries")

    dev = device or GrayskullDevice(costs, dram_bank_capacity=64 << 20)
    res = StencilRunner(dev, problem.laplace(), NINE_POINT, cores_y=cy,
                        cores_x=cx).run(problem.iters,
                                        initial_grid=problem.halo_grid_bits())
    out_bits = res.grid_bits[1:-1, 1:-1]
    fpu_ops = sum(core.fpu.ops for row in dev.worker_grid(cy, cx)
                  for core in row)

    detail = "unchecked"
    if check:
        ref = _interior_reference(problem)
        if not np.array_equal(out_bits, ref):
            bad = int(np.count_nonzero(out_bits != ref))
            raise OpCheckError(
                f"stencil9 {problem.ny}x{problem.nx} iters={problem.iters} "
                f"on {cy}x{cx} cores: {bad} of {ref.size} interior points "
                "differ from the BF16 reference")
        detail = "bit-exact"

    return OpRunResult(
        op="stencil9", cores=(cy, cx),
        params={"nx": problem.nx, "ny": problem.ny,
                "iters": problem.iters, "seed": problem.seed},
        kernel_time_s=res.kernel_time_s,
        transfer_time_s=res.transfer_time_s, energy_j=res.energy_j,
        checked=check, check_detail=detail, output_sha=sha16(out_bits),
        fpu_ops=fpu_ops, output=out_bits)


def _make_problem(size: int, seed: int = 0, **kw) -> Stencil9Problem:
    return Stencil9Problem(nx=size, ny=kw.get("ny", size),
                           iters=kw.get("iters", 2), seed=seed)


register(OpSpec(
    name="stencil9",
    summary="9-point relaxation on the AlignedDomain ping-pong layout, "
            "bit-identical across 1D and 2D decompositions",
    make_problem=_make_problem,
    run=run_stencil9,
    reference=_interior_reference,
    estimate=stencil_estimate,
    # an ``ny x nx`` interior relaxed for ``iterations`` sweeps, run once
    serve_problem=lambda nx, ny, iterations: (
        Stencil9Problem(nx=nx, ny=ny, iters=iterations), 1),
    # one padded halo grid in, one out
    pcie_bytes=lambda p: 2 * (p.nx + 2) * (p.ny + 2) * BF16_BYTES,
    # round up to a multiple of the 32-element tile width
    snap_nx=lambda nx: -(-nx // 32) * 32,
))

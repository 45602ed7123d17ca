"""Regression table for every non-Jacobi path of the stencil family.

Each case runs 3 sweeps of a weighted spec on a 96x16 problem and is
pinned to the readback SHA, simulated kernel time and simulator event
count that the separate generic-stencil kernels produced before the
family was unified on one spec-driven kernel.  SHA and time must match
to the bit; the event count may only fall (the unified kernel fuses the
core-private part of each row's FPU chain into one charge region, which
removes events without moving any timestamp).

The advection and diffusion SHAs were re-pinned when their constructors
began choosing the centre weight as the largest BF16 value ≤ 1 − Σ sides
(the weights used to round independently and could sum above 1); their
times and event bounds did not move.
"""

import hashlib

import numpy as np
import pytest

from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.stencil import StencilRunner, StencilSpec
from repro.dtypes.bf16 import f32_to_bits

SPECS = {
    "advection": lambda: StencilSpec.advection_upwind(0.3, 0.2),
    "diffusion": lambda: StencilSpec.diffusion(0.2),
    "custom": lambda: StencilSpec.weighted(center=0.375, west=0.25,
                                           east=0.125, south=0.25),
}

#: "{spec}-{dtype}-{rhs}-{cores}-{chunk}" -> (grid SHA, kernel_time_s,
#: events) recorded with the pre-unification kernels
PINNED = {
    "advection-bf16-norhs-1x1-32": ("44075beeccb0ec92", 0.00016118321302734288, 8056),
    "advection-bf16-norhs-1x1-tile": ("44075beeccb0ec92", 5.624132760663437e-05, 2704),
    "advection-bf16-norhs-2x2-32": ("44075beeccb0ec92", 5.840796123431473e-05, 10951),
    "advection-bf16-norhs-2x2-tile": ("44075beeccb0ec92", 3.070789203077605e-05, 5527),
    "advection-bf16-rhs-1x1-32": ("eba9d94f2f237a9b", 0.0001844625060601194, 10343),
    "advection-bf16-rhs-1x1-tile": ("eba9d94f2f237a9b", 6.377609195089524e-05, 3467),
    "advection-bf16-rhs-2x2-32": ("eba9d94f2f237a9b", 6.668742409291995e-05, 13976),
    "advection-bf16-rhs-2x2-tile": ("eba9d94f2f237a9b", 3.473568941807043e-05, 6980),
    "advection-fp32-norhs-1x1-32": ("d71157aceb2c0523", 0.0001619098194973142, 8056),
    "advection-fp32-norhs-1x1-tile": ("d71157aceb2c0523", 5.7632786360810364e-05, 2704),
    "advection-fp32-norhs-2x2-32": ("d71157aceb2c0523", 5.8965862017810555e-05, 10951),
    "advection-fp32-norhs-2x2-tile": ("d71157aceb2c0523", 3.150241111073301e-05, 5527),
    "advection-fp32-rhs-1x1-32": ("ecfd6e874db4d25b", 0.0001848445121202545, 10343),
    "advection-fp32-rhs-1x1-tile": ("ecfd6e874db4d25b", 6.482768390179267e-05, 3428),
    "advection-fp32-rhs-2x2-32": ("ecfd6e874db4d25b", 6.704434818584202e-05, 13916),
    "advection-fp32-rhs-2x2-tile": ("ecfd6e874db4d25b", 3.5282878836142076e-05, 6980),
    "custom-bf16-norhs-1x1-32": ("95cd02e87912cff8", 0.00021047319387251085, 10500),
    "custom-bf16-norhs-1x1-tile": ("95cd02e87912cff8", 7.301027014217773e-05, 3522),
    "custom-bf16-norhs-2x2-32": ("95cd02e87912cff8", 7.53843280938391e-05, 14211),
    "custom-bf16-norhs-2x2-tile": ("95cd02e87912cff8", 3.942303568584275e-05, 7167),
    "custom-bf16-rhs-1x1-32": ("0a800cc02f8b9240", 0.00024174561190530211, 12796),
    "custom-bf16-rhs-1x1-tile": ("0a800cc02f8b9240", 8.343440948643974e-05, 4288),
    "custom-bf16-rhs-2x2-32": ("0a800cc02f8b9240", 8.616902993810102e-05, 17260),
    "custom-bf16-rhs-2x2-tile": ("0a800cc02f8b9240", 4.4798348185842626e-05, 8692),
    "custom-fp32-norhs-1x1-32": ("f8a3056bd289653a", 0.0002109577811876636, 10500),
    "custom-fp32-norhs-1x1-tile": ("f8a3056bd289653a", 7.43656714318988e-05, 3522),
    "custom-fp32-norhs-2x2-32": ("f8a3056bd289653a", 7.587828733522157e-05, 14211),
    "custom-fp32-norhs-2x2-tile": ("f8a3056bd289653a", 4.0184071371686935e-05, 7167),
    "custom-fp32-rhs-1x1-32": ("88efd762cf264330", 0.00024222872381061966, 12796),
    "custom-fp32-rhs-1x1-tile": ("88efd762cf264330", 8.47893189728822e-05, 4288),
    "custom-fp32-rhs-2x2-32": ("88efd762cf264330", 8.66270598762048e-05, 17260),
    "custom-fp32-rhs-2x2-tile": ("88efd762cf264330", 4.5497196371686823e-05, 8692),
    "diffusion-bf16-norhs-1x1-32": ("59065e0ba3ecbb10", 0.00026775629971770786, 12953),
    "diffusion-bf16-norhs-1x1-tile": ("59065e0ba3ecbb10", 9.26685876777222e-05, 4343),
    "diffusion-bf16-norhs-2x2-32": ("59065e0ba3ecbb10", 9.486593393902022e-05, 17495),
    "diffusion-bf16-norhs-2x2-tile": ("59065e0ba3ecbb10", 4.948569445361498e-05, 8819),
    "diffusion-bf16-rhs-1x1-32": ("8ab8c3c0710276a2", 0.0002990287177505167, 15249),
    "diffusion-bf16-rhs-1x1-tile": ("8ab8c3c0710276a2", 0.00010309272702198424, 5109),
    "diffusion-bf16-rhs-2x2-32": ("8ab8c3c0710276a2", 0.00010565063578328217, 20544),
    "diffusion-bf16-rhs-2x2-tile": ("8ab8c3c0710276a2", 5.486100695361488e-05, 10344),
    "diffusion-fp32-norhs-1x1-32": ("fe2c4e375e1479f1", 0.00026834199287804303, 12953),
    "diffusion-fp32-norhs-1x1-tile": ("fe2c4e375e1479f1", 9.432730650298833e-05, 4343),
    "diffusion-fp32-norhs-2x2-32": ("fe2c4e375e1479f1", 9.546099902558438e-05, 17495),
    "diffusion-fp32-norhs-2x2-tile": ("fe2c4e375e1479f1", 5.039838890723167e-05, 8819),
    "diffusion-fp32-rhs-1x1-32": ("4a381322ebbb0f60", 0.00029961293550101594, 15249),
    "diffusion-fp32-rhs-1x1-tile": ("4a381322ebbb0f60", 0.00010475095404397172, 5109),
    "diffusion-fp32-rhs-2x2-32": ("4a381322ebbb0f60", 0.0001062097715665676, 20544),
    "diffusion-fp32-rhs-2x2-tile": ("4a381322ebbb0f60", 5.571151390723159e-05, 10344),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned(key):
    spec, dtype, rhs, cores, chunk = key.split("-")
    cy, cx = (int(n) for n in cores.split("x"))
    p = LaplaceProblem(nx=96, ny=16, left=1.0, top=0.5)
    field = None
    if rhs == "rhs":
        f = np.random.default_rng(7).normal(
            scale=0.1, size=(p.ny, p.nx)).astype(np.float32)
        field = f32_to_bits(f) if dtype == "bf16" else f
    dev = GrayskullDevice(dram_bank_capacity=8 << 20)
    res = StencilRunner(dev, p, SPECS[spec](), cores_y=cy, cores_x=cx,
                        chunk=None if chunk == "tile" else int(chunk),
                        dtype=dtype).run(3, rhs=field)
    sha, kernel_time_s, events = PINNED[key]
    got = hashlib.sha256(res.grid_bits.tobytes()).hexdigest()[:16]
    assert got == sha
    assert res.kernel_time_s == kernel_time_s
    assert dev.sim.events_processed <= events

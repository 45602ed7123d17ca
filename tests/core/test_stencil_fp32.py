"""FP32 device execution — the Wormhole-precision mode, functionally.

The paper's future work wants Wormhole "with support for FP32 by the FPU
[to] enable increased precision".  The stencil framework runs that mode
today: 4-byte elements, 512-element FPU tiles, lossless packing.
"""

import numpy as np
import pytest

from repro.core.grid import LaplaceProblem
from repro.core.stencil import (
    StencilRunner,
    StencilSpec,
    stencil_solve_bf16,
    stencil_solve_fp32,
)
from repro.cpu.jacobi import solve_direct
from repro.dtypes.bf16 import bits_to_f32


def as_f32(bits_u32: np.ndarray) -> np.ndarray:
    return bits_u32.view(np.float32)


class TestFp32BitExactness:
    @pytest.mark.parametrize("spec_name,args", [
        ("jacobi", ()), ("diffusion", (0.2,)),
        ("advection_upwind", (0.4, 0.1)),
    ])
    def test_device_matches_fp32_reference(self, device_factory,
                                           spec_name, args):
        spec = getattr(StencilSpec, spec_name)(*args)
        p = LaplaceProblem(nx=32, ny=16, left=1.0)
        res = StencilRunner(device_factory(), p, spec, dtype="fp32").run(4)
        want = stencil_solve_fp32(p.initial_grid_f32(), spec, 4)
        assert np.array_equal(as_f32(res.grid_bits), want)

    def test_multicore_fp32(self, device_factory):
        p = LaplaceProblem(nx=64, ny=16, left=1.0)
        spec = StencilSpec.jacobi()
        res = StencilRunner(device_factory(), p, spec, dtype="fp32",
                            cores_y=2, cores_x=2).run(3)
        want = stencil_solve_fp32(p.initial_grid_f32(), spec, 3)
        assert np.array_equal(as_f32(res.grid_bits), want)

    def test_fp32_rhs(self, device_factory, rng):
        p = LaplaceProblem(nx=32, ny=16)
        rhs = rng.normal(scale=0.1, size=(16, 32)).astype(np.float32)
        spec = StencilSpec.jacobi()
        res = StencilRunner(device_factory(), p, spec,
                            dtype="fp32").run(3, rhs=rhs)
        want = stencil_solve_fp32(p.initial_grid_f32(), spec, 3, rhs=rhs)
        assert np.array_equal(as_f32(res.grid_bits), want)

    def test_fp32_chunks_are_512_elements(self, device_factory):
        """A 512-wide FP32 row is exactly one FPU tile; 1024 needs two."""
        runner = StencilRunner(device_factory(), LaplaceProblem(nx=64, ny=8),
                               StencilSpec.jacobi(), dtype="fp32")
        assert runner.tile_elems == 512
        assert runner.chunk == 512

    def test_invalid_dtype(self, device_factory):
        with pytest.raises(ValueError, match="dtype"):
            StencilRunner(device_factory(), LaplaceProblem(nx=32, ny=8),
                          StencilSpec.jacobi(), dtype="fp64")


class TestPrecisionStory:
    def test_fp32_breaks_the_bf16_stall(self):
        """The punchline of the future-work mode: on the problem where
        BF16 Jacobi plateaus at ~0.17 error, FP32 keeps converging."""
        p = LaplaceProblem(nx=32, ny=32, left=1.0)
        exact = solve_direct(p.initial_grid_f32())
        spec = StencilSpec.jacobi()
        bf16 = bits_to_f32(stencil_solve_bf16(p.initial_grid_bf16(),
                                              spec, 2000))
        fp32 = stencil_solve_fp32(p.initial_grid_f32(), spec, 2000)
        bf16_err = np.abs(bf16[1:-1, 1:-1] - exact[1:-1, 1:-1]).max()
        fp32_err = np.abs(fp32[1:-1, 1:-1] - exact[1:-1, 1:-1]).max()
        assert bf16_err > 0.1
        assert fp32_err < 0.001
        assert fp32_err < bf16_err / 100

    def test_fp32_costs_about_double_per_point(self, device_factory):
        """Same FPU width, half the elements per tile, double the bytes:
        the throughput cost of precision the Wormhole model projects.

        (The domain must be at least one BF16 tile wide — at 512 elements
        both precisions take a single FPU pass per row and the gap
        vanishes, which is itself a useful sizing insight.)"""
        p = LaplaceProblem(nx=1024, ny=32)
        spec = StencilSpec.jacobi()
        bf16 = StencilRunner(device_factory(), p, spec, dtype="bf16").run(
            50, sim_iterations=2, read_back=False)
        fp32 = StencilRunner(device_factory(), p, spec, dtype="fp32").run(
            50, sim_iterations=2, read_back=False)
        ratio = fp32.kernel_time_s / bf16.kernel_time_s
        assert 1.5 < ratio < 3.0

    def test_fp32_jacobi_is_plain_numpy_sweep(self):
        """FP32 device semantics equal a plain float32 Jacobi sweep:
        numpy's ``0.25*(((W+E)+N)+S)`` is Listing 2's association order,
        so they inherit all its numerical behaviour bit for bit."""
        from repro.cpu.jacobi import jacobi_solve_f32
        p = LaplaceProblem(nx=32, ny=16, left=1.0)
        ours = stencil_solve_fp32(p.initial_grid_f32(),
                                  StencilSpec.jacobi(), 50)
        plain = jacobi_solve_f32(p.initial_grid_f32(), 50)
        assert np.array_equal(ours, plain)

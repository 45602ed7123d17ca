"""Generic-stencil extension tests (the paper's advection future work)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.stencil import (
    C,
    E,
    N,
    S,
    W,
    StencilRunner,
    StencilSpec,
    stencil_solve_bf16,
    stencil_solve_fp32,
    stencil_step_bf16,
)
from repro.cpu.jacobi import jacobi_solve_bf16
from repro.dtypes.bf16 import bits_to_f32

#: the grid of ``nan_pair_grid``: interior 4×32
NAN_PAIR_PROBLEM = LaplaceProblem(nx=32, ny=4)


def nan_pair_grid(dtype: str) -> np.ndarray:
    """A 6×34 halo grid on which two NaNs of opposite sign meet.

    After one Jacobi sweep, cell ``[2, 5]`` adds its north tap, a
    positive NaN, to the running sum of its west and east taps, a
    negative NaN (west) plus 1.0 (east).  BF16 grids hold bits, FP32
    grids float32 values.
    """
    if dtype == "bf16":
        g = np.zeros((6, 34), np.uint16)
        g[2, 4], g[2, 6], g[1, 5] = 0xFFC1, 0x3F80, 0x7FC1
        return g
    g = np.zeros((6, 34), np.uint32)
    g[2, 4], g[2, 6], g[1, 5] = 0xFFC10000, 0x3F800000, 0x7FC10000
    return g.view(np.float32)


class TestStencilSpec:
    def test_jacobi_spec(self):
        s = StencilSpec.jacobi()
        assert s.groups == ((0.25, (W, E, N, S)),)
        assert s.weight(C) == 0.0
        assert s.weight(W) == s.weight(E) == s.weight(N) == s.weight(S) \
            == 0.25
        assert len(s.taps) == 4
        assert s.max_principle_holds()

    def test_diffusion_spec(self):
        s = StencilSpec.diffusion(0.25)
        assert s.weight(C) == 0.0
        assert s.max_principle_holds()
        with pytest.raises(ValueError):
            StencilSpec.diffusion(0.3)

    def test_advection_spec(self):
        s = StencilSpec.advection_upwind(0.4, 0.25)
        assert s.weight(E) == s.weight(S) == 0.0
        assert s.groups == tuple((s.weight(t), (t,)) for t in (C, W, N))
        assert s.max_principle_holds()
        with pytest.raises(ValueError):
            StencilSpec.advection_upwind(0.8, 0.5)
        with pytest.raises(ValueError):
            StencilSpec.advection_upwind(-0.1, 0.0)

    def test_coefficients_bf16_rounded(self):
        s = StencilSpec.weighted(center=0.1)
        # 0.1 is not BF16-representable; the spec stores the rounded value
        assert s.weight(C) != 0.1
        assert abs(s.weight(C) - 0.1) < 0.1 * 2 ** -8

    def test_empty_spec_rejected_by_runner(self, device):
        spec = StencilSpec.weighted(0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="no non-zero"):
            StencilRunner(device, LaplaceProblem(nx=32, ny=8), spec)


class TestReference:
    def test_jacobi_spec_is_listing2_kernel(self):
        """The spec carries Listing 2's add-first order: bit-equal."""
        p = LaplaceProblem(nx=32, ny=16, left=1.0)
        a = stencil_solve_bf16(p.initial_grid_bf16(), StencilSpec.jacobi(), 5)
        b = jacobi_solve_bf16(p.initial_grid_bf16(), 5)
        assert np.array_equal(a, b)
        # Listing 2 adds each later tap as add_tiles(tap, sum), so where
        # two NaNs meet the tap's sign wins ...
        g = nan_pair_grid("bf16")
        a = stencil_solve_bf16(g, StencilSpec.jacobi(), 1)
        assert np.array_equal(a, jacobi_solve_bf16(g, 1))
        assert a[2, 5] == 0x7FC0
        f = stencil_solve_fp32(nan_pair_grid("fp32"), StencilSpec.jacobi(), 1)
        assert f.view(np.uint32)[2, 5] == 0x7FC10000
        # ... while the dst ablation accumulates dst + tile: the sum's sign
        d = stencil_solve_bf16(g, StencilSpec.jacobi("dst"), 1)
        assert d[2, 5] == 0xFFC0

    def test_identity_spec(self):
        p = LaplaceProblem(nx=32, ny=8, left=1.0, initial=0.5)
        spec = StencilSpec.weighted(center=1.0)
        out = stencil_step_bf16(p.initial_grid_bf16(), spec)
        assert np.array_equal(out, p.initial_grid_bf16())

    def test_advection_transports_leftward_boundary(self):
        """Upwind advection with +x flow carries the left boundary right."""
        p = LaplaceProblem(nx=32, ny=8, left=1.0, initial=0.0)
        spec = StencilSpec.advection_upwind(0.5, 0.0)
        bits = stencil_solve_bf16(p.initial_grid_bf16(), spec, 20)
        vals = bits_to_f32(bits)
        row = vals[4, 1:-1]
        assert row[0] > 0.9          # near the inflow: saturated
        assert row[5] > row[20]      # monotone front
        assert row[-1] < 0.05        # front has not reached the far side

    def test_boundaries_untouched(self):
        p = LaplaceProblem(nx=32, ny=8, left=1.0)
        spec = StencilSpec.diffusion(0.2)
        out = stencil_solve_bf16(p.initial_grid_bf16(), spec, 3)
        assert np.array_equal(out[:, 0], p.initial_grid_bf16()[:, 0])


class TestDeviceExecution:
    @pytest.mark.parametrize("spec_name,args,dtype,nan_pair", [
        pytest.param("jacobi", (), "bf16", False, id="jacobi-args0"),
        pytest.param("diffusion", (0.2,), "bf16", False, id="diffusion-args1"),
        pytest.param("advection_upwind", (0.3, 0.2), "bf16", False,
                     id="advection_upwind-args2"),
        pytest.param("jacobi", (), "bf16", True, id="nan_pair-pack-bf16"),
        pytest.param("jacobi", ("dst",), "bf16", True, id="nan_pair-dst-bf16"),
        pytest.param("jacobi", (), "fp32", True, id="nan_pair-pack-fp32"),
    ])
    def test_device_matches_reference(self, device_factory, spec_name, args,
                                      dtype, nan_pair):
        spec = getattr(StencilSpec, spec_name)(*args)
        if nan_pair:
            p, sweeps, grid = NAN_PAIR_PROBLEM, 1, nan_pair_grid(dtype)
        else:
            p, sweeps, grid = LaplaceProblem(nx=32, ny=16, left=1.0), 4, None
        runner = StencilRunner(device_factory(), p, spec, dtype=dtype)
        if dtype == "bf16":
            grid = p.initial_grid_bf16() if grid is None else grid
            res = runner.run(sweeps, initial_grid=grid)
            want = stencil_solve_bf16(grid, spec, sweeps)
        else:
            res = runner.run(sweeps, initial_grid=grid.view(np.uint32))
            want = stencil_solve_fp32(grid, spec, sweeps).view(np.uint32)
        assert np.array_equal(res.grid_bits, want)

    def test_multicore(self, device_factory):
        spec = StencilSpec.advection_upwind(0.4, 0.1)
        p = LaplaceProblem(nx=64, ny=16, left=1.0)
        res = StencilRunner(device_factory(), p, spec,
                            cores_y=2, cores_x=2).run(3)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 3)
        assert np.array_equal(res.grid_bits, want)

    def test_multi_chunk_columns(self, device_factory):
        spec = StencilSpec.diffusion(0.25)
        p = LaplaceProblem(nx=64, ny=8)
        res = StencilRunner(device_factory(), p, spec, chunk=32).run(2)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 2)
        assert np.array_equal(res.grid_bits, want)

    def test_fewer_terms_is_faster(self, device_factory):
        """Advection (3 terms) beats Jacobi (4 terms) per point."""
        p = LaplaceProblem(nx=64, ny=32)
        t3 = StencilRunner(device_factory(), p,
                           StencilSpec.advection_upwind(0.3, 0.2)).run(
            50, sim_iterations=2, read_back=False)
        t5 = StencilRunner(device_factory(), p,
                           StencilSpec.diffusion(0.2)).run(
            50, sim_iterations=2, read_back=False)
        assert t3.kernel_time_s < t5.kernel_time_s


#: rounding every coefficient independently made these weights sum to
#: 1.00244140625; the scheme amplified and reached 1.015625 at sweep 10
_AMPLIFYING_DRAW = dict(cu=0.5570025839325579, cv=0.059071919500474315)


@settings(max_examples=50, deadline=None)
@given(cu=st.floats(0.0, 0.6), cv=st.floats(0.0, 0.4),
       alpha=st.floats(0.01, 0.25))
@example(alpha=0.2, **_AMPLIFYING_DRAW)
def test_weights_never_sum_above_one(cu, cv, alpha):
    for spec in (StencilSpec.advection_upwind(cu, cv),
                 StencilSpec.diffusion(alpha)):
        assert sum(spec.weight(t) for t in spec.taps) <= 1.0


# The bounds below carry no slack.  Upwind: with non-negative weights
# summing to at most 1 the three-term chain is monotone and maps a field
# of ones to at most 1.0; the one spec with a negative centre (−2⁻⁹, at
# cu≈0.6, cv≈0.4) was checked for 0-15 sweeps.  Diffusion's five-term
# chain can round a field of ones up to 1.0078125 for a few α, so its
# exact bound holds for this problem's field: every BF16 α in range was
# checked for 1-10 sweeps.
@settings(max_examples=25, deadline=None)
@given(cu=st.floats(0.0, 0.6), cv=st.floats(0.0, 0.4),
       iters=st.integers(0, 15))
@example(iters=10, **_AMPLIFYING_DRAW)
def test_advection_max_principle(cu, cv, iters):
    """Upwind advection is monotone: values stay within initial extrema."""
    p = LaplaceProblem(nx=16, ny=8, left=1.0, initial=0.25)
    spec = StencilSpec.advection_upwind(cu, cv)
    vals = bits_to_f32(stencil_solve_bf16(p.initial_grid_bf16(), spec, iters))
    assert vals.min() >= 0.0
    assert vals.max() <= 1.0


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.01, 0.25), iters=st.integers(0, 10))
def test_diffusion_max_principle(alpha, iters):
    p = LaplaceProblem(nx=16, ny=8, left=1.0, bottom=-0.5, initial=0.0)
    spec = StencilSpec.diffusion(alpha)
    vals = bits_to_f32(stencil_solve_bf16(p.initial_grid_bf16(), spec, iters))
    assert vals.min() >= -0.5
    assert vals.max() <= 1.0


class TestRhsField:
    def test_reference_rhs_addition(self, rng):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=16, ny=8, initial=0.0, left=0.0)
        rhs = f32_to_bits(np.full((8, 16), 0.5, dtype=np.float32))
        spec = StencilSpec.weighted(south=0.25)
        out = stencil_step_bf16(p.initial_grid_bf16(), spec, rhs_bits=rhs)
        # all-zero field: out = 0.25*0 + rhs = 0.5 everywhere
        assert np.all(bits_to_f32(out)[1:-1, 1:-1] == 0.5)

    def test_rhs_shape_checked(self):
        p = LaplaceProblem(nx=16, ny=8)
        with pytest.raises(ValueError, match="interior shape"):
            stencil_step_bf16(p.initial_grid_bf16(), StencilSpec.jacobi(),
                              rhs_bits=np.zeros((4, 4), dtype=np.uint16))

    def test_device_rhs_bit_exact(self, device_factory, rng):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=32, ny=16, left=1.0)
        rhs = f32_to_bits(rng.normal(scale=0.1,
                                     size=(16, 32)).astype(np.float32))
        spec = StencilSpec.jacobi()
        res = StencilRunner(device_factory(), p, spec).run(4, rhs=rhs)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 4,
                                  rhs_bits=rhs)
        assert np.array_equal(res.grid_bits, want)

    def test_device_rhs_multicore_multicolumn(self, device_factory, rng):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=64, ny=16)
        rhs = f32_to_bits(rng.normal(scale=0.1,
                                     size=(16, 64)).astype(np.float32))
        spec = StencilSpec.diffusion(0.2)
        res = StencilRunner(device_factory(), p, spec, cores_y=2,
                            chunk=32).run(3, rhs=rhs)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 3,
                                  rhs_bits=rhs)
        assert np.array_equal(res.grid_bits, want)

    def test_runner_rejects_bad_rhs_shape(self, device_factory):
        p = LaplaceProblem(nx=32, ny=16)
        with pytest.raises(ValueError, match="rhs must be"):
            StencilRunner(device_factory(), p, StencilSpec.jacobi()).run(
                2, rhs=np.zeros((4, 4), dtype=np.uint16))

    def test_custom_initial_grid(self, device_factory):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=32, ny=16, initial=0.0)
        grid = p.initial_grid_bf16()
        grid[5, 10] = f32_to_bits(np.float32(3.0))
        spec = StencilSpec.diffusion(0.25)
        res = StencilRunner(device_factory(), p, spec).run(
            2, initial_grid=grid)
        want = stencil_solve_bf16(grid, spec, 2)
        assert np.array_equal(res.grid_bits, want)


class TestSpecValidation:
    def test_tap_outside_neighbourhood_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            StencilSpec(((1.0, ((0, 2),)),))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one tap"):
            StencilSpec(((1.0, ()),))

    def test_dst_rounding_takes_one_group(self):
        with pytest.raises(ValueError, match="exactly one group"):
            StencilSpec(((0.5, (W,)), (0.5, (E,))), rounding="dst")
        with pytest.raises(ValueError, match="rounding"):
            StencilSpec(((0.5, (W,)),), rounding="f32")

    def test_dst_rounding_takes_no_rhs(self, device_factory):
        p = LaplaceProblem(nx=32, ny=8)
        rhs = np.zeros((8, 32), dtype=np.uint16)
        with pytest.raises(ValueError, match="no rhs"):
            stencil_step_bf16(p.initial_grid_bf16(),
                              StencilSpec.jacobi("dst"), rhs_bits=rhs)
        with pytest.raises(ValueError, match="no rhs"):
            StencilRunner(device_factory(), p,
                          StencilSpec.jacobi("dst")).run(1, rhs=rhs)


class TestOneKernelFamily:
    def test_jacobi_spec_runs_the_optimised_jacobi_launch(self,
                                                          device_factory):
        """StencilRunner on Listing 2's spec *is* the Section-VI runner:
        same bits, same simulated time, same simulator event count."""
        from repro.core.jacobi_optimized import OptimizedJacobiRunner
        p = LaplaceProblem(nx=64, ny=16, left=1.0)
        runs = []
        for make in (lambda d: StencilRunner(d, p, StencilSpec.jacobi(),
                                             cores_y=2, cores_x=2),
                     lambda d: OptimizedJacobiRunner(d, p, cores_y=2,
                                                     cores_x=2)):
            dev = device_factory()
            res = make(dev).run(3)
            runs.append((res.grid_bits, res.kernel_time_s,
                         dev.sim.events_processed))
        (a_bits, a_t, a_ev), (b_bits, b_t, b_ev) = runs
        assert np.array_equal(a_bits, b_bits)
        assert a_t == b_t and a_ev == b_ev
        assert np.array_equal(
            a_bits, jacobi_solve_bf16(p.initial_grid_bf16(), 3))

    @pytest.mark.parametrize("cores", [(1, 1), (2, 2)])
    def test_nine_point_spec_matches_stencil9_reference(self, device_factory,
                                                        cores):
        """The op library's 9-point update as a two-group spec on the
        row-streaming dataflow: bit-identical to its independent oracle,
        also where two NaNs meet (the oracle keeps the device's operand
        order)."""
        from repro.ops.stencil9 import Stencil9Problem, stencil9_reference_bits
        prob = Stencil9Problem(nx=64, ny=16, iters=3, seed=4)
        for problem, halo, iters in (
                (prob.laplace(), prob.halo_grid_bits(), prob.iters),
                (NAN_PAIR_PROBLEM, nan_pair_grid("bf16"), 1)):
            res = StencilRunner(device_factory(), problem,
                                StencilSpec.nine_point(), cores_y=cores[0],
                                cores_x=cores[1]).run(iters,
                                                      initial_grid=halo)
            assert np.array_equal(res.grid_bits,
                                  stencil9_reference_bits(halo, iters))

    @pytest.mark.parametrize("spec", [
        StencilSpec.jacobi(), StencilSpec.jacobi("dst"),
        StencilSpec.diffusion(0.2), StencilSpec.advection_upwind(0.3, 0.2),
        StencilSpec.nine_point()], ids=["jacobi", "jacobi_dst", "diffusion",
                                        "advection", "nine_point"])
    def test_tile_ops_are_what_the_des_issues(self, device_factory, spec):
        """The count the Tier-2 model prices is the FPU ops plus packs the
        generated compute program issues per row chunk (two chunk
        columns, one sweep, one core), with and without an RHS field."""
        problem = LaplaceProblem(nx=64, ny=4)
        for rhs in (False, True)[:1 + (spec.rounding == "pack")]:
            dev = device_factory()
            StencilRunner(dev, problem, spec, chunk=32).run(
                1, rhs=np.zeros((4, 64), np.uint16) if rhs else None)
            fpu = dev.worker_grid(1, 1)[0][0].fpu
            assert fpu.ops + fpu.packs == spec.tile_ops(rhs) * 4 * 2


class TestRunnerAccounting:
    def test_negative_sim_iterations_rejected(self, device_factory):
        runner = StencilRunner(device_factory(), LaplaceProblem(nx=32, ny=8),
                               StencilSpec.diffusion(0.2))
        with pytest.raises(ValueError, match="sim_iterations"):
            runner.run(10, sim_iterations=-2)

"""Section-VI kernel tests: zero-copy correctness, multi-core, speedup."""

import numpy as np
import pytest

from repro.core.grid import LaplaceProblem
from repro.core.jacobi_initial import InitialJacobiRunner
from repro.core.jacobi_optimized import OptimizedConfig, OptimizedJacobiRunner
from repro.core.stencil import StencilSpec, stencil_solve_bf16
from repro.cpu.jacobi import jacobi_solve_bf16
from repro.dtypes.bf16 import f32_to_bits


def reference_bits(problem, iterations):
    return jacobi_solve_bf16(problem.initial_grid_bf16(), iterations)


class TestBitExactness:
    def test_single_core_matches_reference(self, device_factory,
                                           small_problem):
        runner = OptimizedJacobiRunner(device_factory(), small_problem)
        res = runner.run(4)
        assert np.array_equal(res.grid_bits,
                              reference_bits(small_problem, 4))

    def test_odd_iterations(self, device_factory, small_problem):
        runner = OptimizedJacobiRunner(device_factory(), small_problem)
        res = runner.run(5)
        assert np.array_equal(res.grid_bits,
                              reference_bits(small_problem, 5))

    def test_wide_domain_multiple_chunks(self, device_factory):
        """nx > chunk: several chunk columns per core (Fig. 6's two columns)."""
        problem = LaplaceProblem(nx=128, ny=16)
        cfg = OptimizedConfig(chunk=64)
        runner = OptimizedJacobiRunner(device_factory(), problem, cfg)
        res = runner.run(3)
        assert np.array_equal(res.grid_bits, reference_bits(problem, 3))

    def test_single_bank_variant(self, device_factory, small_problem):
        cfg = OptimizedConfig(interleaved=False)
        runner = OptimizedJacobiRunner(device_factory(), small_problem, cfg)
        res = runner.run(3)
        assert np.array_equal(res.grid_bits,
                              reference_bits(small_problem, 3))

    def test_matches_initial_kernel_bit_for_bit(self, device_factory,
                                                small_problem):
        """Both kernel generations compute the identical BF16 answer."""
        a = OptimizedJacobiRunner(device_factory(), small_problem).run(3)
        b = InitialJacobiRunner(device_factory(), small_problem).run(3)
        assert np.array_equal(a.grid_bits, b.grid_bits)

    def test_accumulate_ablation_matches_dst_reference(self, device_factory,
                                                       small_problem, rng):
        """The dst-accumulation ablation rounds once per point instead of
        at every pack: bit-exact to the spec's dst-rounding reference,
        and visibly not Listing 2's answer on a noisy interior."""
        grid = small_problem.initial_grid_bf16()
        grid[1:-1, 1:-1] = f32_to_bits(
            rng.random(grid[1:-1, 1:-1].shape).astype(np.float32))
        cfg = OptimizedConfig(accumulate_in_dst=True)
        runner = OptimizedJacobiRunner(device_factory(), small_problem, cfg)
        res = runner.run(3, initial_grid=grid)
        want = stencil_solve_bf16(grid, StencilSpec.jacobi("dst"), 3)
        assert np.array_equal(res.grid_bits, want)
        assert not np.array_equal(res.grid_bits, jacobi_solve_bf16(grid, 3))


class TestMultiCore:
    @pytest.mark.parametrize("cy,cx", [(2, 1), (1, 2), (2, 2)])
    def test_multicore_matches_reference(self, device_factory, cy, cx):
        problem = LaplaceProblem(nx=64, ny=16, left=1.0)
        runner = OptimizedJacobiRunner(device_factory(), problem,
                                       cores_y=cy, cores_x=cx)
        res = runner.run(4)
        assert np.array_equal(res.grid_bits, reference_bits(problem, 4))

    def test_four_cores_faster_than_one(self, device_factory):
        problem = LaplaceProblem(nx=64, ny=32)
        t = {}
        for cores in (1, 4):
            cy, cx = (2, 2) if cores == 4 else (1, 1)
            runner = OptimizedJacobiRunner(device_factory(), problem,
                                           cores_y=cy, cores_x=cx)
            res = runner.run(50, sim_iterations=2, read_back=False)
            t[cores] = res.kernel_time_s
        assert t[4] < t[1]


class TestPerformanceShape:
    def test_optimized_much_faster_than_initial(self, device_factory,
                                                problem_64):
        """The headline claim: the Section-VI redesign is >10x faster than
        the Section-IV version (the paper reports 163x vs the very first
        build at 512x512; at 64x64 fixed costs compress the gap)."""
        opt = OptimizedJacobiRunner(device_factory(), problem_64).run(
            100, sim_iterations=2, read_back=False)
        init = InitialJacobiRunner(device_factory(), problem_64).run(
            100, sim_iterations=2, read_back=False)
        assert opt.gpts / init.gpts > 4.0

    def test_no_memcpy_time_on_reader(self, device_factory, small_problem):
        """Zero-copy: the optimised reader spends a small fraction of the
        initial kernel's reader time (which is dominated by the 4-CB
        memcpy extraction)."""
        from repro.arch.tensix import DATA_MOVER_0
        dev_opt = device_factory()
        OptimizedJacobiRunner(dev_opt, small_problem).run(2, read_back=False)
        opt_busy = dev_opt.core(0, 0).busy_time[DATA_MOVER_0]
        dev_init = device_factory()
        InitialJacobiRunner(dev_init, small_problem).run(2, read_back=False)
        init_busy = dev_init.core(0, 0).busy_time[DATA_MOVER_0]
        assert opt_busy < init_busy / 3

    def test_ablation_slower_than_listing2(self, device_factory,
                                           problem_64):
        """The paper: dst accumulation 'actually resulted in lower
        performance'."""
        base = OptimizedJacobiRunner(
            device_factory(), problem_64, OptimizedConfig()).run(
                50, sim_iterations=2, read_back=False)
        abl = OptimizedJacobiRunner(
            device_factory(), problem_64,
            OptimizedConfig(accumulate_in_dst=True)).run(
                50, sim_iterations=2, read_back=False)
        assert abl.gpts < base.gpts


class TestValidation:
    def test_zero_iterations_rejected(self, device_factory, small_problem):
        with pytest.raises(ValueError):
            OptimizedJacobiRunner(device_factory(), small_problem).run(0)

    def test_reader_rows_read_once_per_iteration(self, device_factory,
                                                 small_problem):
        """No replicated reads: per iteration the reader fetches each of
        the ny+2 halo rows exactly once."""
        dev = device_factory()
        runner = OptimizedJacobiRunner(dev, small_problem)
        runner.run(1, read_back=False)
        reads = dev.noc0.stats.read_requests
        assert reads == small_problem.ny + 2

"""SRAM-resident solver tests (the paper's future-work architecture)."""

import numpy as np
import pytest

from repro.arch.sram import SramExhausted
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_optimized import OptimizedJacobiRunner
from repro.core.jacobi_sram import SramJacobiRunner
from repro.core.solver import JacobiSolver
from repro.cpu.jacobi import jacobi_solve_bf16


class TestCorrectness:
    @pytest.mark.parametrize("cores_y", [1, 2, 3, 4])
    def test_bit_exact(self, device_factory, cores_y):
        p = LaplaceProblem(nx=32, ny=24, left=1.0, top=0.5)
        res = SramJacobiRunner(device_factory(), p, cores_y=cores_y).run(4)
        want = jacobi_solve_bf16(p.initial_grid_bf16(), 4)
        assert np.array_equal(res.grid_bits, want)

    def test_single_iteration(self, device_factory):
        p = LaplaceProblem(nx=32, ny=8)
        res = SramJacobiRunner(device_factory(), p, cores_y=2).run(1)
        assert np.array_equal(res.grid_bits,
                              jacobi_solve_bf16(p.initial_grid_bf16(), 1))

    def test_matches_streaming_kernel(self, device_factory):
        """Both architectures compute the identical BF16 field."""
        p = LaplaceProblem(nx=32, ny=16, left=1.0)
        a = SramJacobiRunner(device_factory(), p, cores_y=2).run(5)
        b = OptimizedJacobiRunner(device_factory(), p,
                                  cores_y=2, cores_x=1).run(5)
        assert np.array_equal(a.grid_bits, b.grid_bits)

    def test_halo_information_crosses_cores(self, device_factory):
        """The top boundary's influence must cross the core cut — it can
        only do so through the NoC halo exchange."""
        p = LaplaceProblem(nx=32, ny=16, top=1.0, initial=0.0)
        iters = 12  # enough for influence to pass row 8 (the cut)
        res = SramJacobiRunner(device_factory(), p, cores_y=2).run(iters)
        from repro.dtypes.bf16 import bits_to_f32
        vals = bits_to_f32(res.grid_bits)
        assert vals[12, 16] > 0  # below the cut, influenced from above
        assert np.array_equal(
            res.grid_bits, jacobi_solve_bf16(p.initial_grid_bf16(), iters))


class TestCapacityAndValidation:
    def test_oversized_domain_rejected(self, device_factory):
        with pytest.raises(SramExhausted, match="slabs"):
            SramJacobiRunner(device_factory(),
                             LaplaceProblem(nx=1024, ny=512), cores_y=1)

    def test_more_cores_unlock_bigger_domains(self, device_factory):
        p = LaplaceProblem(nx=1024, ny=512)
        SramJacobiRunner(device_factory(), p, cores_y=8)  # fits

    def test_ragged_nx_rejected(self, device_factory):
        with pytest.raises(ValueError, match="multiple"):
            SramJacobiRunner(device_factory(),
                             LaplaceProblem(nx=1056, ny=8), cores_y=1)

    def test_bad_core_counts(self, device_factory):
        p = LaplaceProblem(nx=32, ny=4)
        with pytest.raises(ValueError):
            SramJacobiRunner(device_factory(), p, cores_y=0)
        with pytest.raises(ValueError):
            SramJacobiRunner(device_factory(), p, cores_y=8)

    def test_zero_iterations_rejected(self, device_factory):
        p = LaplaceProblem(nx=32, ny=8)
        with pytest.raises(ValueError):
            SramJacobiRunner(device_factory(), p, cores_y=1).run(0)


class TestPerformance:
    def test_faster_than_dram_streaming(self, device_factory):
        """The paper's hypothesis: SRAM residence improves throughput."""
        p = LaplaceProblem(nx=256, ny=64)
        sram = SramJacobiRunner(device_factory(), p, cores_y=4).run(
            500, sim_iterations=4, read_back=False)
        stream = OptimizedJacobiRunner(device_factory(), p,
                                       cores_y=4, cores_x=1).run(
            500, sim_iterations=4, read_back=False)
        assert sram.kernel_time_s < stream.kernel_time_s

    def test_scales_with_cores(self, device_factory):
        p = LaplaceProblem(nx=256, ny=64)
        t = {}
        for cy in (1, 4):
            res = SramJacobiRunner(device_factory(), p, cores_y=cy).run(
                500, sim_iterations=4, read_back=False)
            t[cy] = res.kernel_time_s
        assert t[4] < t[1] / 2

    def test_dram_quiet_during_iterations(self, device_factory):
        """After the load, iterations generate no DRAM traffic."""
        dev = device_factory()
        p = LaplaceProblem(nx=32, ny=16)
        SramJacobiRunner(dev, p, cores_y=2).run(3, read_back=False)
        reads = dev.noc0.stats.read_requests
        # load = (ny + 2) rows per core boundary split = 16+2+... ; with
        # 2 cores: (8+2) + (8+2) = 20 row reads total, nothing else
        assert reads == 20


class TestEnergyExtrapolation:
    """A partial simulation scales energy with the extrapolated time."""

    def test_solver_partial_energy_matches_full_run(self):
        p = LaplaceProblem(nx=64, ny=64)
        full = JacobiSolver(variant="sram").solve(p, 8)
        part = JacobiSolver(variant="sram").solve(p, 8, sim_iterations=2)
        assert part.energy_j == pytest.approx(full.energy_j, rel=0.03)

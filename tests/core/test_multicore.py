"""Functional multi-core / multi-card execution tests."""

import numpy as np
import pytest

from repro.core.grid import LaplaceProblem
from repro.core.multicore import run_multicard_functional
from repro.core.solver import JacobiSolver
from repro.cpu.jacobi import jacobi_solve_bf16
from repro.dtypes.bf16 import bits_to_f32


class TestMulticore:
    @pytest.mark.parametrize("cy,cx", [(1, 1), (2, 2), (3, 1), (1, 4), (4, 3)])
    def test_equals_global_sweep(self, cy, cx):
        """The modelled multi-core answer is the global sweep, whatever
        the core grid (DRAM halo exchange with a barrier per iteration)."""
        p = LaplaceProblem(nx=24, ny=24, left=1.0, top=-0.5)
        got = JacobiSolver(backend="e150-model",
                           cores=(cy, cx)).solve(p, 5).grid_f32
        want = bits_to_f32(jacobi_solve_bf16(p.initial_grid_bf16(), 5))
        assert np.array_equal(got, want)


class TestMulticard:
    def test_single_card_equals_global(self):
        p = LaplaceProblem(nx=16, ny=16, left=1.0)
        bits = p.initial_grid_bf16()
        got = run_multicard_functional(bits, 6, 1)
        assert np.array_equal(got, jacobi_solve_bf16(bits, 6))

    def test_multicard_deviates_from_truth(self):
        """The paper's caveat, reproduced: without inter-card halos the
        answer is wrong once boundary information should have crossed the
        cut."""
        p = LaplaceProblem(nx=16, ny=16, top=1.0)
        bits = p.initial_grid_bf16()
        iterations = 12  # enough for the top boundary to reach the cut
        got = run_multicard_functional(bits, iterations, 2)
        want = jacobi_solve_bf16(bits, iterations)
        assert not np.array_equal(got, want)
        # ...and the deviation is concentrated near the card cut (row 8):
        diff = np.abs(bits_to_f32(got) - bits_to_f32(want))
        cut_err = diff[7:11, 1:-1].max()
        far_err = diff[1:3, 1:-1].max()
        assert cut_err > far_err

    def test_multicard_correct_before_information_reaches_cut(self):
        """For few iterations the stale halos have not been consulted with
        wrong values yet: each card's block is still exact."""
        p = LaplaceProblem(nx=16, ny=16, top=1.0)
        bits = p.initial_grid_bf16()
        got = run_multicard_functional(bits, 2, 2)
        want = jacobi_solve_bf16(bits, 2)
        # rows far from the cut are exact
        assert np.array_equal(got[1:4], want[1:4])

    def test_invalid_cards(self):
        p = LaplaceProblem(nx=8, ny=8)
        with pytest.raises(ValueError):
            run_multicard_functional(p.initial_grid_bf16(), 1, 0)

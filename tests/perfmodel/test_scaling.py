"""Tier-2 scaling model tests: Table VIII fidelity + DES cross-validation."""

import dataclasses
import hashlib
import itertools

import pytest

from repro.core.grid import LaplaceProblem
from repro.core.jacobi_optimized import OptimizedJacobiRunner
from repro.core.solver import JacobiSolver
from repro.core.stencil import StencilRunner, StencilSpec
from repro.perfmodel.calibration import DEFAULT_COSTS
from repro.perfmodel.scaling import (
    JacobiScalingModel,
    chunk_widths,
    columns_used,
    optimized_kernel_phases,
)


class TestChunkWidths:
    def test_exact_multiple(self):
        assert chunk_widths(2048) == [1024, 1024]

    def test_ragged_tail(self):
        assert chunk_widths(1152) == [1024, 128]

    def test_narrow(self):
        assert chunk_widths(512) == [512]

    def test_invalid(self):
        with pytest.raises(ValueError):
            chunk_widths(0)


class TestColumnsUsed:
    def test_normal_placement_uses_cx(self):
        assert columns_used(8, 9, DEFAULT_COSTS) == 9
        assert columns_used(8, 4, DEFAULT_COSTS) == 4

    def test_swap_when_y_exceeds_height(self):
        # the paper's 12x9: Y=12 > 10-row grid, so Y lies along the width
        assert columns_used(12, 9, DEFAULT_COSTS) == 12

    def test_too_big_rejected(self):
        with pytest.raises(ValueError):
            columns_used(13, 13, DEFAULT_COSTS)


class TestPhases:
    def test_traffic_accounting(self):
        ph = optimized_kernel_phases(1024, 100)
        assert ph.points == 1024 * 100
        assert ph.read_bytes == (1024 + 2) * 2 * 102   # ny + 2 halo rows
        assert ph.write_bytes == 1024 * 2 * 100

    def test_ragged_chunk_costs_full_tile(self):
        """1152 wide costs two full FPU passes per row — the X-split
        penalty behind the 8x8 row of Table VIII."""
        full = optimized_kernel_phases(1024, 10)
        ragged = optimized_kernel_phases(1152, 10)
        assert ragged.compute == pytest.approx(2 * full.compute, rel=0.05)

    def test_solo_iteration_between_max_and_sum(self):
        ph = optimized_kernel_phases(1024, 100)
        t = ph.solo_iteration_time(DEFAULT_COSTS)
        assert max(ph.stages) <= t <= sum(ph.stages)


class TestTable8Fidelity:
    """Every e150 row of Table VIII within 1.5x of the paper."""

    PAPER = [
        (1, 1, 1, 1.06), (1, 2, 1, 2.48), (1, 4, 1, 2.92), (2, 4, 1, 7.99),
        (8, 4, 1, 9.20), (8, 8, 1, 12.96), (8, 9, 1, 17.26),
        (12, 9, 1, 22.06),
    ]

    @pytest.mark.parametrize("cy,cx,cards,paper_gpts", PAPER)
    def test_row_within_band(self, cy, cx, cards, paper_gpts):
        model = JacobiScalingModel()
        res = model.run(9216, 1024, 5000, cy, cx, n_cards=cards)
        ratio = res.gpts / paper_gpts
        assert 1 / 1.5 <= ratio <= 1.5, f"{cy}x{cx}: {res.gpts:.2f} GPt/s"

    def test_single_core_calibration_tight(self):
        res = JacobiScalingModel().run(9216, 1024, 5000, 1, 1)
        assert res.gpts == pytest.approx(1.06, rel=0.05)

    def test_full_card_calibration_tight(self):
        res = JacobiScalingModel().run(9216, 1024, 5000, 12, 9)
        assert res.gpts == pytest.approx(22.06, rel=0.10)

    def test_column_bound_appears_at_scale(self):
        model = JacobiScalingModel()
        assert not model.run(9216, 1024, 5000, 1, 1).column_bound
        assert model.run(9216, 1024, 5000, 12, 9).column_bound

    def test_multicard_near_linear(self):
        model = JacobiScalingModel()
        one = model.run(9216, 1024, 5000, 12, 9)
        two = model.run(9216, 1024, 5000, 12, 9, n_cards=2)
        four = model.run(9216, 1024, 5000, 12, 9, n_cards=4)
        assert two.gpts == pytest.approx(2 * one.gpts, rel=0.02)
        # slightly sublinear: shorter per-card domains pay the 2 halo rows
        # over fewer interior rows (the paper's 4-card row is also ~1.6%
        # below perfect linearity)
        assert four.gpts == pytest.approx(4 * one.gpts, rel=0.07)

    def test_energy_five_times_better_than_cpu(self):
        """The paper's headline energy claim."""
        from repro.perfmodel.cpumodel import XeonModel
        cpu = XeonModel().energy_j(9216 * 1024, 5000, 24)
        card = JacobiScalingModel().run(9216, 1024, 5000, 12, 9).energy_j
        assert cpu / card > 4.0

    def test_energy_drops_with_cores(self):
        """Constant card power => more cores = less energy."""
        model = JacobiScalingModel()
        energies = [model.run(9216, 1024, 5000, cy, cx).energy_j
                    for cy, cx in [(1, 1), (2, 4), (8, 9), (12, 9)]]
        assert energies == sorted(energies, reverse=True)

    def test_validation(self):
        model = JacobiScalingModel()
        with pytest.raises(ValueError):
            model.run(1024, 1024, 0, 1, 1)
        with pytest.raises(ValueError):
            model.run(1024, 1024, 10, 12, 12)

    def test_solver_splits_cores_across_cards(self):
        """``cores`` spans all cards: 48x9 on four cards is 12x9 each."""
        p = LaplaceProblem(nx=9216, ny=1024)
        res = JacobiSolver(backend="e150-model", cores=(48, 9),
                           n_cards=4).solve(p, 5000, compute_answer=False)
        card = JacobiScalingModel().run(9216, 1024, 5000, 12, 9, n_cards=4)
        assert (res.time_s, res.gpts, res.energy_j) == \
            (card.solve_time_s, card.gpts, card.energy_j)
        with pytest.raises(ValueError, match="divide evenly"):
            JacobiSolver(backend="e150-model", cores=(9, 9), n_cards=2
                         ).solve(LaplaceProblem(nx=1024, ny=1024), 10,
                                 compute_answer=False)  # 9 % 2 != 0


class TestDesCrossValidation:
    """The Tier-2 model and the DES must agree where both can run."""

    def test_single_core_small_domain(self, device_factory):
        problem = LaplaceProblem(nx=1024, ny=64)
        des = OptimizedJacobiRunner(device_factory(), problem).run(
            20, sim_iterations=2, read_back=False)
        model = JacobiScalingModel().run(1024, 64, 20, 1, 1)
        ratio = des.kernel_time_s / model.solve_time_s
        assert 0.5 <= ratio <= 2.0, f"DES/model ratio {ratio:.2f}"

    def test_scaling_direction_agrees(self, device_factory):
        problem = LaplaceProblem(nx=64, ny=64)
        des1 = OptimizedJacobiRunner(device_factory(), problem,
                                     cores_y=1, cores_x=1).run(
            10, sim_iterations=2, read_back=False)
        des4 = OptimizedJacobiRunner(device_factory(), problem,
                                     cores_y=2, cores_x=2).run(
            10, sim_iterations=2, read_back=False)
        m1 = JacobiScalingModel().run(64, 64, 10, 1, 1)
        m4 = JacobiScalingModel().run(64, 64, 10, 2, 2)
        assert (des4.kernel_time_s < des1.kernel_time_s) == (
            m4.solve_time_s < m1.solve_time_s)

    def test_dst_rounding_orders_above_pack_in_both_tiers(
            self, device_factory):
        """The rejected ``accumulate_in_dst`` ablation skips the packs but
        pays an FPU reconfiguration stall per group, which makes it
        slower than Listing 2 in the DES; the model prices that stall
        too, so it orders the two variants the same way."""
        problem = LaplaceProblem(nx=1024, ny=64)
        des, model = {}, {}
        for rounding in ("pack", "dst"):
            spec = StencilSpec.jacobi(rounding)
            des[rounding] = StencilRunner(device_factory(), problem,
                                          spec).run(
                2, read_back=False).kernel_time_s
            model[rounding] = JacobiScalingModel().run(
                1024, 64, 2, 1, 1, spec=spec).solve_time_s
        assert des["dst"] > des["pack"]
        assert model["dst"] > model["pack"]


#: ``(width, height)`` domains of the model pin: tiny, ragged, Table VIII
#: and strip shapes
PIN_DOMAINS = ((64, 64), (1000, 333), (1024, 64), (4096, 512),
               (9216, 1024), (30000, 96))
#: core grids of the model pin (those that exceed a card are skipped)
PIN_GRIDS = ((1, 1), (1, 2), (2, 2), (1, 4), (2, 4), (4, 4), (3, 5),
             (8, 4), (8, 8), (8, 9), (12, 9), (9, 12))


def model_pin_rows():
    """Every ``MulticoreResult`` of the pin grid, in a fixed order."""
    from repro.perfmodel.wormhole import WORMHOLE_COSTS
    for costs in (DEFAULT_COSTS, WORMHOLE_COSTS):
        model = JacobiScalingModel(costs)
        for (width, height), (cy, cx), cards, dtype, iters in (
                itertools.product(PIN_DOMAINS, PIN_GRIDS, (1, 2, 4),
                                  ("bf16", "fp32"), (1, 5000))):
            if cy * cx <= costs.n_worker_cores:
                yield model.run(width, height, iters, cy, cx, n_cards=cards,
                                dtype=dtype)


class TestModelPin:
    """Every field of ``JacobiScalingModel.run`` over a fixed grid of
    domains, core grids, card counts, dtypes and both cost models,
    pinned as ``float.hex`` across commits: a refactor of the closed
    form must keep every bit.  A change that moves the digest is a
    declared timing change."""

    DIGEST = "4a29888699022d4a"

    def test_every_field_is_pinned(self):
        h = hashlib.sha256()
        rows = list(model_pin_rows())
        for res in rows:
            for f in dataclasses.fields(res):
                v = getattr(res, f.name)
                v = v.hex() if isinstance(v, float) else repr(v)
                h.update(f"{f.name}={v};".encode())
        bound = sum(r.column_bound for r in rows)
        assert 0 < bound < len(rows)    # both contention branches covered
        assert h.hexdigest()[:16] == self.DIGEST

"""Wormhole projection tests (the paper's next-card future work)."""

import pytest

from repro.perfmodel.calibration import DEFAULT_COSTS
from repro.perfmodel.scaling import JacobiScalingModel
from repro.perfmodel.wormhole import FP32_TILE_ELEMS, WORMHOLE_COSTS


def wormhole() -> JacobiScalingModel:
    return JacobiScalingModel(WORMHOLE_COSTS)


class TestAssumptions:
    def test_geometry(self):
        assert WORMHOLE_COSTS.n_worker_cores == 72
        assert WORMHOLE_COSTS.n_dram_banks == 6
        assert WORMHOLE_COSTS.clock_hz == 1.0e9

    def test_per_op_costs_scale_with_clock(self):
        assert WORMHOLE_COSTS.fpu_op > DEFAULT_COSTS.fpu_op

    def test_fp32_tile_is_half_a_bf16_tile(self):
        assert FP32_TILE_ELEMS == 512  # 16384 bits / 32


class TestProjection:
    def test_fp32_half_of_bf16_compute(self):
        m = wormhole()
        bf16 = m.run(9216, 1024, 100, 1, 1, dtype="bf16")
        fp32 = m.run(9216, 1024, 100, 1, 1, dtype="fp32")
        assert fp32.gpts == pytest.approx(bf16.gpts / 2, rel=0.1)

    def test_full_card_competitive_with_grayskull(self):
        """A 72-core Wormhole in BF16 lands near the 108-core Grayskull
        (faster memory compensates fewer cores)."""
        wh = wormhole().run(9216, 1024, 5000, 8, 9, dtype="bf16")
        gs = JacobiScalingModel().run(9216, 1024, 5000, 12, 9)
        assert 0.6 < wh.gpts / gs.gpts < 2.0

    def test_multicard_with_halos_near_linear(self):
        """Ethernet halo exchange costs little: ≥3.5x on 4 cards."""
        m = wormhole()
        one = m.run(9216, 1024, 5000, 8, 9, dtype="fp32")
        four = m.run(9216, 1024, 5000, 8, 9, n_cards=4, dtype="fp32")
        assert four.gpts / one.gpts > 3.5

    def test_halo_exchange_charged(self):
        """Multi-card iterations are strictly slower per card-iteration."""
        m = wormhole()
        two = m.run(9216, 4096, 100, 8, 9, n_cards=2, dtype="fp32")
        # two cards: half the rows per card, plus the exchange; the
        # iteration time must exceed exactly-half of one card's
        half = m.run(9216, 2048, 100, 8, 9, n_cards=1, dtype="fp32")
        assert two.iteration_time_s > half.iteration_time_s

    def test_no_halo_without_a_card_link(self):
        """The e150 has no card link: a card's iteration is its block's."""
        m = JacobiScalingModel()
        two = m.run(9216, 4096, 100, 8, 9, n_cards=2)
        half = m.run(9216, 2048, 100, 8, 9, n_cards=1)
        assert two.iteration_time_s == half.iteration_time_s

    def test_energy_accounting(self):
        res = wormhole().run(9216, 1024, 5000, 8, 9, dtype="fp32")
        assert res.energy_j == pytest.approx(
            res.solve_time_s * res.power_w)
        assert 110 <= res.power_w <= 130

    def test_validation(self):
        m = wormhole()
        with pytest.raises(ValueError):
            m.run(1024, 1024, 10, 1, 1, dtype="fp64")
        with pytest.raises(ValueError):
            m.run(1024, 1024, 0, 1, 1, dtype="fp32")
        with pytest.raises(ValueError):
            m.run(1024, 1024, 10, 9, 9, dtype="fp32")  # 81 > 72 workers

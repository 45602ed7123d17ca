"""Accounting regression: stalled cards draw idle power, exactly.

:class:`~repro.cluster.ClusterResult` is the one wall/energy ledger of a
solve with halo exchange.  These tests pin, for model and DES timing,

    ``energy_j == Σ busy_energy_i + Σ stall_i · idle_w``   (exact)
    ``busy_i + stall_i == wall_time_s``  for every card    (exact)

so halo-exchange barriers can never silently vanish from the energy
ledger again.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSolver
from repro.perfmodel.calibration import DEFAULT_COSTS


def solve(**kw):
    defaults = dict(nx=64, ny=64, iterations=6, cards_y=2, cards_x=2)
    defaults.update(kw)
    return ClusterSolver(ClusterConfig(**defaults)).solve()


#: DES-timed shapes: 2x1 cards x 2x2 cores, and 1x4 cards x 4x2 cores
DES_CONFIGS = [
    ClusterConfig(nx=64, ny=32, iterations=3, cards_y=2, cards_x=1,
                  cores_y=2, cores_x=2, timing="des"),
    ClusterConfig(nx=128, ny=32, iterations=2, cards_y=1, cards_x=4,
                  cores_y=4, cores_x=2, timing="des"),
]


@pytest.fixture(scope="module")
def des_solves():
    """``(solver, result)`` for every DES shape, solved once."""
    out = []
    for cfg in DES_CONFIGS:
        solver = ClusterSolver(cfg)
        out.append((solver, solver.solve()))
    return out


class TestResultIdentity:
    def test_energy_identity_exact_model(self):
        res = solve()
        assert res.energy_j == res.energy_identity_j()

    def test_energy_identity_exact_des(self, des_solves):
        for _, res in des_solves:
            assert res.energy_j == res.energy_identity_j()

    def test_busy_plus_stall_is_wall_per_card(self, des_solves):
        for res in [solve()] + [res for _, res in des_solves]:
            for busy, stall in zip(res.busy_s, res.stall_s):
                assert busy + stall == res.wall_time_s

    def test_des_cluster_holds_the_cards_that_ran(self, des_solves):
        """``last_des_cluster`` is the N independent cards that ran the
        launches: their clocks are the busy times, their meters the busy
        energies, and the slowest clock is the cluster's wall time.
        Barrier stalls and host staging exist only in the result."""
        for solver, res in des_solves:
            cluster = solver.last_des_cluster
            assert cluster.n_cards == res.n_cards
            assert res.busy_energy_j == tuple(
                card.energy.energy_j for card in cluster.cards)
            for busy, card in zip(res.busy_s, cluster.cards):
                assert card.sim.now == pytest.approx(busy, rel=1e-12)
            assert cluster.wall_time_s == max(
                card.sim.now for card in cluster.cards)
            assert cluster.wall_time_s < res.wall_time_s

    def test_stalls_include_host_staging(self):
        """Every card idles through scatter/exchange/gather, so per-card
        stall is at least the total host staging time."""
        res = solve()
        assert res.host_stage_s > 0
        for stall in res.stall_s:
            assert stall >= res.host_stage_s

    def test_uneven_split_stalls_fast_cards(self):
        """A 3-way split of 64 rows gives one card fewer rows: fast
        cards must accrue more stall, but identical wall and energy
        identity still hold."""
        res = solve(ny=64, cards_y=3, cards_x=1)
        assert max(res.stall_s) > min(res.stall_s)
        assert res.energy_j == res.energy_identity_j()

    def test_idle_power_priced_at_calibrated_idle_watts(self):
        res = solve()
        assert res.power_idle_w == DEFAULT_COSTS.card_power_idle_w
        stall_j = sum(s * res.power_idle_w for s in res.stall_s)
        busy_j = sum(res.busy_energy_j)
        assert res.energy_j == busy_j + stall_j

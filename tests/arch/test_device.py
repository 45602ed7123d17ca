"""Device, cluster and energy-meter tests."""

import pytest

from repro.arch.cluster import Cluster
from repro.arch.device import GrayskullDevice
from repro.arch.energy import EnergyMeter
from repro.perfmodel.calibration import DEFAULT_COSTS
from repro.sim import Simulator


class TestGeometry:
    def test_grid_and_worker_counts(self, device):
        assert device.grid_width == 12
        assert device.grid_height == 10
        assert device.n_workers == 108

    def test_storage_row_not_workers(self, device):
        storage = [c for c in (device.core(x, 9) for x in range(12))]
        assert all(not c.is_worker for c in storage)
        assert all(device.core(x, y).is_worker
                   for x in range(12) for y in range(9))

    def test_core_lookup_bounds(self, device):
        with pytest.raises(KeyError):
            device.core(12, 0)
        with pytest.raises(KeyError):
            device.core(0, 10)

    def test_worker_grid_placement(self, device):
        grid = device.worker_grid(2, 3)
        assert len(grid) == 2 and len(grid[0]) == 3
        coords = {c.coord for row in grid for c in row}
        assert len(coords) == 6
        assert all(c.is_worker for row in grid for c in row)

    def test_worker_grid_12x9_requires_swap(self, device):
        """The paper's 12x9 placement only fits with Y along the width."""
        grid = device.worker_grid(12, 9)
        assert len(grid) == 12 and len(grid[0]) == 9
        coords = {c.coord for row in grid for c in row}
        assert len(coords) == 108

    def test_worker_grid_too_big(self, device):
        with pytest.raises(ValueError):
            device.worker_grid(12, 10)  # 120 > 108 workers

    def test_dram_bank_coords_roundtrip(self, device):
        for b in range(8):
            x, y = device.dram_bank_noc_coords(b)
            assert device.bank_from_noc_coords(x, y) == b

    def test_bad_bank_coords(self, device):
        with pytest.raises(ValueError):
            device.bank_from_noc_coords(0, 0)  # a core, not a bank
        with pytest.raises(ValueError):
            device.dram_bank_noc_coords(8)

    def test_describe(self, device):
        text = device.describe()
        assert "108 workers" in text and "8 DRAM banks" in text


class TestCluster:
    def test_cards_independent(self):
        cluster = Cluster(2, dram_bank_capacity=1 << 20)
        assert cluster.n_cards == 2
        assert cluster[0].sim is not cluster[1].sim

    def test_wall_time_is_max(self):
        cluster = Cluster(2, dram_bank_capacity=1 << 20)
        cluster[0].sim.run(until=1.0)
        cluster[1].sim.run(until=3.0)
        assert cluster.wall_time_s == pytest.approx(3.0)

    def test_energy_includes_idle_tail(self):
        cluster = Cluster(2, dram_bank_capacity=1 << 20)
        cluster[0].sim.run(until=1.0)
        cluster[1].sim.run(until=3.0)
        e = cluster.energy_j
        # card 0 idles 2 s at idle power on top of both cards' own energy
        assert e >= 2.0 * DEFAULT_COSTS.card_power_idle_w

    def test_energy_identity_exact(self):
        """Independent cards: every card idles from its own clock to the
        slowest one's, and nothing else is charged."""
        cluster = Cluster(3, dram_bank_capacity=1 << 20)
        for i, card in enumerate(cluster):
            card.sim.run(until=(i + 1) * 1e-4)
        wall = cluster.wall_time_s
        assert wall == cluster[2].sim.now
        expect = sum(card.energy.energy_j
                     + (wall - card.sim.now)
                     * DEFAULT_COSTS.card_power_idle_w
                     for card in cluster)
        assert cluster.energy_j == expect

    def test_map(self):
        cluster = Cluster(3, dram_bank_capacity=1 << 20)
        ids = cluster.map(lambda card: card.device_id)
        assert ids == [0, 1, 2]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestEnergyMeter:
    def test_constant_power_integration(self, sim):
        meter = EnergyMeter(sim, DEFAULT_COSTS)
        meter.set_active_cores(1)
        sim.run(until=2.0)
        expected = DEFAULT_COSTS.card_power_w(1) * 2.0
        assert meter.energy_j == pytest.approx(expected)

    def test_power_nearly_flat_in_cores(self):
        """The paper's key observation: 50-55 W regardless of core count."""
        c = DEFAULT_COSTS
        p1, p108 = c.card_power_w(1), c.card_power_w(108)
        assert 50.0 <= p1 <= 55.0
        assert 50.0 <= p108 <= 55.0
        assert p108 >= p1

    def test_idle_power_below_active(self):
        c = DEFAULT_COSTS
        assert c.card_power_w(0) < c.card_power_w(1)

    def test_step_changes(self, sim):
        meter = EnergyMeter(sim, DEFAULT_COSTS)
        meter.set_active_cores(108)
        sim.run(until=1.0)
        meter.set_active_cores(0)
        sim.run(until=2.0)
        c = DEFAULT_COSTS
        expected = c.card_power_w(108) * 1.0 + c.card_power_idle_w * 1.0
        assert meter.energy_j == pytest.approx(expected)

    def test_negative_cores_rejected(self, sim):
        meter = EnergyMeter(sim, DEFAULT_COSTS)
        with pytest.raises(ValueError):
            meter.set_active_cores(-1)


class TestTensixCore:
    def test_cb_registry(self, device):
        core = device.core(0, 0)
        cb = core.create_cb(0, 2048, 4)
        assert core.cbs[0] is cb
        with pytest.raises(ValueError):
            core.create_cb(0, 2048, 4)

    def test_semaphore_registry(self, device):
        core = device.core(1, 1)
        core.create_semaphore(0, initial=2)
        assert core.semaphores[0].value == 2
        with pytest.raises(ValueError):
            core.create_semaphore(0)

    def test_l1_allocation(self, device):
        core = device.core(2, 2)
        a = core.allocate_l1(128)
        b = core.allocate_l1(128)
        assert b >= a + 128

    def test_describe_lists_cbs(self, device):
        core = device.core(3, 0)
        core.create_cb(5, 1024, 2)
        text = core.describe()
        assert "CB5" in text and "FPU" in text

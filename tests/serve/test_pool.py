"""Pool members, service-time models and deterministic hang plans."""

import pytest

from repro.serve.pool import (DeviceMember, PoolConfig, ServeHang,
                              WorkerPool, best_case_service_s,
                              cpu_service_time, device_service_time,
                              generate_hangs, launch_overhead_s)
from repro.serve.request import SolveRequest


class TestPoolConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(n_devices=-1)
        with pytest.raises(ValueError, match="at least one member"):
            PoolConfig(n_devices=0, n_cpu_workers=0)
        with pytest.raises(ValueError, match="watchdog"):
            PoolConfig(watchdog_factor=1.0)
        with pytest.raises(ValueError):
            PoolConfig(max_retries=-1)

    def test_cpu_only_pool_allowed(self):
        cfg = PoolConfig(n_devices=0, n_cpu_workers=2)
        pool = WorkerPool(cfg)
        assert not pool.devices and len(pool.cpus) == 2


class TestGenerateHangs:
    def test_deterministic_for_seed(self):
        assert generate_hangs(7, 3, 2) == generate_hangs(7, 3, 2)
        assert generate_hangs(7, 3, 2) != generate_hangs(8, 3, 2)

    def test_unique_and_sorted(self):
        hangs = generate_hangs(0, 8, 2)
        keys = [(h.device_id, h.launch_index) for h in hangs]
        assert len(set(keys)) == len(keys) == 8
        assert keys == sorted(keys)

    def test_zero_hangs(self):
        assert generate_hangs(0, 0, 2) == ()

    def test_needs_a_device(self):
        with pytest.raises(ValueError):
            generate_hangs(0, 1, 0)


class TestServiceTimes:
    def test_more_cores_is_faster(self):
        req = SolveRequest(rid=0, nx=128, ny=128)
        full = device_service_time(req, 12, 9)
        band = device_service_time(req, 4, 9)
        assert 0 < full < band

    def test_cpu_scales_with_points(self):
        small = cpu_service_time(SolveRequest(rid=0, nx=32, ny=32), 24)
        big = cpu_service_time(SolveRequest(rid=1, nx=128, ny=128), 24)
        assert 0 < small < big

    def test_launch_overhead_sums_batch_bytes(self):
        one = launch_overhead_s([SolveRequest(rid=0, nx=32, ny=32)])
        two = launch_overhead_s([SolveRequest(rid=0, nx=32, ny=32),
                                 SolveRequest(rid=1, nx=32, ny=32)])
        assert two > one > 0

    def test_best_case_matches_backend(self):
        cfg = PoolConfig()
        dev_req = SolveRequest(rid=0, nx=64, ny=64)
        cpu_req = SolveRequest(rid=1, nx=64, ny=64, backend="cpu")
        dev = best_case_service_s(dev_req, cfg)
        assert dev == launch_overhead_s([dev_req]) \
            + device_service_time(dev_req, 12, 9)
        assert best_case_service_s(cpu_req, cfg) \
            == cpu_service_time(cpu_req, cfg.cpu_threads)

    def test_best_case_clamps_tiny_grids(self):
        cfg = PoolConfig()
        req = SolveRequest(rid=0, nx=4, ny=4)
        assert best_case_service_s(req, cfg) == launch_overhead_s([req]) \
            + device_service_time(req, 4, 4)


class TestMembers:
    def test_hang_plan_targets_one_launch(self):
        dev = DeviceMember(0, (12, 9), [ServeHang(0, 1), ServeHang(1, 0)])
        assert not dev.take_hang(0.0, 0)         # launch 0 is clean
        assert dev.take_hang(0.0, 1)             # launch 1 wedges
        assert not dev.take_hang(0.0, 1)         # ... exactly once
        assert not dev.take_hang(0.0, 2)
        other = DeviceMember(1, (12, 9), [ServeHang(0, 1), ServeHang(1, 0)])
        assert not other.take_hang(0.0, 1)       # plan is per-device
        assert other.take_hang(0.0, 0)

    def test_availability_tracks_health(self):
        dev = DeviceMember(0, (12, 9))
        assert dev.available(0.0)
        # A fault makes the member suspect: it rests out the holdoff.
        dev.health.note_fault(1.0, "hang")
        hold = dev.health.cfg.suspect_holdoff_s
        assert not dev.available(1.0 + hold / 2)
        assert dev.available(1.0 + hold)
        dev.busy = True
        assert not dev.available(5.0)
        dev.busy = False
        # Quarantined members never accept tenant work.
        while dev.health.state != "quarantined":
            dev.health.note_fault(1.0, "sdc")
        assert not dev.available(100.0)

    def test_free_member_is_lowest_id(self):
        pool = WorkerPool(PoolConfig(n_devices=3))
        assert pool.free_device(0.0).device_id == 0
        pool.devices[0].busy = True
        assert pool.free_device(0.0).device_id == 1

    def test_free_member_prefers_healthier_rank(self):
        pool = WorkerPool(PoolConfig(n_devices=2))
        # Device 0 suspect (past its holdoff), device 1 healthy: the
        # healthy one wins even though its id is higher.
        pool.devices[0].health.note_fault(0.0, "hang")
        later = pool.devices[0].health.held_until + 1.0
        assert pool.free_device(later).device_id == 1

    def test_utilization(self):
        pool = WorkerPool(PoolConfig(n_devices=1, n_cpu_workers=1))
        pool.devices[0].busy_s = 0.5
        util = pool.utilization(2.0)
        assert util == {"e150-0": 0.25, "cpu-0": 0.0}
        assert pool.devices[0].utilization(0.0) == 0.0

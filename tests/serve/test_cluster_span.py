"""Cluster-span serving: oversized grids span cards, small ones pack.

With ``PoolConfig.card_point_capacity`` set, a grid bigger than one
card reserves pool members as they free and launches once as a single
cluster span (charged the :mod:`repro.cluster` halo-exchange timeline);
grids needing more cards than the pool owns shed ``too_large`` at
admission; with the capacity unset everything behaves exactly as
before.  A span runs through the same fault pipeline as a batch, so a
fault on any member is recorded, counted and fed to that member's
breaker exactly as on a single-member launch.
"""

import pytest

from repro.faults.plan import (CoreFailure, FaultPlan, KernelHang,
                               SolverBitFlip)
from repro.serve.chaos import ChaosConfig, ChaosPlan
from repro.serve.pool import (
    PoolConfig,
    cluster_cards_needed,
    cluster_service_time,
)
from repro.serve.request import AdmissionError, SolveRequest
from repro.serve.service import SolveService
from repro.sim import Simulator


def make_service(n_devices=3, capacity=4096, **kw):
    sim = Simulator()
    svc = SolveService(sim, pool=PoolConfig(
        n_devices=n_devices, n_cpu_workers=0,
        card_point_capacity=capacity), **kw)
    return sim, svc


BIG = dict(nx=96, ny=96, iterations=8)       # 9216 points -> 3 cards @4096
SMALL = dict(nx=32, ny=32, iterations=4)     # 1024 points -> 1 card


class TestCardsNeeded:
    def test_disabled_capacity_never_spans(self):
        req = SolveRequest(rid=1, nx=512, ny=512)
        assert cluster_cards_needed(req, None) == 1

    def test_cpu_requests_never_span(self):
        req = SolveRequest(rid=1, nx=512, ny=512, backend="cpu")
        assert cluster_cards_needed(req, 1024) == 1

    def test_ceil_division(self):
        req = SolveRequest(rid=1, **BIG)
        assert cluster_cards_needed(req, 4096) == 3
        assert cluster_cards_needed(req, 9216) == 1
        assert cluster_cards_needed(req, 9215) == 2

    def test_service_time_includes_halo_rounds(self):
        req = SolveRequest(rid=1, **BIG)
        one = cluster_service_time(req, 1, PoolConfig(n_devices=4))
        four = cluster_service_time(req, 4, PoolConfig(n_devices=4))
        assert one > 0 and four > 0
        with pytest.raises(ValueError):
            cluster_service_time(req, 0, PoolConfig(n_devices=4))


class TestAdmission:
    def test_too_large_is_typed_and_recorded(self):
        _sim, svc = make_service(n_devices=2, capacity=1024)
        with pytest.raises(AdmissionError) as err:
            svc.submit(SolveRequest(rid=1, nx=64, ny=64))  # 4 cards > 2
        assert err.value.reason == "too_large"
        assert svc.outcomes[0].status == "shed"
        assert svc.outcomes[0].shed_reason == "too_large"
        assert svc.metrics.counters["shed.too_large"] == 1

    def test_fitting_request_admitted(self):
        sim, svc = make_service()
        svc.submit(SolveRequest(rid=1, **BIG))
        sim.run()
        assert svc.outcomes[0].status == "completed"

    def test_capacity_none_preserves_old_behaviour(self):
        sim, svc = make_service(capacity=None)
        svc.submit(SolveRequest(rid=1, nx=512, ny=512, iterations=2))
        sim.run()
        out = svc.outcomes[0]
        assert out.status == "completed"
        assert out.worker == "e150-0"              # single member
        assert "launches.cluster" not in svc.metrics.counters

    def test_deadline_checked_against_cluster_time(self):
        _sim, svc = make_service()
        need = cluster_cards_needed(SolveRequest(rid=9, **BIG), 4096)
        best = cluster_service_time(SolveRequest(rid=9, **BIG), need,
                                    svc.pool_cfg, svc.costs)
        with pytest.raises(AdmissionError) as err:
            svc.submit(SolveRequest(rid=1, deadline_s=best / 2, **BIG))
        assert err.value.reason == "deadline_unmeetable"


class TestSpanDispatch:
    def test_span_occupies_all_members(self):
        sim, svc = make_service()
        svc.submit(SolveRequest(rid=1, **BIG))
        sim.run()
        out = svc.outcomes[0]
        assert out.status == "completed"
        assert out.worker == "e150-0+e150-1+e150-2"
        assert out.cores == (3, 1)                 # the card split
        assert svc.metrics.counters["launches.cluster"] == 1
        for dev in svc.pool.devices:
            assert dev.launches == 1
            assert dev.busy_s > 0
            assert not dev.busy and not dev.reserved

    def test_small_tenants_pack_onto_spares(self):
        """A span needing 2 of 3 members leaves the third for small
        work: the small requests must not wait behind the cluster."""
        sim, svc = make_service()
        svc.submit(SolveRequest(rid=1, nx=96, ny=64, iterations=64))
        # 6144 points -> 2 cards; rid 2-4 fit one card each
        for i in range(3):
            svc.submit(SolveRequest(rid=2 + i, **SMALL))
        sim.run()
        by_rid = {o.request.rid: o for o in svc.outcomes}
        assert by_rid[1].worker == "e150-0+e150-1"
        assert all(by_rid[r].status == "completed" for r in (1, 2, 3, 4))
        # small tenants ran on the spare while the span was in flight
        assert by_rid[2].worker == "e150-2"
        assert by_rid[2].start_s < by_rid[1].finish_s

    def test_span_waits_for_members_to_free(self):
        """With every member busy, the span reserves each as it frees
        and launches only when it holds enough."""
        sim, svc = make_service()
        smalls = [SolveRequest(rid=i, **SMALL) for i in range(1, 4)]
        for req in smalls:                       # occupy all 3 members
            svc.submit(req)
        svc.submit(SolveRequest(rid=9, **BIG))   # needs all 3
        sim.run()
        by_rid = {o.request.rid: o for o in svc.outcomes}
        assert by_rid[9].status == "completed"
        small_finish = max(by_rid[r].finish_s for r in (1, 2, 3))
        assert by_rid[9].start_s >= small_finish

    def test_span_hang_retries_on_watchdog(self):
        from repro.serve.pool import ServeHang

        sim, svc = make_service(hangs=(ServeHang(device_id=0,
                                                 launch_index=0),))
        svc.submit(SolveRequest(rid=1, **BIG))
        sim.run()
        out = svc.outcomes[0]
        assert out.status == "completed"         # retried after watchdog
        assert out.retries == 1
        assert svc.metrics.counters["hangs"] == 1
        assert svc.metrics.counters["launches.cluster"] == 2

    def test_span_determinism(self):
        def run_once():
            sim, svc = make_service()
            svc.submit(SolveRequest(rid=1, **BIG))
            for i in range(2):
                svc.submit(SolveRequest(rid=2 + i, **SMALL))
            sim.run()
            return [(o.request.rid, o.status, o.worker, o.finish_s)
                    for o in svc.outcomes]

        assert run_once() == run_once()


def run_span(plans):
    """Serve one ``BIG`` span on three members armed with ``plans``."""
    sim, svc = make_service(chaos=ChaosPlan(ChaosConfig(), tuple(plans)))
    svc.submit(SolveRequest(rid=1, **BIG))
    sim.run()
    return svc


def rows(svc, kind, action):
    return [e for e in svc.metrics.trace.events
            if e.kind == kind and e.action == action]


def health(svc):
    return [dev.health.state for dev in svc.pool.devices]


CLEAN = FaultPlan(seed=0)


class TestSpanFaults:
    def test_core_failure_remaps_and_feeds_breaker(self):
        struck = FaultPlan(seed=0, core_failures=(CoreFailure(0, 2, 3),))
        svc = run_span([CLEAN, struck, CLEAN])
        injected = rows(svc, "core.failure", "injected")
        remapped = rows(svc, "core.failure", "remapped")
        assert [e.where for e in injected] == ["e150-1.core(2,3)"]
        assert [e.where for e in remapped] == ["e150-1.launch0"]
        assert health(svc) == ["healthy", "suspect", "healthy"]
        out = svc.outcomes[0]
        assert out.status == "completed" and out.restarts == 1
        assert svc.metrics.counters["restarts"] == 1
        assert round(out.finish_s, 11) == 0.00111403047

    def test_sdc_counted_per_flip(self):
        def flips(*at_rows):
            return tuple(SolverBitFlip(iteration=0, row=r, col=1, bit=14)
                         for r in at_rows)

        svc = run_span([FaultPlan(seed=0, solver=flips(1, 5)), CLEAN,
                        FaultPlan(seed=0, solver=flips(2))])
        assert svc.metrics.counters["sdc.injected"] == 3
        assert svc.metrics.counters["sdc.detected"] == 3
        injected = rows(svc, "solver.sdc", "injected")
        detected = rows(svc, "solver.sdc", "detected")
        assert [e.detail for e in injected] == ["3flip(s).bit14"]
        assert [e.detail for e in detected] == ["range-check@readback"]
        assert health(svc) == ["suspect", "healthy", "suspect"]
        out = svc.outcomes[0]
        assert out.status == "completed"
        assert out.sdc_detected == 3 and out.retries == 1
        assert svc.metrics.counters["retries"] == 1

    def test_hang_on_two_members_is_one_watchdog(self):
        hang = FaultPlan(seed=0, hangs=(KernelHang(0.0, (0, 0), "compute"),))
        svc = run_span([hang, CLEAN, hang])
        detected = rows(svc, "serve.hang", "detected")
        assert len(detected) == 1
        assert detected[0].detail.endswith("2stall(s)")
        assert svc.metrics.counters["hangs"] == 1
        assert health(svc) == ["suspect", "healthy", "suspect"]
        out = svc.outcomes[0]
        assert out.status == "completed" and out.retries == 1
        assert svc.metrics.counters["retries"] == 1

"""Chaos serving: seeded per-device fault plans, the zero-silent
invariants, the intensity campaign, and the service-level fault
scenarios (all-members-degraded storm, faults striking a canary,
retry/deadline race)."""

import json

import pytest

from repro.faults.plan import CoreFailure, FaultPlan, SolverBitFlip
from repro.serve.chaos import (CHAOS_SCHEMA, ChaosConfig, ChaosPlan,
                               build_chaos, render_chaos_campaign,
                               run_chaos_campaign, summarize_chaos_run,
                               verify_chaos_report)
from repro.serve.health import HealthConfig
from repro.serve.loadgen import LoadGenConfig, run_loadgen
from repro.serve.pool import PoolConfig, ServeHang
from repro.serve.request import AdmissionError, SolveRequest
from repro.serve.scheduler import SchedulerConfig
from repro.serve.service import SolveService
from repro.sim import Simulator


def _chaos_report(seed=0, n=16, intensity=1.0):
    return run_loadgen(
        LoadGenConfig(mode="closed", seed=seed, n_requests=n),
        chaos=ChaosConfig(seed=seed, intensity=intensity),
        solve=False, jobs=1, cache=False)


class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="intensity"):
            ChaosConfig(intensity=-1.0)
        with pytest.raises(ValueError, match="horizon_s"):
            ChaosConfig(horizon_s=0.0)
        with pytest.raises(ValueError, match="launch_horizon"):
            ChaosConfig(launch_horizon=0)
        with pytest.raises(ValueError, match="sdc_per_device"):
            ChaosConfig(sdc_per_device=-1)

    def test_dict_round_trip(self):
        cfg = ChaosConfig(seed=7, intensity=1.5, hangs_per_device=2)
        assert ChaosConfig.from_dict(cfg.to_dict()) == cfg

    def test_scaled_counts(self):
        assert ChaosConfig(intensity=2.0).scaled(3) == 6
        assert ChaosConfig(intensity=0.0).scaled(3) == 0
        assert ChaosConfig(intensity=0.5).scaled(1) == 0   # rounds down


class TestBuildChaos:
    def test_pure_function_of_inputs(self):
        cfg = ChaosConfig(seed=3)
        assert build_chaos(cfg, 2).plans == build_chaos(cfg, 2).plans
        assert build_chaos(cfg, 2).plans \
            != build_chaos(ChaosConfig(seed=4), 2).plans

    def test_per_device_plans_differ(self):
        plan = build_chaos(ChaosConfig(seed=0), 2)
        assert len(plan.plans) == 2
        assert plan.plans[0] != plan.plans[1]

    def test_zero_intensity_is_fault_free(self):
        plan = build_chaos(ChaosConfig(seed=0, intensity=0.0), 2)
        assert plan.n_faults == 0

    def test_intensity_scales_fault_count(self):
        one = build_chaos(ChaosConfig(seed=0, intensity=1.0), 2)
        two = build_chaos(ChaosConfig(seed=0, intensity=2.0), 2)
        assert two.n_faults > one.n_faults
        assert "fault(s)" in two.describe()


class TestVerifyChaosReport:
    def test_clean_chaos_run_has_no_violations(self):
        report = _chaos_report()
        assert verify_chaos_report(report) == []
        # The run actually experienced faults — the check is not vacuous.
        assert report.metrics.counters.get("sdc.injected", 0) > 0

    def test_detects_silent_corruption(self):
        report = _chaos_report()
        report.metrics.counters["sdc.injected"] += 1
        (violation,) = [v for v in verify_chaos_report(report)
                        if "silent corruption" in v]
        assert "injected" in violation

    def test_detects_duplicate_outcomes(self):
        report = _chaos_report()
        report.outcomes.append(report.outcomes[0])
        assert any("duplicate" in v for v in verify_chaos_report(report))

    def test_detects_untyped_shed_counter_drift(self):
        report = _chaos_report()
        report.metrics.counters["shed"] = \
            report.metrics.counters.get("shed", 0) + 1
        assert any("shed counter" in v for v in verify_chaos_report(report))

    def test_summary_shape(self):
        report = _chaos_report()
        s = summarize_chaos_run(report, 1.0)
        assert s["intensity"] == 1.0
        assert len(s["report_sha"]) == 16
        assert s["violations"] == []
        assert s["submitted"] == len(report.outcomes)
        assert "mttr_mean_s" in s["resilience"]


class TestCampaign:
    @staticmethod
    def _doc():
        return run_chaos_campaign(
            LoadGenConfig(mode="closed", seed=0, n_requests=12),
            chaos=ChaosConfig(seed=0), intensities=(1.0,),
            jobs=1, cache=False)

    def test_document_shape_and_invariants(self):
        doc = self._doc()
        assert doc["schema"] == CHAOS_SCHEMA
        assert doc["violations_total"] == 0
        assert doc["baseline"]["intensity"] == 0.0
        assert [r["intensity"] for r in doc["runs"]] == [1.0]
        for run in [doc["baseline"], *doc["runs"]]:
            assert run["p99_inflation_ok"]

    def test_repeat_campaigns_byte_identical(self):
        a = json.dumps(self._doc(), sort_keys=True)
        b = json.dumps(self._doc(), sort_keys=True)
        assert a == b

    def test_p99_bound_enforced(self):
        doc = run_chaos_campaign(
            LoadGenConfig(mode="closed", seed=0, n_requests=12),
            chaos=ChaosConfig(seed=0), intensities=(1.0,),
            p99_inflation_limit=1.0, jobs=1, cache=False)
        assert doc["violations_total"] >= 1
        assert any("p99 inflation" in v
                   for r in doc["runs"] for v in r["violations"])

    def test_render_lists_every_level(self):
        text = render_chaos_campaign(self._doc())
        assert "intensity" in text and "invariants" in text
        assert "OK" in text


class TestAllMembersDegradedStorm:
    """S3: every device quarantined at once; queue_full sheds are loud;
    the pool recovers through canary reintegration and serves again."""

    N = 24
    GAP = 5e-4

    def _run(self):
        sim = Simulator()
        svc = SolveService(
            sim,
            scheduler=SchedulerConfig(queue_capacity=4),
            pool=PoolConfig(n_devices=2, n_cpu_workers=1, max_retries=0),
            hangs=(ServeHang(0, 0), ServeHang(1, 0)),
            health=HealthConfig(window_s=1.0, suspect_after=1,
                                quarantine_after=1, canary_passes=1,
                                reintegrate_successes=1,
                                probe_delay_s=5e-3))
        shed_rids = []

        def driver():
            for rid in range(self.N):
                try:
                    svc.submit(SolveRequest(rid=rid, nx=32, ny=32))
                except AdmissionError as exc:
                    assert exc.reason == "queue_full"
                    shed_rids.append(rid)
                yield sim.timeout(self.GAP)

        sim.process(driver(), name="storm.driver")
        sim.run()
        return svc, shed_rids

    def test_storm_and_recovery(self):
        svc, shed_rids = self._run()
        c = svc.metrics.counters
        # Both members' first launch wedged: the one-strike breaker
        # quarantines the whole device pool.
        assert c["hangs"] == 2
        assert c["health.healthy->quarantined"] == 2
        # With the devices out, the bounded queue overflows — and every
        # overflow is a reported, typed shed, not a silent drop.
        assert shed_rids
        assert c["shed.queue_full"] == len(shed_rids)
        assert len(svc.outcomes) == self.N
        # Canary probes reintegrate both members...
        assert c["health.quarantined->reintegrating"] == 2
        assert c["health.reintegrating->healthy"] >= 1
        for dev in svc.pool.devices:
            assert dev.health.state in ("healthy", "reintegrating")
        # ...and they serve tenant work again afterwards (their launch 0
        # hung, so any device completion proves post-recovery service).
        device_completions = [
            o for o in svc.outcomes if o.status == "completed"
            and o.worker and o.worker.startswith("e150")]
        assert device_completions
        # Full accounting: completed + degraded + shed == submitted.
        statuses = {"completed": 0, "degraded": 0, "shed": 0}
        for o in svc.outcomes:
            statuses[o.status] += 1
        assert sum(statuses.values()) == self.N
        assert statuses["degraded"] >= 1          # hang victims on the CPU


class TestCanaryFaults:
    """A canary is a one-request launch: ``ServeHang(0, 0)`` and a
    one-strike breaker quarantine e150-0, so its launch 1 is the first
    canary, and a fault armed on that index strikes the probe exactly as
    it would strike a tenant launch — never silently."""

    FLIP = SolverBitFlip(iteration=1, row=0, col=0, bit=14)
    DEATH = CoreFailure(iteration=1, iy=0, ix=0)

    def _run(self, hangs=(ServeHang(0, 0),), solver=(), core_failures=()):
        sim = Simulator()
        e150_0 = FaultPlan(seed=0, solver=solver,
                           core_failures=core_failures)
        svc = SolveService(
            sim, pool=PoolConfig(n_devices=2, n_cpu_workers=1),
            hangs=hangs,
            chaos=ChaosPlan(ChaosConfig(), (e150_0, FaultPlan(seed=0))),
            health=HealthConfig(window_s=1.0, suspect_after=1,
                                quarantine_after=1, canary_passes=1,
                                reintegrate_successes=1, probe_delay_s=0.0))
        for rid in range(2):
            svc.submit(SolveRequest(rid=rid, nx=32, ny=32))
        sim.run()
        return svc

    @staticmethod
    def _rows(svc, kind):
        return [(e.where, e.action, e.detail)
                for e in svc.metrics.trace.events if e.kind == kind]

    def test_core_failure_fails_the_probe(self):
        svc = self._run(core_failures=(self.DEATH,))
        assert self._rows(svc, "core.failure") == [
            ("e150-0.core(0,0)", "injected", "launch1"),
            ("e150-0.launch1", "remapped", "checkpoint-restart.1core(s)-out")]
        assert self._rows(svc, "serve.canary") == [
            ("e150-0.launch1", "failed", "core_failure"),
            ("e150-0.launch2", "passed", "1/1")]
        assert svc.pool.devices[0].failed_cores == 1
        assert svc.metrics.counters["chaos.core_failure"] == 1

    def test_flip_on_hung_tenant_launch_is_masked(self):
        svc = self._run(solver=(SolverBitFlip(0, 0, 0, 14),))
        assert self._rows(svc, "solver.sdc") == [
            ("e150-0.launch0", "masked", "1flip(s).hung")]
        c = svc.metrics.counters
        assert c["sdc.masked"] == 1 and "sdc.injected" not in c

    def test_flip_on_hung_canary_is_masked(self):
        svc = self._run(hangs=(ServeHang(0, 0), ServeHang(0, 1)),
                        solver=(self.FLIP,))
        assert self._rows(svc, "solver.sdc") == [
            ("e150-0.launch1", "masked", "1flip(s).hung")]
        assert self._rows(svc, "serve.canary")[0] == (
            "e150-0.launch1", "failed", "hang")
        assert svc.metrics.counters["sdc.masked"] == 1

    @pytest.mark.parametrize("why,fault", [
        ("core_failure", dict(core_failures=(DEATH,))),
        ("sdc", dict(solver=(FLIP,))),
        ("hang", dict(hangs=(ServeHang(0, 0), ServeHang(0, 1))))])
    def test_struck_canary_is_one_breaker_fault(self, why, fault):
        svc = self._run(**fault)
        assert self._rows(svc, "serve.canary")[0] == (
            "e150-0.launch1", "failed", why)
        # one fault for the hung launch 0, one for the struck canary
        assert svc.pool.devices[0].health.total_faults == 2

    @pytest.mark.parametrize("fault", [
        dict(core_failures=(DEATH,)),
        dict(hangs=(ServeHang(0, 0), ServeHang(0, 1)))],
        ids=["core_failure", "hang"])
    def test_struck_canary_adds_no_fault_latency(self, fault):
        """No tenant waits on a canary, so what strikes it is no fault
        latency: only tenant launch 0's hang is, as with a clean probe."""
        clean = self._run().metrics.fault_s
        assert set(clean) == {"hang", "retry_backoff"}
        assert self._run(**fault).metrics.fault_s == clean

    def test_canary_core_failure_spares_tenant_rid0(self):
        svc = self._run(core_failures=(self.DEATH,))
        (tenant,) = [o for o in svc.outcomes if o.request.rid == 0]
        (struck_at,) = {e.t for e in svc.metrics.trace.events
                        if e.kind == "core.failure"}
        # the canary (also rid 0) failed while tenant rid 0 was live
        assert tenant.finish_s > struck_at
        assert tenant.status == "completed" and tenant.restarts == 0


class TestRetryDeadlineRace:
    """S4: the deadline expires while the retry is in flight on the
    second member — exactly one terminal outcome, the launch abandoned
    loudly."""

    def _run(self):
        sim = Simulator()
        pool = PoolConfig(n_devices=2, n_cpu_workers=0, max_retries=1)
        svc = SolveService(sim, pool=pool, hangs=(ServeHang(0, 0),))
        req = SolveRequest(rid=0, nx=64, ny=64)
        exp = svc.best_case_service_s(req)
        # Attempt 1 on e150-0 wedges: watchdog fires at factor*exp, the
        # retry backs off, then runs on e150-1 for another exp.  Put the
        # deadline halfway through that retry flight.
        deadline = (pool.watchdog_factor * exp + pool.retry_backoff_s
                    + 0.5 * exp)
        done = svc.submit(SolveRequest(rid=0, nx=64, ny=64,
                                       deadline_s=deadline))
        sim.run()
        return svc, done

    def test_exactly_one_terminal_outcome(self):
        svc, done = self._run()
        assert not done.ok
        assert done.value.reason == "deadline_expired"
        (out,) = svc.outcomes
        assert out.status == "shed"
        assert out.shed_reason == "deadline_expired"
        assert out.retries == 1
        assert svc.metrics.counters["shed.deadline_expired"] == 1

    def test_abandoned_launch_is_accounted(self):
        svc, _done = self._run()
        assert svc.metrics.counters["abandoned_launches"] == 1
        text = svc.metrics.trace.to_text()
        assert "retry-finished-after-deadline" in text
        assert "expired-mid-retry" in text
        # The wasted retry really ran on the second member.
        assert svc.pool.devices[1].launches == 1

"""Engine contract: ordering, -j1 == -jN, crash isolation, job counts."""

import os
from dataclasses import dataclass

import pytest

from repro.parallel import (JobKind, JobSpec, SweepJobError, outcomes_trace,
                            register_kind, render_job_report, resolve_jobs,
                            run_jobs, set_default_jobs, summary_line,
                            sweep_results)
from repro.streaming import StreamConfig


@dataclass(frozen=True)
class ToyConfig:
    """Config for the test-only job kind below."""

    value: int = 0
    mode: str = "ok"        #: ok | raise | exit


def _run_toy(config, seed):
    if config.mode == "raise":
        raise ValueError(f"toy job {config.value} asked to fail")
    if config.mode == "exit":    # hard worker death (no exception path)
        os._exit(17)
    return ({"square": config.value * config.value, "seed": seed},
            {"events": config.value, "sim_now": float(config.value)})


def _toy_from_payload(config, seed, payload):
    return payload["square"]


# replace=True so pytest re-imports (e.g. --forked, reruns) don't clash
register_kind(JobKind("_test_toy", _run_toy, _toy_from_payload),
              replace=True)


def _toy_specs(values, mode="ok"):
    return [JobSpec("_test_toy", ToyConfig(value=v, mode=mode), seed=i)
            for i, v in enumerate(values)]


class TestOrdering:
    def test_results_in_submission_order_sequential(self):
        outcomes = run_jobs(_toy_specs([5, 1, 4, 2]), jobs=1)
        assert [o.result for o in outcomes] == [25, 1, 16, 4]
        assert [o.record.index for o in outcomes] == [0, 1, 2, 3]

    def test_results_in_submission_order_parallel(self):
        outcomes = run_jobs(_toy_specs([5, 1, 4, 2, 9, 3]), jobs=3)
        assert [o.result for o in outcomes] == [25, 1, 16, 4, 81, 9]
        assert all(o.record.worker is not None for o in outcomes)

    def test_sequential_runs_in_process(self):
        outcomes = run_jobs(_toy_specs([2]), jobs=1)
        assert outcomes[0].record.worker is None

    def test_sequential_leaves_environ_untouched(self):
        before = dict(os.environ)
        run_jobs(_toy_specs([2, 3]), jobs=1)
        assert dict(os.environ) == before


class TestDeterminism:
    def test_parallel_matches_sequential_stream_jobs(self):
        configs = [StreamConfig(rows=32, row_elems=256, page_size=ps,
                                replication=r)
                   for ps in (None, 2048) for r in (0, 4)]
        specs = [JobSpec("stream", cfg) for cfg in configs]
        ref = run_jobs(specs, jobs=1)
        got = run_jobs(specs, jobs=3)
        for a, b in zip(ref, got):
            assert b.result.runtime_s == a.result.runtime_s
            assert b.result.read_requests == a.result.read_requests
            assert b.result.bytes_written == a.result.bytes_written
            assert b.record.obs == a.record.obs  # events + sim_now exact

    def test_oversubscribed_jobs_still_identical(self):
        # explicit -j beyond cpu_count is honoured; results can't change
        specs = _toy_specs(list(range(6)))
        ref = [o.result for o in run_jobs(specs, jobs=1)]
        got = [o.result for o in run_jobs(specs, jobs=6)]
        assert got == ref


class TestFailureIsolation:
    def test_exception_isolates_one_job(self):
        specs = _toy_specs([1, 2, 3])
        bad = JobSpec("_test_toy", ToyConfig(value=7, mode="raise"))
        outcomes = run_jobs(specs[:2] + [bad] + specs[2:], jobs=2)
        assert [o.record.ok for o in outcomes] == [True, True, False, True]
        failed = outcomes[2]
        assert failed.result is None
        assert "ValueError" in failed.record.error
        assert "toy job 7 asked to fail" in failed.record.error

    def test_worker_death_isolates_one_job(self):
        specs = _toy_specs([1, 2])
        bad = JobSpec("_test_toy", ToyConfig(value=8, mode="exit"))
        outcomes = run_jobs([specs[0], bad, specs[1]], jobs=2)
        assert [o.record.ok for o in outcomes] == [True, False, True]
        assert "exit code 17" in outcomes[1].record.error
        assert [o.result for o in outcomes] == [1, None, 4]

    def test_strict_sweep_raises_with_job_names(self):
        bad = JobSpec("_test_toy", ToyConfig(value=7, mode="raise"), seed=3)
        with pytest.raises(SweepJobError) as err:
            sweep_results(_toy_specs([1]) + [bad], jobs=1)
        assert "seed 3" in str(err.value)
        assert len(err.value.failures) == 1

    def test_non_strict_sweep_returns_none_for_failures(self):
        bad = JobSpec("_test_toy", ToyConfig(value=7, mode="raise"))
        results = sweep_results(_toy_specs([3]) + [bad], jobs=1,
                                strict=False)
        assert results == [9, None]

    def test_failures_use_fault_plane_vocabulary(self):
        bad = JobSpec("_test_toy", ToyConfig(value=7, mode="raise"))
        outcomes = run_jobs([bad] + _toy_specs([2]), jobs=1)
        trace = outcomes_trace(outcomes)
        assert len(trace) == 1
        event = trace.events[0]
        assert event.kind == "sweep.job"
        assert event.action == "isolated"
        assert event.t == -1.0


class TestJobResolution:
    def test_default_is_sequential(self):
        assert resolve_jobs(None) == 1

    def test_explicit_value(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_session_default(self):
        set_default_jobs(5)
        try:
            assert resolve_jobs(None) == 5
            assert resolve_jobs(2) == 2  # explicit wins
        finally:
            set_default_jobs(None)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4


class TestObservability:
    def test_report_and_summary_render(self):
        outcomes = run_jobs(_toy_specs([2, 3]), jobs=2)
        report = render_job_report(outcomes)
        assert "_test_toy" in report and "ok" in report
        line = summary_line(outcomes, 0.5, jobs=2)
        assert "n=2" in line and "jobs=2" in line and "failures=0" in line

    def test_obs_identical_across_j(self):
        specs = _toy_specs([3, 5])
        seq = run_jobs(specs, jobs=1)
        par = run_jobs(specs, jobs=2)
        assert [o.record.obs for o in seq] == [o.record.obs for o in par]

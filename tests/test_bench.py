"""Tier-1 tests for the ``repro bench`` harness plumbing.

Fast by construction: they exercise the runner/schema with the
cheapest micro benchmark only, and the baseline comparator with
hand-built documents.  The full suite execution lives in
``benchmarks/perf/`` (tier 2).
"""

import json

import pytest

from repro import bench
from repro.cli import main


def _doc(results, smoke=True):
    return {"schema": bench.SCHEMA, "date": "2026-01-01", "smoke": smoke,
            "reps": 1, "python": "3.x",
            "results": results}


def _res(name="engine_events", value=100.0, higher=True, inv=None,
         metric="events_per_sec"):
    return {"name": name, "kind": "micro", "metric": metric,
            "value": value, "unit": "1/s", "higher_is_better": higher,
            "invariants": inv if inv is not None else {"events": 42}}


class TestCompare:
    def test_identical_passes(self):
        doc = _doc([_res()])
        assert bench.compare(doc, doc) == []

    def test_throughput_drop_within_tolerance_passes(self):
        base = _doc([_res(value=100.0)])
        cur = _doc([_res(value=85.0)])
        assert bench.compare(cur, base, tolerance=0.20) == []

    def test_throughput_drop_beyond_tolerance_fails(self):
        base = _doc([_res(value=100.0)])
        cur = _doc([_res(value=75.0)])
        failures = bench.compare(cur, base, tolerance=0.20)
        assert len(failures) == 1 and "regressed" in failures[0]

    def test_throughput_gain_always_passes(self):
        base = _doc([_res(value=100.0)])
        cur = _doc([_res(value=500.0)])
        assert bench.compare(cur, base) == []

    def test_wall_time_direction_is_lower_better(self):
        base = _doc([_res(name="jacobi_single", metric="wall_s",
                          value=1.0, higher=False)])
        ok = _doc([_res(name="jacobi_single", metric="wall_s",
                        value=1.15, higher=False)])
        bad = _doc([_res(name="jacobi_single", metric="wall_s",
                         value=1.5, higher=False)])
        assert bench.compare(ok, base, tolerance=0.20) == []
        assert bench.compare(bad, base, tolerance=0.20)

    def test_invariant_drift_fails_regardless_of_perf(self):
        base = _doc([_res(inv={"events": 42, "sim_now": 1.0})])
        cur = _doc([_res(value=1e9, inv={"events": 43, "sim_now": 1.0})])
        failures = bench.compare(cur, base)
        assert len(failures) == 1 and "invariants" in failures[0]

    def test_missing_benchmark_fails(self):
        base = _doc([_res(), _res(name="cb_roundtrip")])
        cur = _doc([_res()])
        failures = bench.compare(cur, base)
        assert any("missing" in f for f in failures)

    def test_extra_benchmark_in_current_is_fine(self):
        base = _doc([_res()])
        cur = _doc([_res(), _res(name="new_bench")])
        assert bench.compare(cur, base) == []

    def test_extra_benchmark_is_reported_as_note(self):
        base = _doc([_res()])
        cur = _doc([_res(), _res(name="new_bench")])
        notes = []
        assert bench.compare(cur, base, notes=notes) == []
        assert len(notes) == 1
        assert "new_bench" in notes[0] and "new benchmark" in notes[0]

    def test_no_notes_when_benchmark_sets_match(self):
        doc = _doc([_res()])
        notes = []
        assert bench.compare(doc, doc, notes=notes) == []
        assert notes == []

    def test_notes_do_not_mask_real_failures(self):
        base = _doc([_res(value=100.0)])
        cur = _doc([_res(value=50.0), _res(name="new_bench")])
        notes = []
        failures = bench.compare(cur, base, notes=notes)
        assert len(failures) == 1 and "regressed" in failures[0]
        assert len(notes) == 1 and "new_bench" in notes[0]

    def test_smoke_vs_full_mismatch_fails(self):
        base = _doc([_res()], smoke=True)
        cur = _doc([_res()], smoke=False)
        assert bench.compare(cur, base)

    def test_schema_mismatch_fails(self):
        base = _doc([_res()])
        cur = dict(_doc([_res()]), schema="something-else/9")
        assert bench.compare(cur, base)


class TestRunner:
    def test_engine_micro_runs_and_is_deterministic(self):
        doc = bench.run_benchmarks(smoke=True, reps=2,
                                   only=["engine_events"])
        assert doc["schema"] == bench.SCHEMA
        (res,) = doc["results"]
        assert res["value"] > 0
        assert res["invariants"]["events"] == 20_002

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            bench.run_benchmarks(only=["nope"])

    def test_inconsistent_invariants_raise(self, monkeypatch):
        calls = {"n": 0}

        def flaky(smoke):
            calls["n"] += 1
            return (lambda: None), (lambda _: {"events": calls["n"]})

        monkeypatch.setitem(bench.BENCHMARKS, "flaky",
                            (flaky, "x_per_sec", "events"))
        with pytest.raises(bench.BenchError, match="invariants changed"):
            bench.run_benchmarks(reps=2, only=["flaky"])

    def test_render_mentions_every_benchmark(self):
        doc = bench.run_benchmarks(smoke=True, reps=1,
                                   only=["engine_events"])
        text = bench.render(doc)
        assert "engine_events" in text and "events_per_sec" in text

    def test_default_report_path_is_datestamped(self):
        assert bench.default_report_path("2026-08-06") == \
            "BENCH_2026-08-06.json"


class TestSchemaAdditions:
    """PR: per-rep walls + host cpu_count, backward-compatible schema."""

    def test_doc_records_host_and_timing_mode(self):
        doc = bench.run_benchmarks(smoke=True, reps=1,
                                   only=["engine_events"])
        import os
        assert doc["cpu_count"] == os.cpu_count()
        assert doc["timings"] == "sequential"
        assert doc["invariant_prepass"] is None   # sequential run

    def test_results_carry_per_rep_walls(self):
        doc = bench.run_benchmarks(smoke=True, reps=3,
                                   only=["jacobi_single"])
        (res,) = doc["results"]
        assert len(res["rep_walls"]) == 3
        assert all(w > 0 for w in res["rep_walls"])
        # wall_s benchmarks keep the best (minimum) rep as headline
        assert res["value"] == min(res["rep_walls"])

    def test_old_baseline_without_new_keys_still_compares(self):
        # a pre-PR baseline has neither rep_walls nor cpu_count; the
        # comparator must accept it unchanged.
        doc = bench.run_benchmarks(smoke=True, reps=1,
                                   only=["engine_events"])
        old = _doc([dict(doc["results"][0])])
        old["results"][0].pop("rep_walls", None)
        assert bench.compare(doc, old) == []

    def test_parallel_prepass_checks_invariants(self):
        # jobs=2 runs the macro invariant prepass through the sweep
        # engine; timings stay sequential and the doc says so.
        doc = bench.run_benchmarks(smoke=True, reps=1,
                                   only=["engine_events", "jacobi_single"],
                                   jobs=2)
        assert doc["timings"] == "sequential"
        pre = doc["invariant_prepass"]
        assert pre is not None and pre["jobs"] == 2
        assert "jacobi_single" in pre["benchmarks"]
        # micro benchmarks are not part of the prepass
        assert "engine_events" not in pre["benchmarks"]


class TestCli:
    def test_bench_command_writes_and_checks_a_report(self, capsys,
                                                      tmp_path):
        argv = ["bench", "--smoke", "--only", "engine_events",
                "--reps", "1"]
        first = tmp_path / "first.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert "engine_events" in capsys.readouterr().out
        assert main(argv + ["--out", str(tmp_path / "second.json"),
                            "--check", "--baseline", str(first),
                            "--tolerance", "1000"]) == 0
        assert "OK: no regressions" in capsys.readouterr().out
        (res,) = json.loads(first.read_text())["results"]
        assert res["value"] == \
            res["invariants"]["events"] / res["rep_walls"][0]

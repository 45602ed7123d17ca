"""Mixed-workload serving: repro.ops request kinds through repro.serve.

The workload dimension must not disturb any existing contract: default
populations stay jacobi-only and bit-identical to the pre-mixing
generator, batches never mix kinds, per-kind latency telemetry is
additive on schema repro-serve/2, and mixed traces record/replay
byte-identically.
"""

import dataclasses

import pytest

from repro.ops import OPS, get_op
from repro.serve import (SolveRequest, WORKLOADS, replay_trace,
                         run_loadgen, solve_key, synthesize_requests,
                         write_trace)
from repro.serve.loadgen import LoadGenConfig
from repro.serve.pool import (PoolConfig, cpu_service_time,
                              device_service_time, launch_overhead_s)


def _cfg(**kw):
    kw.setdefault("seed", 7)
    kw.setdefault("n_requests", 24)
    kw.setdefault("workloads", tuple(WORKLOADS))
    return LoadGenConfig(**kw)


class TestRequestWorkloadField:
    def test_default_is_jacobi(self):
        assert SolveRequest(rid=0, nx=32, ny=32).workload == "jacobi"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            SolveRequest(rid=0, nx=32, ny=32, workload="conv2d")

    def test_fft_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            SolveRequest(rid=0, nx=48, ny=8, workload="fft")
        SolveRequest(rid=0, nx=64, ny=8, workload="fft")

    def test_stencil9_requires_tile_multiple(self):
        with pytest.raises(ValueError, match="multiple of 32"):
            SolveRequest(rid=0, nx=40, ny=8, workload="stencil9")

    def test_tolerance_is_jacobi_only(self):
        with pytest.raises(ValueError, match="jacobi-only"):
            SolveRequest(rid=0, nx=64, ny=64, workload="matmul",
                         iterations=4, tolerance=1e-3)

    def test_dict_round_trip_keeps_workload(self):
        req = SolveRequest(rid=3, nx=64, ny=16, workload="fft")
        assert SolveRequest.from_dict(req.to_dict()) == req

    def test_old_trace_rows_without_workload_load_as_jacobi(self):
        row = SolveRequest(rid=1, nx=32, ny=32).to_dict()
        row.pop("workload", None)
        assert SolveRequest.from_dict(row).workload == "jacobi"


class TestSolveKey:
    def test_jacobi_keys_keep_historical_format(self):
        assert solve_key("device", 64, 32, 8) == "device:32x64:i8"

    def test_op_keys_are_prefixed(self):
        assert solve_key("device", 64, 32, 8, "fft") == \
            "fft:device:32x64:i8"


class TestServiceTimes:
    @pytest.mark.parametrize("workload,nx,ny", [
        ("matmul", 64, 64), ("fft", 64, 16), ("stencil9", 64, 64)])
    def test_op_service_times_positive(self, workload, nx, ny):
        req = SolveRequest(rid=0, nx=nx, ny=ny, iterations=4,
                           workload=workload)
        assert device_service_time(req, 2, 2) > 0
        assert cpu_service_time(req, 8) > 0
        assert launch_overhead_s([req]) > 0

    def test_repeats_scale_device_time(self):
        one = SolveRequest(rid=0, nx=64, ny=16, iterations=1,
                           workload="fft")
        four = SolveRequest(rid=0, nx=64, ny=16, iterations=4,
                            workload="fft")
        t1 = device_service_time(one, 1, 1)
        assert device_service_time(four, 1, 1) == pytest.approx(4 * t1)


def snap(workload, nx):
    return get_op(workload).snap_nx(nx)


class TestSnapSize:
    def test_fft_snaps_down_to_power_of_two(self):
        assert snap("fft", 48) == 32
        assert snap("fft", 64) == 64
        assert snap("fft", 5) == 4    # floor of the snap is 4

    def test_stencil9_snaps_up_to_tile_multiple(self):
        assert snap("stencil9", 48) == 64
        assert snap("stencil9", 32) == 32

    def test_jacobi_and_matmul_unchanged(self):
        assert snap("matmul", 48) == 48
        # jacobi has no OpSpec; the generator leaves its widths alone
        reqs = synthesize_requests(_cfg(workloads=("jacobi",), sizes=(48,)),
                                   PoolConfig())
        assert {r.nx for r in reqs} == {48}


class TestOpTableDrift:
    """``WORKLOADS`` and ``SolveRequest``'s kind checks stay literals in
    :mod:`repro.serve`, outside the op registry, so ``import repro.serve``
    does not load the op kernels; these tests keep the two from
    drifting apart."""

    def test_workloads_are_jacobi_plus_the_registered_ops(self):
        assert set(WORKLOADS) == {"jacobi", *OPS}

    @pytest.mark.parametrize("workload", sorted(OPS))
    def test_request_accepts_every_snapped_width(self, workload):
        spec = get_op(workload)
        for nx in range(3, 301):
            snapped = spec.snap_nx(nx)
            SolveRequest(rid=0, nx=snapped, ny=8, iterations=2,
                         workload=workload)
            spec.serve_problem(snapped, 8, 2)


class TestPopulation:
    def test_default_population_is_jacobi_only(self):
        reqs = synthesize_requests(LoadGenConfig(seed=0, n_requests=32),
                                   PoolConfig())
        assert all(r.workload == "jacobi" for r in reqs)

    def test_default_population_unchanged_by_the_mixing_machinery(self):
        # single-kind configs must not consume the workload RNG stream,
        # so pre-mixing traces stay bit-identical
        base = synthesize_requests(LoadGenConfig(seed=0, n_requests=32),
                                   PoolConfig())
        jac = synthesize_requests(
            LoadGenConfig(seed=0, n_requests=32, workloads=("jacobi",)),
            PoolConfig())
        assert base == jac

    def test_mixed_population_draws_every_kind(self):
        reqs = synthesize_requests(_cfg(n_requests=64), PoolConfig())
        kinds = {r.workload for r in reqs}
        assert kinds == set(WORKLOADS)
        # every synthesized request satisfies its kind's constraint
        for r in reqs:
            dataclasses.replace(r)   # __post_init__ re-validates

    def test_workloads_validated(self):
        with pytest.raises(ValueError, match="workload"):
            LoadGenConfig(workloads=("jacobi", "conv2d"))
        with pytest.raises(ValueError):
            LoadGenConfig(workloads=())

    def test_config_round_trip_keeps_workloads(self):
        cfg = _cfg(workloads=("fft", "matmul"))
        assert LoadGenConfig.from_dict(cfg.to_dict()) == cfg


class TestMixedServing:
    def test_batches_never_mix_kinds(self):
        report = run_loadgen(_cfg(n_requests=48), solve=False)
        by_batch = {}
        for o in report.outcomes:
            if o.status != "shed" and o.batch_id is not None:
                by_batch.setdefault(o.batch_id, set()).add(
                    o.request.workload)
        assert by_batch, "expected at least one batched launch"
        for batch_id, kinds in by_batch.items():
            assert len(kinds) == 1, (
                f"batch {batch_id} mixed workload kinds {sorted(kinds)}")

    def test_per_kind_latency_telemetry(self):
        report = run_loadgen(_cfg(n_requests=48), solve=False)
        doc = report.to_json()
        assert doc["schema"] == "repro-serve/2"
        by_kind = doc["latency_by_workload"]
        assert set(by_kind) == {o.request.workload
                                for o in report.completed()}
        for kind, summaries in by_kind.items():
            for metric in ("wait_s", "service_s", "total_s"):
                assert summaries[metric]["n"] > 0
                assert summaries[metric]["p50"] <= \
                    summaries[metric]["p99"]
        total = sum(s["total_s"]["n"] for s in by_kind.values())
        assert total == doc["requests"]["completed"]

    def test_outcome_rows_carry_workload(self):
        report = run_loadgen(_cfg(), solve=False)
        doc = report.to_json()
        for row in doc["outcomes"]:
            assert row["workload"] in WORKLOADS

    def test_solve_postpass_fingerprints_op_kinds(self):
        report = run_loadgen(_cfg(), solve=True, jobs=1, cache=False)
        op_keys = [k for k in report.solves
                   if k.split(":")[0] in ("matmul", "fft", "stencil9")]
        assert op_keys, "expected op-workload solve keys in the report"
        for key in op_keys:
            payload = report.solves[key]
            assert payload["workload"] == key.split(":")[0]
            assert len(payload["grid_sha"]) == 64

    def test_mixed_report_render_mentions_kinds(self):
        from repro.serve import render_serve_report
        text = render_serve_report(run_loadgen(_cfg(), solve=False))
        assert "latency by workload" in text

    def test_mixed_record_replay_byte_identical(self, tmp_path):
        trace = str(tmp_path / "mixed.jsonl")
        report = run_loadgen(_cfg(), solve=True, jobs=1, cache=False)
        write_trace(report, trace)
        replayed = replay_trace(trace, solve=True, jobs=1, cache=False)
        assert replayed.to_json_text() == report.to_json_text()

    def test_repeat_mixed_runs_byte_identical(self):
        a = run_loadgen(_cfg(), solve=False)
        b = run_loadgen(_cfg(), solve=False)
        assert a.to_json_text() == b.to_json_text()

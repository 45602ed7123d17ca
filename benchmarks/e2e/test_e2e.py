"""Smoke test of the end-to-end benchmark at tiny sizes (tier 2).

    PYTHONPATH=src python -m pytest benchmarks/e2e -m tier2

Every workload runs in-process through the same workload table and
harness as the benchmark of record, with the table's tiny parameters.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import harness
from workloads import WORKLOADS

SPEC_PATH = os.path.join(harness.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def docs():
    """name -> (untraced doc, traced doc) at the tiny size."""
    harness.use_checkout_src()
    return {name: tuple(harness.measure(name, seed=3, seconds=0.0,
                                        trace=trace, params=tiny)
                        for trace in (False, True))
            for name, (_cls, _full, tiny) in WORKLOADS.items()}


def test_spec_matches_harness(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {"setup_s": "s", **harness.END_TO_END}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.PER_LAYER


def test_emitted_metric_names(docs, spec):
    untraced = {m["name"] for m in spec["end_to_end"]} - {"setup_s"}
    traced = {m["name"] for m in spec["per_layer"]}
    for name, (plain, profiled) in docs.items():
        assert set(plain["metrics"]) == untraced, name
        assert set(profiled["metrics"]) == traced, name
        assert all(m["value"] > 0 for m in plain["metrics"].values()), name


def test_checks_pass_and_invariants_repeat(docs):
    for name, pair in docs.items():
        for doc in pair:
            assert doc["reps"] >= 2, name
            assert doc["errors"] == [], (name, doc["errors"])
            assert doc["failed"] == 0, name


def test_trace_changes_no_invariant(docs):
    for name, (plain, profiled) in docs.items():
        assert plain["invariants"] == profiled["invariants"], name
        assert plain["config_hash"] == profiled["config_hash"], name


def test_compare_refuses_doctored_config_hash(docs, tmp_path, capsys):
    result = {"schema": harness.SCHEMA,
              "workloads": {n: pair[0] for n, pair in docs.items()}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result))
    assert compare.main([str(a), str(a)]) != 2
    result["workloads"]["jacobi_108"]["config_hash"] = "0" * 16
    b.write_text(json.dumps(result))
    assert compare.main([str(a), str(b)]) == 2
    assert "REFUSED: config hash" in capsys.readouterr().out


def test_run_fails_without_the_repository(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, run.py must
    exit non-zero without printing a result."""
    dst = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(harness.HERE, dst,
                    ignore=shutil.ignore_patterns("__pycache__", "out",
                                                  "results"))
    shutil.copy(SPEC_PATH, tmp_path)
    proc = subprocess.run(
        [sys.executable, str(dst / "run.py"), "--workload", "jacobi_108",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Satellite guard: workers must run under the *planned* environment.

``REPRO_LINT`` decides whether a lint finding warns or raises; a worker
silently inheriting a drifted value would run a different mode than the
``-j 1`` reference.  The snapshot in :class:`JobSpec` plus the assert in
``execute_spec`` make that impossible — these tests pin the behaviour.
"""

import os
from dataclasses import dataclass

import pytest

from repro.parallel import (EnvDriftError, JobKind, JobSpec, SNAPSHOT_KEYS,
                            register_kind, run_jobs, snapshot_env)
from repro.parallel.jobs import _assert_env
from repro.streaming import StreamConfig


@dataclass(frozen=True)
class EnvProbe:
    """Config for a job kind that reports the env it actually ran under."""

    token: int = 0


def _run_probe(config, seed):
    return ({"lint": os.environ.get("REPRO_LINT")}, {})


register_kind(JobKind("_test_envprobe", _run_probe,
                      lambda cfg, seed, payload: payload["lint"]),
              replace=True)


def _stream_specs():
    configs = [StreamConfig(rows=32, row_elems=256, replication=r)
               for r in (0, 2, 4, 8)]
    return [JobSpec("stream", cfg) for cfg in configs]


def _invariants(outcomes):
    return [(o.result.runtime_s, o.result.read_requests, o.record.obs)
            for o in outcomes]


class TestSnapshot:
    def test_snapshot_covers_semantic_toggles(self):
        assert SNAPSHOT_KEYS == ("REPRO_LINT",)

    def test_snapshot_captures_current_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "off")
        assert dict(snapshot_env())["REPRO_LINT"] == "off"
        monkeypatch.delenv("REPRO_LINT")
        assert dict(snapshot_env())["REPRO_LINT"] is None

    def test_assert_env_detects_drift(self, monkeypatch):
        monkeypatch.setenv("REPRO_LINT", "warn")
        snap = snapshot_env()
        monkeypatch.setenv("REPRO_LINT", "off")
        with pytest.raises(EnvDriftError):
            _assert_env(snap)


class TestMixedParentEnv:
    """The ISSUE's acceptance scenario: plan, drift the parent, run -j 4."""

    def test_parallel_reproduces_sequential_despite_drift(self, monkeypatch):
        # Plan the sweep with lint in its default (warn) mode.
        monkeypatch.delenv("REPRO_LINT", raising=False)
        specs = _stream_specs()
        ref = _invariants(run_jobs(specs, jobs=1))

        # The parent's environment drifts before execution — a worker
        # that forked *now* would inherit lint OFF.
        monkeypatch.setenv("REPRO_LINT", "off")
        got = _invariants(run_jobs(specs, jobs=4))
        assert got == ref

        # ...and the drifted parent value itself was not clobbered.
        assert os.environ["REPRO_LINT"] == "off"

    def test_workers_run_under_snapshot_not_parent_env(self, monkeypatch):
        # Direct probe: jobs planned with the toggle unset must see it
        # unset inside the worker even though the forked parent has since
        # set it — i.e. the snapshot wins over the inherited environment.
        monkeypatch.delenv("REPRO_LINT", raising=False)
        specs = [JobSpec("_test_envprobe", EnvProbe(token=i))
                 for i in range(4)]
        monkeypatch.setenv("REPRO_LINT", "off")
        outcomes = run_jobs(specs, jobs=4)
        assert [o.result for o in outcomes] == [None] * 4

    def test_sequential_restores_parent_env(self, monkeypatch):
        # -j 1 applies each spec's snapshot in-process; afterwards the
        # parent environment must be exactly what it was before.
        monkeypatch.delenv("REPRO_LINT", raising=False)
        specs = _stream_specs()
        monkeypatch.setenv("REPRO_LINT", "off")
        run_jobs(specs, jobs=1)
        assert os.environ["REPRO_LINT"] == "off"

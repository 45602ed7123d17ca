"""No silent fault: every fault a launch takes leaves its trace row.

An index-keyed chaos fault (an SDC flip, a core failure) is armed on one
launch index of one pool member.  Whichever launch runs at that index
(a tenant batch, a cluster span or a canary probe) must take the fault
and record it: a dropped fault is counted neither as injected nor as
detected, so ``verify_chaos_report`` cannot see it.  These tests sweep
seeded closed-loop chaos (seeds 0-5 at intensity 0.5, 1 and 2) plus the
CI campaign's seed-0, 40-request runs and check, for every member and
every launch index below its launch count:

* nothing is still armed there;
* each core failure has its ``core.failure … injected`` row;
* the launch's flips are counted by ``solver.sdc … injected|masked``
  rows naming it, or a canary launch failed its probe on them.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.serve import loadgen
from repro.serve.chaos import ChaosConfig, build_chaos
from repro.serve.loadgen import LoadGenConfig, run_loadgen

SWEEP = [(seed, 48, level) for seed in range(6) for level in (0.5, 1.0, 2.0)]
CAMPAIGN = [(0, 40, level) for level in (0.5, 1.0, 2.0)]
RUNS = SWEEP + CAMPAIGN


def run_service(seed, n, intensity):
    """One closed-loop chaos load test; returns the service it ran on."""
    services = []

    class Recorded(loadgen.SolveService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            services.append(self)

    with mock.patch.object(loadgen, "SolveService", Recorded):
        run_loadgen(LoadGenConfig(mode="closed", seed=seed, n_requests=n),
                    chaos=ChaosConfig(seed=seed, intensity=intensity),
                    solve=False, jobs=1, cache=False)
    (svc,) = services
    return svc


def launches_named(where):
    """Launch labels a row names: ``req3@e150-0.launch2`` or a span's
    ``e150-0.launch2+e150-1.launch4``."""
    return where.rpartition("@")[2].split("+")


def silent_faults(svc, intensity, seed):
    """Every armed fault a launch ran over without taking or recording."""
    plan = build_chaos(ChaosConfig(seed=seed, intensity=intensity),
                       len(svc.pool.devices), svc.pool_cfg.grid)
    events = svc.metrics.trace.events
    out = []
    for dev, faults in zip(svc.pool.devices, plan.plans):
        deaths = Counter(d.iteration for d in faults.core_failures)
        flips = Counter(f.iteration for f in faults.solver)
        for k in range(dev.launches):
            label = f"{dev.name}.launch{k}"
            if dev.take_sdc(k) or dev.take_core_failures(k):
                out.append(f"{label}: fault still armed after it ran")
            injected = sum(1 for e in events
                           if e.kind == "core.failure"
                           and e.action == "injected"
                           and e.where.startswith(f"{dev.name}.core(")
                           and e.detail == f"launch{k}")
            if injected != deaths[k]:
                out.append(f"{label}: {deaths[k]} core failure(s) armed, "
                           f"{injected} injected row(s)")
            counted = sum(int(e.detail.partition("flip")[0])
                          for e in events
                          if e.kind == "solver.sdc"
                          and e.action in ("injected", "masked")
                          and label in launches_named(e.where))
            canary = any(e.kind == "serve.canary" and e.where == label
                         and e.action == "failed" and e.detail == "sdc"
                         for e in events)
            if counted != flips[k] and not (canary and counted == 0):
                out.append(f"{label}: {flips[k]} flip(s) armed, "
                           f"{counted} counted in solver.sdc rows")
    return out


@pytest.mark.parametrize("seed,n,intensity", RUNS,
                         ids=[f"seed{s}-n{n}-x{i:g}" for s, n, i in RUNS])
def test_every_consumed_fault_is_recorded(seed, n, intensity):
    svc = run_service(seed, n, intensity)
    assert silent_faults(svc, intensity, seed) == []


def test_sweep_reaches_every_recording_path():
    """The sweep has teeth: canaries take core failures, and flips land
    on hung launches, so both paths the contract names really run."""
    seen = Counter()
    for seed, n, intensity in RUNS:
        events = run_service(seed, n, intensity).metrics.trace.events
        canaries = {e.where for e in events if e.kind == "serve.canary"}
        for e in events:
            if e.kind == "core.failure" and e.action == "remapped" \
                    and e.where in canaries:
                seen["canary core failure"] += 1
            if e.kind == "solver.sdc":
                seen[f"sdc {e.action}"] += 1
            if e.kind == "serve.canary" and e.action == "failed":
                seen[f"canary {e.detail}"] += 1
    for path in ("canary core failure", "canary core_failure",
                 "canary sdc", "canary hang", "sdc injected", "sdc masked"):
        assert seen[path] > 0, path

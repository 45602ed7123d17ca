"""Serve report bytes, pinned across commits.

The CI serve jobs compare a run with a second run (or a replay) of the
same commit, so a change that moves report bytes the same way in both
runs passes them.  These tests pin ``sha256(report.to_json_text())[:16]``
of three seeded runs.  The first two together drive every fault path of
a device launch; the third mixes all four workload kinds, so it also
pins each op's service times, PCIe bytes and post-pass fingerprints.  A
change that moves a digest is a declared output change: it updates the
digest here and says why.
"""

import hashlib

from repro.serve.chaos import ChaosConfig
from repro.serve.loadgen import LoadGenConfig, run_loadgen


def digest(report) -> str:
    return hashlib.sha256(report.to_json_text().encode()).hexdigest()[:16]


def covered(report, names):
    return {name: report.metrics.counters.get(name, 0) for name in names}


def test_closed_loop_chaos_report_is_pinned():
    report = run_loadgen(LoadGenConfig(mode="closed", seed=3, n_requests=48),
                         chaos=ChaosConfig(seed=3, intensity=1.0),
                         solve=False, jobs=1, cache=False)
    # the pin guards every fault kind a device launch handles
    assert covered(report, ["chaos.core_failure", "sdc.detected", "hangs",
                            "chaos.noc.delay", "chaos.noc.drop",
                            "chaos.ecc.scrub", "canary.failed",
                            "batches.multi", "retries"]) == {
        "chaos.core_failure": 2, "sdc.detected": 4, "hangs": 1,
        "chaos.noc.delay": 3, "chaos.noc.drop": 1, "chaos.ecc.scrub": 4,
        "canary.failed": 1, "batches.multi": 3, "retries": 5}
    # moved when a canary's faults stopped counting as fault latency
    assert digest(report) == "5988490454935218"


def test_open_loop_hang_report_is_pinned():
    report = run_loadgen(LoadGenConfig(mode="open", seed=0, n_requests=64),
                         n_hangs=2, solve=False, jobs=1, cache=False)
    assert covered(report, ["hangs", "batches.multi", "retries"]) == {
        "hangs": 2, "batches.multi": 11, "retries": 4}
    assert digest(report) == "83009c30fd3138cd"


def test_mixed_workload_chaos_report_is_pinned():
    kinds = ("jacobi", "matmul", "fft", "stencil9")
    report = run_loadgen(LoadGenConfig(mode="open", seed=11, n_requests=48,
                                       workloads=kinds),
                         chaos=ChaosConfig(seed=11, intensity=1.0),
                         solve=True, jobs=1, cache=False)
    served = {o.request.workload for o in report.outcomes
              if o.status == "completed"}
    assert served == set(kinds)
    # every op kind is fingerprinted by the functional post-pass
    assert {key.split(":")[0] for key in report.solves} >= set(kinds[1:])
    assert covered(report, ["degraded", "shed", "retries"]) == {
        "degraded": 3, "shed": 8, "retries": 6}
    # moved when stencil9 came to be priced by the stencil family's model
    assert digest(report) == "8ce6bc021f9f42f0"

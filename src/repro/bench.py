"""``repro bench`` — the standing micro/macro performance benchmark suite.

The simulator is the substrate every experiment, fault campaign and lint
sweep runs on, so its speed is a first-class deliverable.  This module
measures it two ways:

* **micro** benchmarks time one hot path in isolation — raw engine event
  throughput, CB handshake round-trips, NoC burst issue — and report a
  counted invariant (events, pages, read requests) per wall second
  (higher is better);
* **macro** benchmarks time a workload end to end — the single-core and
  full-grid (12x9 = 108 worker) Jacobi solves, a streaming sweep, and
  the serve, chaos, cluster, ops and lint smokes — and report wall-clock
  seconds (lower is better).

Each benchmark sets up off the clock and returns ``(run, invariants)``;
:func:`run_benchmarks` holds the only clock, around ``run()``, and
computes ``invariants(run())`` after it stops.

Every benchmark also records *invariants*: the final simulated time,
total events processed and (for solves) a hash of the result grid.
Invariants are machine-independent — they must be byte-identical from
run to run and from laptop to CI — so a baseline comparison separates
"the simulator got slower" (tolerance applies) from "the simulator got
*different*" (always a failure).

Results serialise to a schema-stable JSON document
(``repro-bench/1``)::

    python -m repro bench                 # full suite -> BENCH_<date>.json
    python -m repro bench --smoke         # reduced sizes (CI)
    python -m repro bench --smoke --check # compare vs committed baseline

``benchmarks/perf/baseline_smoke.json`` is the committed baseline the CI
smoke job regresses against.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

SCHEMA = "repro-bench/1"

#: default committed baseline for ``--smoke --check`` (repo-relative)
SMOKE_BASELINE = "benchmarks/perf/baseline_smoke.json"


@dataclass
class BenchResult:
    """One benchmark's outcome: a perf metric plus determinism invariants."""

    name: str
    kind: str                  # "micro" | "macro"
    metric: str                # e.g. "events_per_sec", "wall_s"
    value: float
    unit: str
    higher_is_better: bool
    invariants: Dict[str, object] = field(default_factory=dict)
    #: wall seconds of every repetition, in run order — not just the
    #: best-of value, so parallel-host results stay interpretable.
    rep_walls: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class BenchJob:
    """Config of the ``bench_invariants`` parallel job kind."""

    name: str
    smoke: bool


class BenchError(RuntimeError):
    """A benchmark produced inconsistent results across repetitions."""


#: a benchmark's set-up returns ``(run, invariants)``: ``run()`` is the
#: only timed call, ``invariants(run())`` is computed off the clock.
Bench = Tuple[Callable[[], object], Callable[[object], Dict[str, object]]]


# --------------------------------------------------------------------------
# micro benchmarks
# --------------------------------------------------------------------------

def _bench_engine(smoke: bool) -> Bench:
    """Raw engine throughput: one process yielding N chained timeouts."""
    from repro.sim import Simulator, Timeout

    n = 20_000 if smoke else 200_000
    sim = Simulator()

    def proc():
        for _ in range(n):
            yield Timeout(sim, 1e-9)

    sim.process(proc(), name="bench.engine")
    return sim.run, lambda _: {"events": sim.events_processed,
                               "sim_now": sim.now}


def _bench_cb_roundtrip(smoke: bool) -> Bench:
    """Producer/consumer CB handshakes through a 2-page circular buffer."""
    from repro.arch.cb import CircularBuffer
    from repro.arch.sram import Sram
    from repro.sim import Simulator

    n = 10_000 if smoke else 100_000
    sim = Simulator()
    cb = CircularBuffer(sim, Sram(), 0, page_size=64, n_pages=2,
                        name="bench.cb")

    def producer():
        for _ in range(n):
            yield cb.reserve_back(1)
            cb.push_back(1)

    def consumer():
        for _ in range(n):
            yield cb.wait_front(1)
            cb.pop_front(1)

    sim.process(producer(), name="bench.cb.producer")
    sim.process(consumer(), name="bench.cb.consumer")
    return sim.run, lambda _: {"events": sim.events_processed,
                               "sim_now": sim.now, "pages": n}


def _bench_noc_burst(smoke: bool) -> Bench:
    """NoC read-burst issue rate: batched contiguous DRAM page reads."""
    from repro.arch.dram import Dram
    from repro.arch.noc import Noc, ReadJob
    from repro.sim import Simulator

    batches = 50 if smoke else 500
    jobs_per_batch = 32
    page = 1024
    sim = Simulator()
    dram = Dram(sim, bank_capacity=8 << 20)
    noc = Noc(sim, 0, dram)
    link = noc.new_link("bench")

    def proc():
        for b in range(batches):
            base = (b % 64) * jobs_per_batch * page
            jobs = [ReadJob(bank_id=b % dram.n_banks,
                            addr=base + j * page, size=page)
                    for j in range(jobs_per_batch)]
            yield noc.read_burst(link, jobs)

    sim.process(proc(), name="bench.noc")
    return sim.run, lambda _: {"events": sim.events_processed,
                               "sim_now": sim.now,
                               "read_requests": noc.stats.read_requests,
                               "read_bytes": noc.stats.read_bytes}


# --------------------------------------------------------------------------
# macro benchmarks
# --------------------------------------------------------------------------

def _jacobi(nx: int, ny: int, cores_y: int, cores_x: int,
            iterations: int) -> Bench:
    from repro.arch.device import GrayskullDevice
    from repro.core.grid import LaplaceProblem
    from repro.core.jacobi_optimized import OptimizedJacobiRunner
    from repro.ops.registry import sha16

    dev = GrayskullDevice(dram_bank_capacity=64 << 20)
    runner = OptimizedJacobiRunner(dev, LaplaceProblem(nx=nx, ny=ny),
                                   cores_y=cores_y, cores_x=cores_x)

    def invariants(res) -> Dict[str, object]:
        return {"events": dev.sim.events_processed, "sim_now": dev.sim.now,
                "kernel_time_s": res.kernel_time_s,
                "grid_sha": sha16(res.grid_bits)}

    return lambda: runner.run(iterations), invariants


def _bench_jacobi_single(smoke: bool) -> Bench:
    """Single-core optimised Jacobi (the Table I/II workload shape).

    The smoke size is chosen so the wall time stays >~0.1 s: much
    smaller runs time mostly interpreter warm-up, and the CI regression
    gate would trip on scheduler noise rather than real slowdowns.
    """
    return _jacobi(96, 96, 1, 1, 3)


def _bench_jacobi_multicore(smoke: bool) -> Bench:
    """Full-grid multicore Jacobi: 12x9 = 108 workers (4x4 in smoke)."""
    if smoke:
        return _jacobi(128, 128, 4, 4, 2)
    return _jacobi(288, 216, 12, 9, 2)


def _bench_stream_sweep(smoke: bool) -> Bench:
    """Streaming sweep: async batched + sync single-row configurations."""
    from repro.streaming import StreamConfig, run_streaming

    rows = 128 if smoke else 256
    configs = [
        ("async_b64", StreamConfig(rows=rows, row_elems=1024,
                                   read_batch=64)),
        ("sync", StreamConfig(rows=rows, row_elems=1024,
                              sync_read=True, sync_write=True)),
    ]

    def run():
        return [(label, run_streaming(cfg)) for label, cfg in configs]

    def invariants(results) -> Dict[str, object]:
        inv: Dict[str, object] = {}
        for label, res in results:
            inv[f"{label}_runtime_s"] = res.runtime_s
            inv[f"{label}_read_bw"] = res.read_bw
        return inv

    return run, invariants


def _bench_serve_smoke(smoke: bool) -> Bench:
    """Serve-layer macro scenario: seeded load test with armed hangs.

    One closed-loop load test with two seeded device hangs, including
    the functional solve post-pass.  The invariants pin the *entire*
    serve report byte-for-byte (its SHA-256) plus the headline numbers
    — simulated duration, request count, tail latency — so any drift in
    scheduling, batching, retry handling or the solve post-pass shows
    up as a semantic change, not noise.
    """
    import hashlib

    from repro.serve import LoadGenConfig, run_loadgen

    n = 48 if smoke else 192
    cfg = LoadGenConfig(mode="closed", seed=0, n_requests=n, n_clients=6)

    def invariants(report) -> Dict[str, object]:
        counters = report.metrics.counters
        return {
            "report_sha": hashlib.sha256(
                report.to_json_text().encode()).hexdigest()[:16],
            "sim_now": report.duration_s,
            "requests": len(report.outcomes),
            "completed": counters.get("completed", 0),
            "degraded": counters.get("degraded", 0),
            "shed": counters.get("shed", 0),
            "hangs": counters.get("hangs", 0),
            "batches_multi": counters.get("batches.multi", 0),
            "p99_total_s": report.latencies()["total_s"].get("p99", 0.0),
        }

    # jobs=1 / cache=False: the post-pass must not nest pools or touch
    # the sweep cache inside a timed benchmark repetition.
    return (lambda: run_loadgen(cfg, n_hangs=2, solve=True, jobs=1,
                                cache=False)), invariants


def _bench_chaos_smoke(smoke: bool) -> Bench:
    """Chaos-serving macro scenario: full fault vocabulary at unit
    intensity.

    A fault-free baseline plus one chaos run (NoC delay/drop, ECC
    scrubs, kernel hangs, in-flight SDC, mid-launch core failures) over
    the same closed-loop load.  The invariants pin the chaos report
    byte-for-byte plus the resilience headline numbers — detected SDC,
    retries, sheds, p99 inflation — so any drift in fault consumption
    order, health-breaker transitions or retry backoff is a semantic
    change, not noise.
    """
    from repro.serve import (ChaosConfig, LoadGenConfig, run_loadgen,
                             summarize_chaos_run, verify_chaos_report)

    n = 40 if smoke else 160
    cfg = LoadGenConfig(mode="closed", seed=3, n_requests=n, n_clients=6)
    chaos = ChaosConfig(seed=3, intensity=1.0)

    def run():
        return (run_loadgen(cfg, solve=False, jobs=1, cache=False),
                run_loadgen(cfg, chaos=chaos, solve=False, jobs=1,
                            cache=False))

    def invariants(reports) -> Dict[str, object]:
        base, report = reports
        counters = report.metrics.counters
        base_p99 = base.latencies()["total_s"].get("p99", 0.0) or 0.0
        p99 = report.latencies()["total_s"].get("p99", 0.0) or 0.0
        summary = summarize_chaos_run(report, chaos.intensity)
        return {
            "report_sha": summary["report_sha"],
            "sim_now": report.duration_s,
            "violations": len(verify_chaos_report(report)),
            "sdc_detected": counters.get("sdc.detected", 0),
            "hangs": counters.get("hangs", 0),
            "core_failures": counters.get("chaos.core_failure", 0),
            "shed": counters.get("shed", 0),
            "retries": counters.get("retries", 0),
            "p99_inflation": round(p99 / base_p99, 6) if base_p99 else 0.0,
        }

    return run, invariants


def _bench_cluster_smoke(smoke: bool) -> Bench:
    """Multi-card macro scenario: a weak-scaling sweep with the
    differential check inside every point.

    One model-timed weak sweep over 1/2/4 cards (each point solves the
    decomposed problem *and* the single-card reference, asserting
    bit-identity), rendered to the byte-stable report.  The invariants
    pin the report and JSON SHA-256 plus the headline numbers — every
    point bit-identical, total halo bytes, the 4-card wall time — so
    any drift in the decomposition, exchange order, halo cost model or
    report rendering is a semantic change, not noise.
    """
    import hashlib

    from repro.cluster import (cluster_sweep_configs, doc_to_json,
                               render_cluster_report, run_cluster_sweep,
                               sweep_to_doc)

    base = 32 if smoke else 64
    configs = cluster_sweep_configs("weak", (1, 2, 4), base_nx=base,
                                    base_ny=base, iterations=4)

    def invariants(points) -> Dict[str, object]:
        report = render_cluster_report("weak", points)
        text = doc_to_json(sweep_to_doc("weak", points))
        return {
            "report_sha": hashlib.sha256(report.encode()).hexdigest()[:16],
            "json_sha": hashlib.sha256(text.encode()).hexdigest()[:16],
            "points": len(points),
            "bit_identical": sum(1 for p in points if p["bit_identical"]),
            "exchange_bytes": sum(p["exchange_bytes"] for p in points),
            "wall_4card_s": round(points[-1]["wall_time_s"], 12),
        }

    # jobs=1 / cache=False: no nested pools or sweep-cache hits inside
    # a timed benchmark repetition.
    return (lambda: run_cluster_sweep(configs, jobs=1, cache=False)), \
        invariants


def _bench_ops_smoke(smoke: bool) -> Bench:
    """Op-library macro scenario: every registered op, checked.

    One differential-checked execution per registered op (single-core in
    smoke, plus a 2x2 launch in full mode), sizes chosen to satisfy all
    three ops' constraints.  The invariants pin each op's readback
    SHA-256, tile-op count and simulated kernel time — any drift in a
    kernel schedule, reference implementation or the differential-check
    plumbing is a semantic change, not noise.
    """
    from repro import ops as opslib

    size = 32 if smoke else 64
    grids = [(1, 1)] if smoke else [(1, 1), (2, 2)]

    def run():
        results = []
        for spec in opslib.list_ops():
            problem = spec.make_problem(size, 0)
            for cores in grids:
                try:
                    results.append(spec.run(problem, cores=cores))
                except ValueError:
                    continue      # e.g. too few tiles for the core grid
        return results

    def invariants(results) -> Dict[str, object]:
        inv: Dict[str, object] = {}
        for res in results:
            tag = f"{res.op}_{res.cores[0]}x{res.cores[1]}"
            inv[f"{tag}_sha"] = res.output_sha
            inv[f"{tag}_fpu_ops"] = res.fpu_ops
            inv[f"{tag}_sim_s"] = res.kernel_time_s
            inv[f"{tag}_checked"] = res.checked
        return inv

    return run, invariants


def _bench_lint_smoke(smoke: bool) -> Bench:
    """Whole-program lint wall time over the shipped Jacobi programs.

    Builds (off the clock) the optimised Jacobi launch twice — single
    core and the paper's full 12x9 = 108-core grid, 324 kernel
    instances — then times ``lint.lint_program`` over both with a cold
    symbolic-trace cache, i.e. the K/P/R passes plus the cross-core
    happens-before analysis end to end.  The invariants pin zero
    findings, the kernel-instance count and the rule-catalogue size:
    a new rule firing on shipped kernels, a lost rule, or a change in
    program assembly is a semantic change, not noise.
    """
    from repro import lint
    from repro.arch.device import GrayskullDevice
    from repro.core.grid import LaplaceProblem
    from repro.core.jacobi_optimized import OptimizedJacobiRunner
    from repro.lint import trace as lint_trace
    from repro.ttmetal import create_buffer

    programs = []
    for nx, ny, cy, cx in ((96, 96, 1, 1), (288, 216, 12, 9)):
        dev = GrayskullDevice(dram_bank_capacity=64 << 20)
        runner = OptimizedJacobiRunner(dev, LaplaceProblem(nx=nx, ny=ny),
                                       cores_y=cy, cores_x=cx)
        d1 = create_buffer(dev, runner.layout.nbytes, interleaved=True,
                           page_size=runner.config.page_size)
        d2 = create_buffer(dev, runner.layout.nbytes, interleaved=True,
                           page_size=runner.config.page_size)
        programs.append(runner.build_program(2, d1, d2))

    def invariants(reports) -> Dict[str, object]:
        return {"findings": sum(len(r) for r in reports),
                "programs": len(programs),
                "kernels": sum(len(p.kernels) for p in programs),
                "rules": len(lint.all_rules())}

    lint_trace._TRACE_CACHE.clear()   # cold cache: time the full analysis
    return (lambda: [lint.lint_program(p) for p in programs]), invariants


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

#: name -> (benchmark, metric, counted invariant).  A micro benchmark's
#: value is its counted invariant per wall second (higher is better); a
#: macro benchmark (counted invariant None) reports wall seconds.
BENCHMARKS: Dict[str, Tuple[Callable[[bool], Bench], str, Optional[str]]] = {
    "engine_events": (_bench_engine, "events_per_sec", "events"),
    "cb_roundtrip": (_bench_cb_roundtrip, "roundtrips_per_sec", "pages"),
    "noc_burst": (_bench_noc_burst, "jobs_per_sec", "read_requests"),
    "jacobi_single": (_bench_jacobi_single, "wall_s", None),
    "jacobi_multicore": (_bench_jacobi_multicore, "wall_s", None),
    "stream_sweep": (_bench_stream_sweep, "wall_s", None),
    "serve_smoke": (_bench_serve_smoke, "wall_s", None),
    "chaos_smoke": (_bench_chaos_smoke, "wall_s", None),
    "cluster_smoke": (_bench_cluster_smoke, "wall_s", None),
    "ops_smoke": (_bench_ops_smoke, "wall_s", None),
    "lint_smoke": (_bench_lint_smoke, "wall_s", None),
}


def _timed_rep(benchmark: Callable[[bool], Bench],
               smoke: bool) -> Tuple[float, Dict[str, object]]:
    """One repetition: set up, time ``run()``, then take the invariants."""
    run, invariants = benchmark(smoke)
    t0 = time.perf_counter()
    out = run()
    wall = time.perf_counter() - t0
    return wall, invariants(out)


def measure_invariants(name: str, smoke: bool) -> Dict[str, object]:
    """Benchmark ``name``'s invariants from one untimed run."""
    run, invariants = BENCHMARKS[name][0](smoke)
    return invariants(run())


def _parallel_invariant_prepass(names: List[str], smoke: bool, jobs: int,
                                cache,
                                log: Optional[Callable[[str], None]]
                                ) -> Dict[str, Dict[str, object]]:
    """Collect the *macro* benchmarks' invariants via the sweep engine.

    Invariant collection is pure simulation — machine-independent by
    contract — so it parallelises (and caches) safely.  Perf timings
    never run here: they must stay sequential so the wall-clock numbers
    are not polluted by sibling workers, and the report says so.
    """
    from repro.parallel import JobSpec, sweep_results

    macro = [n for n in names if BENCHMARKS[n][2] is None]
    if not macro:
        return {}
    if log is not None:
        log(f"  invariant prepass: {len(macro)} macro benchmark(s) "
            f"across {jobs} worker(s) (perf timings stay sequential)")
    specs = [JobSpec("bench_invariants", BenchJob(name=n, smoke=smoke))
             for n in macro]
    collected = sweep_results(specs, jobs=jobs, cache=cache)
    return dict(zip(macro, collected))


def run_benchmarks(smoke: bool = False, reps: int = 3,
                   only: Optional[List[str]] = None,
                   log: Optional[Callable[[str], None]] = None,
                   jobs: Optional[int] = None, cache=None) -> dict:
    """Run the suite and return the ``repro-bench/1`` document.

    Each benchmark runs ``reps`` times; the best perf value is kept
    (min wall / max throughput) while the invariants must be identical
    across repetitions — a mismatch raises :class:`BenchError`, because
    a nondeterministic simulator invalidates every other number in the
    file.  Every repetition's wall time is recorded (``rep_walls``), not
    just the best-of value.

    ``jobs > 1`` additionally collects the macro benchmarks' invariants
    through the parallel sweep engine *before* the timed loop and
    cross-checks them against the sequential repetitions — a
    cross-process determinism gate.  Timings themselves always run
    sequentially.
    """
    from repro.parallel import resolve_jobs

    names = list(BENCHMARKS) if not only else list(only)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmark(s): {', '.join(unknown)} "
                         f"(available: {', '.join(BENCHMARKS)})")
    n_jobs = resolve_jobs(jobs)
    prepass: Dict[str, Dict[str, object]] = {}
    if n_jobs > 1:
        prepass = _parallel_invariant_prepass(names, smoke, n_jobs, cache,
                                              log)
    results: List[BenchResult] = []
    for name in names:
        benchmark, metric, counted = BENCHMARKS[name]
        rep_walls, inv0 = [], None
        for _ in range(max(1, reps)):
            wall, inv = _timed_rep(benchmark, smoke)
            rep_walls.append(wall)
            if inv0 is not None and inv != inv0:
                raise BenchError(
                    f"benchmark {name!r} invariants changed between "
                    f"repetitions: {inv0!r} != {inv!r}")
            inv0 = inv
        if name in prepass and prepass[name] != inv0:
            raise BenchError(
                f"benchmark {name!r} invariants differ between the "
                f"parallel prepass and the sequential run: "
                f"{prepass[name]!r} != {inv0!r}")
        # the best repetition is the fastest one, whatever the metric
        best = min(rep_walls)
        micro = counted is not None
        result = BenchResult(
            name=name, kind="micro" if micro else "macro", metric=metric,
            value=inv0[counted] / best if micro else best,
            unit="1/s" if micro else "s", higher_is_better=micro,
            invariants=inv0, rep_walls=rep_walls)
        results.append(result)
        if log is not None:
            log(f"  {name:<18} {metric} = {result.value:,.6g} "
                f"{result.unit}")
    return {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),
        "smoke": bool(smoke),
        "reps": int(reps),
        "python": platform.python_version(),
        # host context so parallel-era results stay interpretable; the
        # comparator ignores these (additive, schema-compatible keys).
        "cpu_count": os.cpu_count(),
        "timings": "sequential",
        "invariant_prepass": ({"jobs": n_jobs,
                               "benchmarks": sorted(prepass)}
                              if prepass else None),
        "results": [asdict(r) for r in results],
    }


def write_report(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")


def default_report_path(date: Optional[str] = None) -> str:
    return f"BENCH_{date or datetime.date.today().isoformat()}.json"


# --------------------------------------------------------------------------
# baseline comparison
# --------------------------------------------------------------------------

def compare(current: dict, baseline: dict,
            tolerance: float = 0.20,
            notes: Optional[List[str]] = None) -> List[str]:
    """Regressions of ``current`` against ``baseline``.

    Returns human-readable failure strings (empty = pass).  Perf metrics
    may drift within ``tolerance`` (relative); invariants must match
    exactly — they are machine-independent, so any drift is a semantic
    change in the simulator, not noise.

    Benchmarks present in ``current`` but absent from the baseline are
    *informational*, never failures — a fresh benchmark has no history
    to regress against.  Pass a list as ``notes`` to collect one line
    per new benchmark (e.g. a reminder to regenerate the baseline).
    """
    failures: List[str] = []
    if current.get("schema") != baseline.get("schema"):
        failures.append(
            f"schema mismatch: {current.get('schema')!r} vs baseline "
            f"{baseline.get('schema')!r}")
        return failures
    if bool(current.get("smoke")) != bool(baseline.get("smoke")):
        failures.append(
            "smoke/full mismatch: comparing a "
            f"{'smoke' if current.get('smoke') else 'full'} run against a "
            f"{'smoke' if baseline.get('smoke') else 'full'} baseline")
        return failures
    cur = {r["name"]: r for r in current.get("results", [])}
    for base in baseline.get("results", []):
        name = base["name"]
        now = cur.get(name)
        if now is None:
            failures.append(f"{name}: benchmark missing from current run")
            continue
        if now.get("invariants") != base.get("invariants"):
            failures.append(
                f"{name}: invariants changed (simulation semantics "
                f"drifted): {base.get('invariants')!r} -> "
                f"{now.get('invariants')!r}")
        b, c = float(base["value"]), float(now["value"])
        if base.get("higher_is_better"):
            if c < b * (1.0 - tolerance):
                failures.append(
                    f"{name}: {base['metric']} regressed "
                    f"{(1 - c / b) * 100:.1f}% ({b:,.6g} -> {c:,.6g}, "
                    f"tolerance {tolerance * 100:.0f}%)")
        else:
            if c > b * (1.0 + tolerance):
                failures.append(
                    f"{name}: {base['metric']} regressed "
                    f"{(c / b - 1) * 100:.1f}% ({b:,.6g} -> {c:,.6g}, "
                    f"tolerance {tolerance * 100:.0f}%)")
    if notes is not None:
        known = {r["name"] for r in baseline.get("results", [])}
        for r in current.get("results", []):
            if r["name"] not in known:
                notes.append(
                    f"{r['name']}: new benchmark (not in baseline; "
                    f"regenerate the baseline to start tracking it)")
    return failures


def render(doc: dict) -> str:
    """A small fixed-width table of the document's results."""
    lines = [f"repro bench  schema={doc['schema']}  date={doc['date']}  "
             f"smoke={doc['smoke']}  "
             f"cpus={doc.get('cpu_count', '?')}  "
             f"timings={doc.get('timings', 'sequential')}",
             f"{'benchmark':<18} {'kind':<6} {'metric':<18} "
             f"{'value':>14}  invariants"]
    for r in doc["results"]:
        inv = ", ".join(f"{k}={v}" for k, v in
                        list(r["invariants"].items())[:3])
        lines.append(f"{r['name']:<18} {r['kind']:<6} {r['metric']:<18} "
                     f"{r['value']:>14,.6g}  {inv}")
    return "\n".join(lines)

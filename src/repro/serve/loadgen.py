"""Seeded load generation and request-trace record/replay.

Two tenant models, both driven entirely by explicit ``random.Random``
seeds (never wall-clock — the seeded-RNG audit test enforces this):

* **open loop** — requests arrive on a Poisson process at a fixed rate,
  regardless of how the service is coping; this is the model that
  exposes queue growth and shedding.
* **closed loop** — ``n_clients`` tenants each submit, wait for their
  result, think (exponential), and submit again; offered load tracks
  service capacity, which exposes latency rather than shedding.

Every run can be *recorded*: the trace is a JSONL file — a header with
the full service/loadgen configuration, then one ``(submit time,
request)`` line per request, in submission order.  *Replaying* a trace
resubmits exactly those requests at exactly those simulated times
against a service rebuilt from the header, so a replayed report is
byte-identical to the recorded run's — the strongest statement of the
determinism contract, and what the CI serve-smoke job diffs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.serve.chaos import ChaosConfig, build_chaos
from repro.serve.health import HealthConfig
from repro.serve.pool import (PoolConfig, ServeHang, best_case_service_s,
                              generate_hangs)
from repro.serve.request import WORKLOADS, AdmissionError, SolveRequest
from repro.serve.scheduler import SchedulerConfig
from repro.serve.service import SolveService
from repro.serve.telemetry import ServeReport
from repro.sim import Simulator

__all__ = [
    "TRACE_SCHEMA",
    "LoadGenConfig",
    "load_trace",
    "replay_trace",
    "run_loadgen",
    "synthesize_requests",
    "write_trace",
]

#: schema tag of the trace header; bump on incompatible layout changes.
TRACE_SCHEMA = "repro-serve-trace/1"


@dataclass(frozen=True)
class LoadGenConfig:
    """One synthetic tenant population."""

    mode: str = "open"               #: "open" or "closed"
    seed: int = 0
    n_requests: int = 32
    arrival_rate_rps: float = 8000.0  #: open loop: Poisson arrival rate
    n_clients: int = 4               #: closed loop: concurrent tenants
    think_s: float = 2e-3            #: closed loop: mean think time
    sizes: Tuple[int, ...] = (32, 48, 64, 96, 128)
    iterations: int = 32
    cpu_fraction: float = 0.25       #: share of requests targeting CPU
    deadline_fraction: float = 0.25  #: share of requests carrying an SLO
    deadline_slack: float = 16.0     #: deadline = slack x best-case time
    #: workload kinds drawn uniformly per request.  The default keeps
    #: the population — and therefore every recorded trace — byte-
    #: identical to the pre-ops service; the mix draws from its own RNG
    #: stream, so adding kinds never perturbs sizes or arrival times.
    workloads: Tuple[str, ...] = ("jacobi",)

    def __post_init__(self):
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be open|closed, got {self.mode!r}")
        if self.n_requests < 1:
            raise ValueError("n_requests must be positive")
        if self.arrival_rate_rps <= 0 or self.think_s <= 0:
            raise ValueError("rates and think times must be positive")
        if self.n_clients < 1:
            raise ValueError("n_clients must be positive")
        if not self.sizes or any(s < 3 for s in self.sizes):
            raise ValueError("sizes must be grid extents of at least 3")
        if not 0.0 <= self.cpu_fraction <= 1.0 \
                or not 0.0 <= self.deadline_fraction <= 1.0:
            raise ValueError("fractions must be within [0, 1]")
        if self.deadline_slack <= 1.0:
            raise ValueError("deadline_slack must exceed 1")
        if not self.workloads or any(w not in WORKLOADS
                                     for w in self.workloads):
            raise ValueError(
                f"workloads must be a non-empty subset of {WORKLOADS}, "
                f"got {self.workloads!r}")

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["sizes"] = list(self.sizes)
        doc["workloads"] = list(self.workloads)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "LoadGenConfig":
        kw = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
        if "sizes" in kw:
            kw["sizes"] = tuple(kw["sizes"])
        if "workloads" in kw:
            kw["workloads"] = tuple(kw["workloads"])
        return cls(**kw)


def _derived_rng(seed: int, stream: int) -> random.Random:
    """An independent deterministic stream (never tuple-hash seeded)."""
    return random.Random(seed * 1_000_003 + stream)


def synthesize_requests(cfg: LoadGenConfig, pool: PoolConfig,
                        costs: CostModel = DEFAULT_COSTS,
                        n_priorities: int = 3) -> List[SolveRequest]:
    """The deterministic request population for one seed.

    The workload mix draws from stream 3 — and only when more than one
    kind is configured — so single-kind populations (in particular the
    default jacobi-only one) are bit-identical to what this function
    produced before workload mixing existed.  An op kind snaps each
    drawn width with its ``OpSpec.snap_nx``, a pure function, so mixes
    replay.
    """
    rng = _derived_rng(cfg.seed, 1)
    wl_rng = _derived_rng(cfg.seed, 3)
    reqs: List[SolveRequest] = []
    for rid in range(cfg.n_requests):
        nx = rng.choice(cfg.sizes)
        ny = rng.choice(cfg.sizes)
        backend = "cpu" if rng.random() < cfg.cpu_fraction else "device"
        priority = rng.randrange(n_priorities)
        workload = cfg.workloads[0] if len(cfg.workloads) == 1 \
            else wl_rng.choice(cfg.workloads)
        if workload != "jacobi":
            from repro.ops import get_op
            nx = get_op(workload).snap_nx(nx)
        req = SolveRequest(rid=rid, nx=nx, ny=ny,
                           iterations=cfg.iterations, backend=backend,
                           priority=priority, workload=workload)
        if rng.random() < cfg.deadline_fraction:
            base = best_case_service_s(req, pool, costs)
            req = replace(req, deadline_s=cfg.deadline_slack * base)
        reqs.append(req)
    return reqs


# --------------------------------------------------------------------------
# sim processes
# --------------------------------------------------------------------------

def _timed_arrivals(sim: Simulator, service: SolveService,
                    arrivals: Sequence[Tuple[float, SolveRequest]]):
    """Submit each request at its absolute simulated time (open/replay)."""
    for t, req in arrivals:
        if t > sim.now:
            yield sim.timeout_at(t)
        try:
            service.submit(req)
        except AdmissionError:
            pass  # recorded as a shed outcome by the service


def _client(sim: Simulator, service: SolveService,
            my_requests: Sequence[SolveRequest], think_rng: random.Random,
            think_s: float):
    """One closed-loop tenant: submit, await, think, repeat."""
    for i, req in enumerate(my_requests):
        try:
            done = service.submit(req)
        except AdmissionError:
            continue
        try:
            yield done
        except AdmissionError:
            pass  # shed mid-queue (deadline expiry); already recorded
        if i + 1 < len(my_requests):
            # No trailing think: the run ends at the last completion, so
            # a replayed trace reproduces the same simulated duration.
            yield sim.timeout(think_rng.expovariate(1.0 / think_s))


# --------------------------------------------------------------------------
# run drivers
# --------------------------------------------------------------------------

def _service_config_doc(loadgen: Optional[LoadGenConfig],
                        scheduler: SchedulerConfig, pool: PoolConfig,
                        hangs: Sequence[ServeHang],
                        chaos: Optional[ChaosConfig] = None,
                        health: Optional[HealthConfig] = None) -> dict:
    doc = {
        "scheduler": {f.name: getattr(scheduler, f.name)
                      for f in fields(scheduler)},
        "pool": {f.name: getattr(pool, f.name) for f in fields(pool)},
        "hangs": [[h.device_id, h.launch_index] for h in hangs],
        "chaos": chaos.to_dict() if chaos is not None else None,
        "health": health.to_dict() if health is not None else None,
    }
    doc["pool"]["grid"] = list(pool.grid)
    if loadgen is not None:
        doc["loadgen"] = loadgen.to_dict()
    return doc


def _finish(sim: Simulator, service: SolveService, config: dict,
            solve: bool, jobs, cache, progress) -> ServeReport:
    outcomes = service.outcomes
    solves = {}
    if solve:
        from repro.serve.jobs import run_solve_postpass
        solves, outcomes = run_solve_postpass(
            outcomes, jobs=jobs, cache=cache, progress=progress)
    return ServeReport(config=config, duration_s=sim.now,
                       outcomes=outcomes, metrics=service.metrics,
                       utilization=service.utilization(), solves=solves,
                       resilience=service.resilience_doc())


def run_loadgen(cfg: LoadGenConfig,
                scheduler: Optional[SchedulerConfig] = None,
                pool: Optional[PoolConfig] = None,
                n_hangs: int = 0,
                costs: CostModel = DEFAULT_COSTS,
                solve: bool = True,
                jobs: Optional[int] = None, cache=None,
                progress=None,
                chaos: Optional[ChaosConfig] = None,
                health: Optional[HealthConfig] = None) -> ServeReport:
    """Run one seeded load test end to end; returns its report.

    ``n_hangs`` arms a deterministic hang plan drawn from the same seed
    (:func:`~repro.serve.pool.generate_hangs`), exercising the watchdog /
    retry / degrade path under load.  ``chaos`` additionally arms one
    full per-device :class:`~repro.faults.plan.FaultPlan`
    (:func:`~repro.serve.chaos.build_chaos`) — NoC, ECC, hangs, SDC,
    core failures — and ``health`` tunes the member breaker; both are
    recorded in the trace header so replays rebuild them exactly.
    """
    scheduler = scheduler or SchedulerConfig()
    pool = pool or PoolConfig()
    hangs = generate_hangs(cfg.seed, n_hangs, pool.n_devices) \
        if n_hangs else ()
    plan = build_chaos(chaos, pool.n_devices, pool.grid) \
        if chaos is not None else None
    sim = Simulator()
    service = SolveService(sim, scheduler, pool, hangs, costs,
                           chaos=plan, health=health)
    reqs = synthesize_requests(cfg, pool, costs, scheduler.n_priorities)
    if cfg.mode == "open":
        gap_rng = _derived_rng(cfg.seed, 2)
        arrivals, t = [], 0.0
        for req in reqs:
            t += gap_rng.expovariate(cfg.arrival_rate_rps)
            arrivals.append((t, req))
        sim.process(_timed_arrivals(sim, service, arrivals),
                    name="serve.loadgen")
    else:
        for cid in range(cfg.n_clients):
            mine = reqs[cid::cfg.n_clients]
            if not mine:
                continue
            sim.process(_client(sim, service, mine,
                                _derived_rng(cfg.seed, 100 + cid),
                                cfg.think_s),
                        name=f"serve.client{cid}")
    sim.run()
    config = _service_config_doc(cfg, scheduler, pool, hangs,
                                 chaos=chaos, health=health)
    return _finish(sim, service, config, solve, jobs, cache, progress)


# --------------------------------------------------------------------------
# trace record / replay
# --------------------------------------------------------------------------

def write_trace(report: ServeReport, path: str) -> None:
    """Record a run as a replayable JSONL trace.

    Every outcome — completed, degraded or shed — contributes one line
    with its original request and absolute submission time, sorted by
    (time, rid) so the file is canonical whatever the completion order.
    """
    rows = sorted(((o.submit_s, o.request) for o in report.outcomes),
                  key=lambda tr: (tr[0], tr[1].rid))
    with open(path, "w") as fh:
        header = {"schema": TRACE_SCHEMA, "config": report.config}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t, req in rows:
            fh.write(json.dumps({"t": t, "req": req.to_dict()},
                                sort_keys=True) + "\n")


def load_trace(path: str) -> Tuple[dict, List[Tuple[float, SolveRequest]]]:
    """Parse a trace file into (config document, timed request list)."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"trace {path} is empty")
    header = json.loads(lines[0])
    if header.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"trace {path} has schema {header.get('schema')!r}, "
            f"expected {TRACE_SCHEMA!r}")
    arrivals = []
    for line in lines[1:]:
        doc = json.loads(line)
        arrivals.append((float(doc["t"]),
                         SolveRequest.from_dict(doc["req"])))
    arrivals.sort(key=lambda tr: (tr[0], tr[1].rid))
    return header["config"], arrivals


def replay_trace(path: str, solve: bool = True,
                 costs: CostModel = DEFAULT_COSTS,
                 jobs: Optional[int] = None, cache=None,
                 progress=None) -> ServeReport:
    """Re-run a recorded trace; the report is byte-identical to the
    original run's (same schedule, same service configuration)."""
    config, arrivals = load_trace(path)
    scheduler = SchedulerConfig(**config["scheduler"])
    pool_doc = dict(config["pool"])
    pool_doc["grid"] = tuple(pool_doc["grid"])
    pool = PoolConfig(**pool_doc)
    hangs = tuple(ServeHang(device_id=d, launch_index=i)
                  for d, i in config.get("hangs", []))
    chaos_doc = config.get("chaos")
    chaos = ChaosConfig.from_dict(chaos_doc) if chaos_doc else None
    health_doc = config.get("health")
    health = HealthConfig.from_dict(health_doc) if health_doc else None
    plan = build_chaos(chaos, pool.n_devices, pool.grid) \
        if chaos is not None else None
    sim = Simulator()
    service = SolveService(sim, scheduler, pool, hangs, costs,
                           chaos=plan, health=health)
    sim.process(_timed_arrivals(sim, service, arrivals),
                name="serve.replay")
    sim.run()
    return _finish(sim, service, config, solve, jobs, cache, progress)

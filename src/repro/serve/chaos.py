"""Chaos serving: the full fault vocabulary injected into live service runs.

:func:`build_chaos` turns one :class:`ChaosConfig` into one seeded
:class:`~repro.faults.plan.FaultPlan` *per pool device* (derived seed
``seed * 1_000_003 + device_id``, counts scaled by ``intensity``), so a
serve run experiences exactly the faults a standalone campaign would:

* ``plan.noc``   — NoC delay/drop at simulated time *t*: the next launch
  starting at or after *t* is stretched (drops also count against the
  member's health breaker);
* ``plan.dram``  — ECC scrub at *t*: a correctable stall folded into the
  next launch (latency, not health — corrected errors are routine);
* ``plan.hangs`` — kernel hang at *t*: the next launch wedges and trips
  the per-launch watchdog;
* ``plan.solver`` — SDC into an in-flight request of launch *k*: the
  flip targets the detectable exponent bit, so the readback range check
  always catches it and the victim is retried or shed, never returned
  silently wrong (a hung launch reads nothing back: its flip is masked);
* ``plan.core_failures`` — a decomposition core dies mid-launch *k*:
  the launch checkpoint/restarts on a remapped core set and the member
  serves every later launch at degraded capacity.

:func:`verify_chaos_report` asserts the serving invariants on any
:class:`~repro.serve.telemetry.ServeReport` (zero silent corruption,
zero silent sheds, health bookkeeping consistent), and
:func:`run_chaos_campaign` sweeps seeded intensities through
``repro.parallel`` — one ``serve_chaos`` job per intensity plus a
fault-free baseline — checking bounded p99 inflation on top.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.parallel.jobs import JobKind, JobSpec, register_kind

__all__ = [
    "CHAOS_SCHEMA",
    "ChaosCampaignConfig",
    "ChaosConfig",
    "ChaosPlan",
    "build_chaos",
    "render_chaos_campaign",
    "run_chaos_campaign",
    "summarize_chaos_run",
    "verify_chaos_report",
]

#: schema tag of the campaign JSON document.
CHAOS_SCHEMA = "repro-serve-chaos/1"

#: derived-stream multiplier shared with the loadgen RNG convention.
_STREAM = 1_000_003


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos injection: per-device fault counts at unit
    intensity, scaled (rounded) by ``intensity``."""

    seed: int = 0
    intensity: float = 1.0       #: scales every per-device count
    horizon_s: float = 5e-2      #: timed faults land in [0, horizon_s)
    noc_per_device: int = 2
    ecc_per_device: int = 2
    hangs_per_device: int = 1
    sdc_per_device: int = 2
    core_failures_per_device: int = 1
    launch_horizon: int = 12     #: SDC / core-failure launch indices

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError("intensity must be non-negative")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.launch_horizon < 1:
            raise ValueError("launch_horizon must be at least 1")
        for name in ("noc_per_device", "ecc_per_device", "hangs_per_device",
                     "sdc_per_device", "core_failures_per_device"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def scaled(self, count: int) -> int:
        return int(round(count * self.intensity))

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "ChaosConfig":
        return cls(**doc)


@dataclass(frozen=True)
class ChaosPlan:
    """One frozen :class:`FaultPlan` per pool device."""

    config: ChaosConfig
    plans: Tuple[FaultPlan, ...]

    @property
    def n_faults(self) -> int:
        return sum(p.n_faults for p in self.plans)

    def describe(self) -> str:
        per = ", ".join(f"e150-{i}:{p.n_faults}"
                        for i, p in enumerate(self.plans))
        return (f"ChaosPlan(seed={self.config.seed}, "
                f"intensity={self.config.intensity:g}): "
                f"{self.n_faults} fault(s) [{per}]")


def build_chaos(cfg: ChaosConfig, n_devices: int,
                grid: Tuple[int, int] = (12, 9)) -> ChaosPlan:
    """Derive one fault plan per device from the chaos seed.

    Pure function of ``(cfg, n_devices, grid)`` — the trace header only
    needs to carry the :class:`ChaosConfig` for a replay to rebuild the
    identical plan.
    """
    plans = []
    for device_id in range(n_devices):
        plans.append(FaultPlan.generate(
            seed=cfg.seed * _STREAM + device_id,
            n_noc_faults=cfg.scaled(cfg.noc_per_device),
            n_dram_flips=cfg.scaled(cfg.ecc_per_device),
            n_hangs=cfg.scaled(cfg.hangs_per_device),
            n_solver_flips=cfg.scaled(cfg.sdc_per_device),
            n_core_failures=cfg.scaled(cfg.core_failures_per_device),
            horizon_s=cfg.horizon_s,
            grid=grid,
            iterations=cfg.launch_horizon,
            interior=(64, 64),
            cores=grid))
    return ChaosPlan(config=cfg, plans=tuple(plans))


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

def verify_chaos_report(report) -> List[str]:
    """The zero-silent-anything contract, checked on a ServeReport.

    Returns a list of human-readable violations (empty == the run
    honoured every serving guarantee):

    * every injected SDC was detected (none returned silently wrong);
    * every submitted request has exactly one terminal outcome;
    * every shed outcome carries a typed reason;
    * aggregate counters agree with the outcome rows.
    """
    out: List[str] = []
    c = report.metrics.counters
    injected = c.get("sdc.injected", 0)
    detected = c.get("sdc.detected", 0)
    if injected != detected:
        out.append(f"silent corruption: {injected} SDC injected but only "
                   f"{detected} detected")
    rids = [o.request.rid for o in report.outcomes]
    if len(rids) != len(set(rids)):
        out.append("duplicate terminal outcomes: some rid appears twice")
    statuses = {"completed", "degraded", "shed"}
    for o in report.outcomes:
        if o.status not in statuses:
            out.append(f"req{o.request.rid}: unknown status {o.status!r}")
        if o.status == "shed" and not o.shed_reason:
            out.append(f"req{o.request.rid}: shed without a typed reason")
    n_shed = sum(1 for o in report.outcomes if o.status == "shed")
    if c.get("shed", 0) != n_shed:
        out.append(f"shed counter {c.get('shed', 0)} != "
                   f"{n_shed} shed outcome row(s)")
    typed = sum(v for k, v in c.items() if k.startswith("shed."))
    if typed != n_shed:
        out.append(f"typed shed counters sum to {typed} but "
                   f"{n_shed} request(s) were shed")
    # Every admitted request must terminate: admitted == non-admission
    # outcomes (admission sheds never enter the state table).
    admission_sheds = sum(
        1 for o in report.outcomes
        if o.status == "shed" and o.shed_reason in
        ("queue_full", "deadline_unmeetable", "invalid"))
    if c.get("submitted", 0) != len(report.outcomes) - admission_sheds:
        out.append(
            f"accounting: {c.get('submitted', 0)} admitted but "
            f"{len(report.outcomes) - admission_sheds} "
            f"non-admission outcome(s)")
    return out


# --------------------------------------------------------------------------
# the campaign: intensities swept through repro.parallel
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosCampaignConfig:
    """One picklable, cache-keyable chaos-campaign point."""

    loadgen: object              #: LoadGenConfig
    scheduler: object            #: SchedulerConfig or None
    pool: object                 #: PoolConfig or None
    health: object               #: HealthConfig or None
    chaos: ChaosConfig           #: intensity 0 == fault-free baseline


def _run_serve_chaos(config: ChaosCampaignConfig, seed):
    from repro.serve.loadgen import run_loadgen

    chaos = config.chaos if config.chaos.intensity > 0 else None
    report = run_loadgen(config.loadgen, scheduler=config.scheduler,
                         pool=config.pool, chaos=chaos,
                         health=config.health, solve=False,
                         jobs=1, cache=False)
    payload = summarize_chaos_run(report, config.chaos.intensity)
    obs = {"sim_now": report.duration_s,
           "violations": len(payload["violations"])}
    return payload, obs


def _serve_chaos_from_payload(config, seed, payload):
    return payload


register_kind(JobKind("serve_chaos", _run_serve_chaos,
                      _serve_chaos_from_payload))


def summarize_chaos_run(report, intensity: float) -> dict:
    """The invariant summary of one chaos run (JSON-safe, cacheable)."""
    text = report.to_json_text()
    lat = report.latencies()["total_s"]
    c = report.metrics.counters
    doc = report.to_json()
    return {
        "intensity": intensity,
        "report_sha": hashlib.sha256(text.encode()).hexdigest()[:16],
        "duration_s": report.duration_s,
        "submitted": len(report.outcomes),
        "completed": len(report.completed()),
        "shed": len(report.shed()),
        "p99_total_s": lat.get("p99", 0.0),
        "counters": dict(sorted(c.items())),
        "violations": verify_chaos_report(report),
        "resilience": doc.get("resilience", {}),
    }


def run_chaos_campaign(loadgen, scheduler=None, pool=None, health=None,
                       chaos: Optional[ChaosConfig] = None,
                       intensities: Sequence[float] = (0.5, 1.0, 2.0),
                       p99_inflation_limit: float = 50.0,
                       jobs=None, cache=None, progress=None) -> dict:
    """Sweep seeded fault intensities over one serve configuration.

    Runs a fault-free baseline (intensity 0) plus one ``serve_chaos``
    job per intensity through ``repro.parallel``, then checks, per run:
    the :func:`verify_chaos_report` invariants and p99(total latency)
    inflation vs the baseline bounded by ``p99_inflation_limit``.
    """
    from dataclasses import replace
    from repro.parallel import run_jobs

    base_chaos = chaos or ChaosConfig()
    levels = [0.0] + [float(i) for i in intensities]
    specs = [JobSpec("serve_chaos",
                     ChaosCampaignConfig(
                         loadgen=loadgen, scheduler=scheduler, pool=pool,
                         health=health,
                         chaos=replace(base_chaos, intensity=level)),
                     seed=base_chaos.seed)
             for level in levels]
    outcomes = run_jobs(specs, jobs=jobs, cache=cache, progress=progress)
    failures = [o.record.error for o in outcomes if not o.record.ok]
    if failures:
        raise RuntimeError(
            f"{len(failures)} chaos job(s) failed: {failures[0]}")
    runs = [o.result for o in outcomes]
    baseline = runs[0]
    base_p99 = baseline["p99_total_s"] or 0.0
    total_violations = 0
    for run in runs:
        p99 = run["p99_total_s"] or 0.0
        inflation = (p99 / base_p99) if base_p99 > 0 else 0.0
        run["p99_inflation"] = round(inflation, 6)
        run["p99_inflation_ok"] = inflation <= p99_inflation_limit
        if not run["p99_inflation_ok"]:
            run["violations"] = list(run["violations"]) + [
                f"p99 inflation {inflation:.3g}x exceeds the "
                f"{p99_inflation_limit:g}x bound"]
        total_violations += len(run["violations"])
    return {
        "schema": CHAOS_SCHEMA,
        "seed": base_chaos.seed,
        "chaos": base_chaos.to_dict(),
        "intensities": levels[1:],
        "p99_inflation_limit": p99_inflation_limit,
        "baseline": baseline,
        "runs": runs[1:],
        "violations_total": total_violations,
    }


def render_chaos_campaign(doc: dict) -> str:
    """Human-readable campaign table + per-run invariant verdicts."""
    from repro.analysis.report import Table

    table = Table(
        f"serve chaos campaign (seed {doc['seed']}, "
        f"p99 inflation bound {doc['p99_inflation_limit']:g}x)",
        ["intensity", "faults seen", "completed", "shed", "retries",
         "sdc det.", "p99 s", "inflation", "invariants"])
    all_runs = [doc["baseline"], *doc["runs"]]
    for run in all_runs:
        c = run["counters"]
        faults = sum(c.get(k, 0) for k in (
            "hangs", "sdc.detected", "sdc.masked", "chaos.noc.delay",
            "chaos.noc.drop", "chaos.ecc.scrub", "chaos.core_failure"))
        verdict = "OK" if not run["violations"] \
            else f"{len(run['violations'])} violation(s)"
        table.add_row(f"{run['intensity']:g}", faults, run["completed"],
                      run["shed"], c.get("retries", 0),
                      c.get("sdc.detected", 0),
                      f"{run['p99_total_s']:.6g}",
                      f"{run.get('p99_inflation', 0.0):.3g}x", verdict)
    parts = [table.render()]
    for run in all_runs:
        for violation in run["violations"]:
            parts.append(f"  VIOLATION @intensity {run['intensity']:g}: "
                         f"{violation}")
    return "\n".join(parts)

"""Job specifications and the registry of runnable job kinds.

A sweep point is described by a picklable :class:`JobSpec` — a job
*kind* name, a config dataclass and a seed.

A :class:`JobKind` splits a job into three pure functions:

* ``run(config, seed) -> (payload, obs)`` — compute the point; the
  payload is the JSON-safe *invariant* outcome (what the cache stores),
  ``obs`` are deterministic observability numbers (events, sim_now);
* ``from_payload(config, seed, payload)`` — rebuild the consumer-facing
  result object from a payload, whether freshly computed or cached.

Because cache hits go through the same ``from_payload`` as fresh runs,
a warmed cache produces byte-identical reports.

Built-in kinds: ``stream`` (one streaming configuration), ``campaign``
(one seeded fault-injection campaign), ``table8`` (one Table VIII row),
``bench_invariants`` (one benchmark's determinism invariants),
``cluster`` (one multi-card scaling point with its differential
bit-identity check).  Custom
kinds can be registered with :func:`register_kind`; they must live in an
importable module (workers resolve kinds by name).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.parallel.cache import job_key

__all__ = [
    "JobKind",
    "JobSpec",
    "all_kinds",
    "execute_spec",
    "get_kind",
    "register_kind",
]


@dataclass(frozen=True)
class JobSpec:
    """One sweep point: kind + config dataclass + seed."""

    kind: str
    config: Any
    seed: int = 0

    def key(self, version: Optional[str] = None) -> str:
        """Content address of this job (see :func:`cache.job_key`)."""
        return job_key(self.kind, self.config, self.seed, version)


@dataclass(frozen=True)
class JobKind:
    """How to run one kind of job and (de)serialise its outcome."""

    name: str
    #: (config, seed) -> (JSON-safe payload, deterministic obs dict)
    run: Callable[[Any, int], Tuple[dict, dict]]
    #: (config, seed, payload) -> consumer-facing result object
    from_payload: Callable[[Any, int, dict], Any]


_REGISTRY: Dict[str, JobKind] = {}


def register_kind(kind: JobKind, replace: bool = False) -> JobKind:
    if kind.name in _REGISTRY and not replace:
        raise ValueError(f"job kind {kind.name!r} is already registered")
    _REGISTRY[kind.name] = kind
    return kind


def get_kind(name: str) -> JobKind:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown job kind {name!r} (registered: "
            f"{', '.join(sorted(_REGISTRY)) or 'none'}); custom kinds must "
            "be registered in a module the worker process imports") from None


def all_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def execute_spec(spec: JobSpec) -> Tuple[dict, dict]:
    """Run one job; returns (payload, obs)."""
    return get_kind(spec.kind).run(spec.config, spec.seed)


def result_from_payload(spec: JobSpec, payload: dict) -> Any:
    return get_kind(spec.kind).from_payload(spec.config, spec.seed, payload)


# --------------------------------------------------------------------------
# built-in job kinds
# --------------------------------------------------------------------------
# The heavy imports live inside the run functions so importing
# repro.parallel stays cheap and free of import cycles (streaming,
# faults and bench all import repro.parallel themselves).

def _run_stream(config, seed) -> Tuple[dict, dict]:
    from repro.arch.device import GrayskullDevice
    from repro.streaming.kernels import run_streaming

    dev = GrayskullDevice()
    res = run_streaming(config, device=dev)
    payload = {
        "runtime_s": res.runtime_s,
        "read_requests": res.read_requests,
        "write_requests": res.write_requests,
        "bytes_read": res.bytes_read,
        "bytes_written": res.bytes_written,
        "verified": res.verified,
    }
    obs = {"events": dev.sim.events_processed, "sim_now": dev.sim.now}
    return payload, obs


def _stream_from_payload(config, seed, payload):
    from repro.streaming.kernels import StreamResult
    return StreamResult(config=config, **payload)


def _run_campaign_job(config, seed) -> Tuple[dict, dict]:
    from repro.faults.campaign import run_campaign

    report = run_campaign(config)
    payload = {
        "title": report.title,
        "outcome": dict(report.outcome),
        "events": [[e.t, e.kind, e.where, e.action, e.detail]
                   for e in report.trace.events],
    }
    obs = {"events": len(report.trace),
           "detected": report.trace.count(action="detected")}
    return payload, obs


def _campaign_from_payload(config, seed, payload):
    from repro.analysis.resilience import ResilienceReport

    report = ResilienceReport(title=payload["title"])
    report.outcome.update(payload["outcome"])
    for t, kind, where, action, detail in payload["events"]:
        report.trace.record(t, kind, where, action, detail)
    return report


def _run_table8_row(config, seed) -> Tuple[dict, dict]:
    from repro.core.grid import LaplaceProblem
    from repro.core.solver import JacobiSolver

    problem = LaplaceProblem(nx=config.nx, ny=config.ny)
    if config.typ == "cpu":
        solver = JacobiSolver(backend="cpu", n_threads=config.total)
    else:
        solver = JacobiSolver(backend="e150-model",
                              cores=(config.cy, config.cx),
                              n_cards=max(config.cards, 1))
    res = solver.solve(problem, config.iterations,
                       compute_answer=config.compute_answers)
    payload = {"gpts": res.gpts, "energy_j": res.energy_j,
               "time_s": res.time_s}
    obs = {"sim_now": res.time_s}
    return payload, obs


def _table8_from_payload(config, seed, payload):
    return payload


def _run_bench_invariants(config, seed) -> Tuple[dict, dict]:
    from repro import bench

    inv = bench.measure_invariants(config.name, config.smoke)
    obs = {k: inv[k] for k in ("events", "sim_now") if k in inv}
    return {"invariants": inv}, obs


def _bench_from_payload(config, seed, payload):
    return payload["invariants"]


def _run_cluster(config, seed) -> Tuple[dict, dict]:
    from repro.cluster.solver import ClusterSolver
    from repro.core.grid import LaplaceProblem
    from repro.cpu.jacobi import jacobi_solve_bf16

    import numpy as np

    res = ClusterSolver(config).solve()
    # The differential check rides inside every sweep point: the stitched
    # multi-card grid vs the single-card BF16 reference, to the bit.
    reference = jacobi_solve_bf16(
        LaplaceProblem(nx=config.nx, ny=config.ny).initial_grid_bf16(),
        config.iterations)
    payload = {
        "nx": config.nx,
        "ny": config.ny,
        "iterations": config.iterations,
        "n_cards": res.n_cards,
        "cards_y": config.cards_y,
        "cards_x": config.cards_x,
        "timing": config.timing,
        "exchange": config.exchange,
        "wall_time_s": res.wall_time_s,
        "energy_j": res.energy_j,
        "gpts": res.gpts,
        "busy_total_s": sum(res.busy_s),
        "stall_total_s": sum(res.stall_s),
        "host_stage_s": res.host_stage_s,
        "exchange_total_s": res.exchange.total_s,
        "exchange_readback_s": res.exchange.readback_s,
        "exchange_memcpy_s": res.exchange.memcpy_s,
        "exchange_writeback_s": res.exchange.writeback_s,
        "exchange_bytes": res.exchange.bytes_moved,
        "restarts": res.restarts,
        "bit_identical": bool(np.array_equal(res.grid_bits, reference)),
    }
    obs = {"sim_now": res.wall_time_s}
    return payload, obs


def _cluster_from_payload(config, seed, payload):
    return payload


register_kind(JobKind("stream", _run_stream, _stream_from_payload))
register_kind(JobKind("cluster", _run_cluster, _cluster_from_payload))
register_kind(JobKind("campaign", _run_campaign_job,
                      _campaign_from_payload))
register_kind(JobKind("table8", _run_table8_row, _table8_from_payload))
register_kind(JobKind("bench_invariants", _run_bench_invariants,
                      _bench_from_payload))

"""Deterministic process-pool execution of sweep jobs.

:func:`run_jobs` takes a list of :class:`~repro.parallel.jobs.JobSpec`
and executes them across ``min(jobs, len(specs))`` worker processes —
an explicit ``-j N`` is honoured even beyond ``os.cpu_count()`` (worker
count never affects results, and oversubscription lets small hosts
exercise the pool); only ``-j 0``/negative resolves to the core count.
The contract that makes parallelism safe for the paper's tables:

* **Stable ordering** — outcomes are reassembled in submission order,
  so every report rendered from them is byte-identical at ``-j 1`` and
  ``-j N``.  (Each sweep point is itself a deterministic simulation;
  the engine only has to not reorder them.)
* **Sequential reference** — ``-j 1`` runs in-process with no pool at
  all; it *is* the sequential path the parallel runs are compared to.
* **Crash isolation** — a worker that dies (hard exit, signal, OOM)
  marks only the job it was running as failed, with the error recorded
  in the fault plane's vocabulary (``sweep.job`` / ``isolated``); a
  replacement worker is spawned and the sweep continues.
* **Observability** — every job yields a :class:`JobRecord` (worker id,
  queue wait, run wall, deterministic ``events``/``sim_now``) that
  ``repro sweep --report`` and the campaign report render.  Wall-clock
  fields are host noise and are never part of byte-compared output.

Results are cached content-addressed (:mod:`repro.parallel.cache`);
cache hits replay the stored invariant payload through the same
``from_payload`` constructor as fresh runs.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.parallel.cache import ResultCache, cache_version, resolve_cache
from repro.parallel.jobs import JobSpec, execute_spec, result_from_payload

__all__ = [
    "JobOutcome",
    "JobRecord",
    "SweepJobError",
    "outcomes_trace",
    "render_job_report",
    "resolve_jobs",
    "run_jobs",
    "set_default_jobs",
    "summary_line",
    "sweep_results",
]


class SweepJobError(RuntimeError):
    """A strict sweep had failed jobs; carries their records."""

    def __init__(self, failures: List["JobOutcome"]):
        self.failures = failures
        lines = [f"{len(failures)} sweep job(s) failed:"]
        for out in failures:
            head = (out.record.error or "unknown error").strip()
            lines.append(f"  job {out.record.index} ({out.spec.kind}, "
                         f"seed {out.spec.seed}): {head.splitlines()[-1]}")
        super().__init__("\n".join(lines))


@dataclass
class JobRecord:
    """Per-job observability: who ran it, how long, what it produced."""

    index: int
    kind: str
    seed: int
    key: str
    cached: bool = False
    ok: bool = False
    worker: Optional[int] = None     #: worker ordinal (None = in-process)
    queue_wait_s: float = 0.0        #: submit -> worker pickup
    run_wall_s: float = 0.0          #: wall time inside the worker
    obs: Dict[str, Any] = field(default_factory=dict)  #: events, sim_now
    error: Optional[str] = None      #: traceback / crash description


@dataclass
class JobOutcome:
    """One job's consumer-facing result plus its record."""

    spec: JobSpec
    result: Any                      #: None when the job failed
    record: JobRecord

    @property
    def ok(self) -> bool:
        return self.record.ok


# --------------------------------------------------------------------------
# job-count resolution
# --------------------------------------------------------------------------

_default_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default for ``jobs=None`` (the CLI ``-j``)."""
    global _default_jobs
    _default_jobs = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count.

    ``None`` falls back to :func:`set_default_jobs`, then the
    ``REPRO_JOBS`` environment variable, then 1 (sequential).  ``0`` or
    negative means "all cores".
    """
    if jobs is None:
        jobs = _default_jobs
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else 1
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


# --------------------------------------------------------------------------
# worker side
# --------------------------------------------------------------------------

def _worker_loop(conn, worker_id: int) -> None:  # pragma: no cover - child
    """One worker: receive ("job", idx, spec), reply (idx, ok, out, t0, t1)."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _tag, idx, spec = msg
        t0 = time.perf_counter()
        try:
            payload, obs = execute_spec(spec)
            ok, out = True, (payload, obs)
        except BaseException:
            ok, out = False, traceback.format_exc()
        t1 = time.perf_counter()
        try:
            conn.send((idx, ok, out, t0, t1))
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _mp_context():
    # fork keeps custom job kinds (registered in the parent) visible in
    # workers and avoids a per-worker interpreter + numpy import; fall
    # back to the platform default where fork does not exist.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


class _Worker:
    """Parent-side handle of one worker process."""

    def __init__(self, ctx, worker_id: int):
        self.id = worker_id
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_loop, args=(child, worker_id),
                                name=f"repro-sweep-{worker_id}",
                                daemon=True)
        self.proc.start()
        child.close()
        self.busy: Optional[int] = None   #: index of the job it is running

    def send_job(self, idx: int, spec: JobSpec) -> bool:
        try:
            self.conn.send(("job", idx, spec))
        except (BrokenPipeError, OSError):
            return False
        self.busy = idx
        return True

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass

    def reap(self, timeout: float = 2.0) -> None:
        self.proc.join(timeout)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.terminate()
            self.proc.join(1.0)
        self.conn.close()


# --------------------------------------------------------------------------
# the engine
# --------------------------------------------------------------------------

def run_jobs(specs: Sequence[JobSpec],
             jobs: Optional[int] = None,
             cache: Union[None, bool, str, ResultCache] = None,
             progress: Optional[Callable[[str], None]] = None
             ) -> List[JobOutcome]:
    """Execute ``specs`` and return their outcomes in submission order.

    ``jobs`` is resolved by :func:`resolve_jobs`; the worker count is
    additionally capped at the number of uncached specs (an explicit
    ``jobs`` value beyond ``os.cpu_count()`` is honoured — see the
    module docstring).
    ``cache`` is resolved by :func:`repro.parallel.cache.resolve_cache`.
    Failed jobs (exception or worker death) come back with
    ``result=None`` and the error recorded; the sweep itself never
    raises for a job failure.
    """
    specs = list(specs)
    store = resolve_cache(cache)
    version = cache_version() if store is not None else None
    t_submit = time.perf_counter()

    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    keys: List[str] = []
    todo: List[int] = []
    for idx, spec in enumerate(specs):
        key = spec.key(version) if store is not None else ""
        keys.append(key)
        entry = store.get(key) if store is not None else None
        if entry is not None:
            record = JobRecord(index=idx, kind=spec.kind, seed=spec.seed,
                               key=key, cached=True, ok=True,
                               obs=entry.get("obs", {}))
            outcomes[idx] = JobOutcome(
                spec, result_from_payload(spec, entry["data"]), record)
        else:
            todo.append(idx)
    if progress is not None and store is not None:
        progress(f"sweep cache: {len(specs) - len(todo)}/{len(specs)} "
                 f"hit(s) in {store.root}")

    # An explicit -j N is honoured even beyond os.cpu_count() (worker
    # count never affects results, and oversubscription lets small hosts
    # exercise the pool); -j 0 / None resolve via resolve_jobs.
    n_workers = min(resolve_jobs(jobs), max(1, len(todo)))
    if todo:
        if n_workers <= 1:
            _run_todo_sequential(specs, keys, outcomes, todo, t_submit)
        else:
            _run_todo_parallel(specs, keys, outcomes, todo, t_submit,
                               n_workers, progress)

    if store is not None:
        for idx in todo:
            out = outcomes[idx]
            if out is not None and out.record.ok:
                payload = getattr(out.record, "_payload", None)
                if payload is not None:
                    store.put(keys[idx], specs[idx].kind, specs[idx].config,
                              specs[idx].seed,
                              {"data": payload, "obs": out.record.obs})

    assert all(o is not None for o in outcomes)
    return outcomes  # type: ignore[return-value]


def _make_outcome(spec: JobSpec, idx: int, key: str, ok: bool, out,
                  worker: Optional[int], queue_wait: float,
                  wall: float) -> JobOutcome:
    record = JobRecord(index=idx, kind=spec.kind, seed=spec.seed, key=key,
                       worker=worker, queue_wait_s=queue_wait,
                       run_wall_s=wall)
    if ok:
        payload, obs = out
        record.ok = True
        record.obs = obs
        record._payload = payload  # type: ignore[attr-defined]
        return JobOutcome(spec, result_from_payload(spec, payload), record)
    record.error = out
    return JobOutcome(spec, None, record)


def _run_todo_sequential(specs, keys, outcomes, todo, t_submit) -> None:
    for idx in todo:
        spec = specs[idx]
        t0 = time.perf_counter()
        try:
            out = execute_spec(spec)
            ok = True
        except BaseException:
            out, ok = traceback.format_exc(), False
        wall = time.perf_counter() - t0
        outcomes[idx] = _make_outcome(spec, idx, keys[idx], ok, out,
                                      None, t0 - t_submit, wall)


def _run_todo_parallel(specs, keys, outcomes, todo, t_submit, n_workers,
                       progress) -> None:
    ctx = _mp_context()
    pending = deque(todo)
    remaining = set(todo)
    workers: List[_Worker] = []
    next_id = 0
    spawn_budget = len(todo) + n_workers  # respawn guard

    def spawn() -> Optional[_Worker]:
        nonlocal next_id, spawn_budget
        if spawn_budget <= 0:  # pragma: no cover - runaway crash guard
            return None
        spawn_budget -= 1
        w = _Worker(ctx, next_id)
        next_id += 1
        workers.append(w)
        return w

    def dispatch(w: _Worker) -> None:
        while pending and w.busy is None and w.proc.is_alive():
            idx = pending.popleft()
            if not w.send_job(idx, specs[idx]):
                pending.appendleft(idx)
                return

    for _ in range(min(n_workers, len(todo))):
        w = spawn()
        if w is not None:
            dispatch(w)

    try:
        while remaining:
            handles = [w.conn for w in workers if w.busy is not None]
            handles += [w.proc.sentinel for w in workers
                        if w.busy is not None]
            if not handles:
                # every live worker is idle but jobs remain: dispatch or
                # replace (all workers died with jobs still queued).
                alive = [w for w in workers if w.proc.is_alive()]
                if not alive:
                    alive = [w for w in (spawn(),) if w is not None]
                    if not alive:  # pragma: no cover - spawn guard hit
                        for idx in list(remaining):
                            outcomes[idx] = _make_outcome(
                                specs[idx], idx, keys[idx], False,
                                "worker respawn budget exhausted",
                                None, 0.0, 0.0)
                            remaining.discard(idx)
                        break
                for w in alive:
                    dispatch(w)
                continue
            ready = connection.wait(handles, timeout=1.0)
            for w in workers:
                if w.busy is None:
                    continue
                if w.conn in ready:
                    try:
                        idx, ok, out, t0, t1 = w.conn.recv()
                    except (EOFError, OSError):
                        _mark_crashed(w, specs, keys, outcomes, remaining)
                        continue
                    queue_wait = t0 - t_submit
                    outcomes[idx] = _make_outcome(
                        specs[idx], idx, keys[idx], ok, out, w.id,
                        queue_wait, t1 - t0)
                    remaining.discard(idx)
                    w.busy = None
                    dispatch(w)
                elif w.proc.sentinel in ready and not w.proc.is_alive():
                    # the worker died while owning a job: poll the pipe
                    # once (the result may have been sent just before
                    # death), then isolate the job and move on.
                    if w.conn.poll(0):
                        continue  # result pending; next loop picks it up
                    _mark_crashed(w, specs, keys, outcomes, remaining)
            # keep the pool at strength while jobs are pending
            live = [w for w in workers if w.proc.is_alive()]
            while pending and len(live) < n_workers:
                w = spawn()
                if w is None:
                    break
                live.append(w)
                dispatch(w)
    finally:
        for w in workers:
            if w.proc.is_alive():
                w.stop()
        for w in workers:
            w.reap()


def _mark_crashed(w: _Worker, specs, keys, outcomes, remaining) -> None:
    """A dead worker isolates (fails) exactly the job it was running."""
    idx = w.busy
    w.busy = None
    if idx is None or idx not in remaining:  # pragma: no cover
        return
    code = w.proc.exitcode
    msg = (f"worker {w.id} died while running job {idx} "
           f"(exit code {code}); job isolated, sweep continuing")
    outcomes[idx] = _make_outcome(specs[idx], idx, keys[idx], False, msg,
                                  w.id, 0.0, 0.0)
    remaining.discard(idx)


# --------------------------------------------------------------------------
# consumer helpers
# --------------------------------------------------------------------------

def sweep_results(specs: Sequence[JobSpec],
                  jobs: Optional[int] = None,
                  cache: Union[None, bool, str, ResultCache] = None,
                  progress: Optional[Callable[[str], None]] = None,
                  strict: bool = True) -> List[Any]:
    """Run ``specs`` and return just the results, in submission order.

    With ``strict`` (the default for table drivers, which need every
    cell), any failed job raises :class:`SweepJobError` naming them all.
    """
    outcomes = run_jobs(specs, jobs=jobs, cache=cache, progress=progress)
    failures = [o for o in outcomes if not o.record.ok]
    if failures and strict:
        raise SweepJobError(failures)
    return [o.result for o in outcomes]


def outcomes_trace(outcomes: Sequence[JobOutcome]):
    """Job failures as a fault-plane trace (the faults vocabulary).

    Failed sweep jobs are recorded the way the fault plane records
    injected faults: ``kind="sweep.job"``, ``action="isolated"`` — so
    campaign tooling can fold sweep-level failures into its reports.
    """
    from repro.analysis.resilience import FaultTrace

    trace = FaultTrace()
    for out in outcomes:
        if not out.record.ok:
            head = (out.record.error or "").strip().splitlines()
            trace.record(-1.0, "sweep.job", f"job{out.record.index}",
                         "isolated", head[-1] if head else "worker died")
    return trace


def render_job_report(outcomes: Sequence[JobOutcome]) -> str:
    """Per-job observability table (``repro sweep --report``).

    Worker ids and wall-clock columns are host- and schedule-dependent;
    this table is for humans and is **not** part of the byte-identical
    determinism contract (events / sim_now are).
    """
    from repro.analysis.report import Table

    table = Table("Sweep job report (wall-clock columns are host noise)",
                  ["job", "kind", "seed", "status", "worker",
                   "queue wait s", "run wall s", "events", "sim_now"])
    for out in outcomes:
        r = out.record
        status = "cached" if r.cached else ("ok" if r.ok else "FAILED")
        table.add_row(
            r.index, r.kind, r.seed, status,
            "-" if r.worker is None else r.worker,
            f"{r.queue_wait_s:.4f}", f"{r.run_wall_s:.4f}",
            r.obs.get("events", "-"), r.obs.get("sim_now", "-"))
    return table.render()


def summary_line(outcomes: Sequence[JobOutcome], wall_s: float,
                 jobs: Optional[int] = None) -> str:
    """One stderr-friendly status line (never byte-compared)."""
    n = len(outcomes)
    hits = sum(1 for o in outcomes if o.record.cached)
    failures = sum(1 for o in outcomes if not o.record.ok)
    return (f"sweep: n={n} jobs={resolve_jobs(jobs)} hits={hits} "
            f"failures={failures} wall={wall_s:.2f}s")

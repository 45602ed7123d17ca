"""The multi-tenant solve service: an event-driven loop on ``sim.engine``.

:class:`SolveService` multiplexes :class:`~repro.serve.request.SolveRequest`
streams over a :class:`~repro.serve.pool.WorkerPool`.  Everything —
arrivals, queueing, batching, launches, faults, retries, health
transitions — happens in *simulated* time on one
:class:`~repro.sim.engine.Simulator`, so a full load test is a
deterministic discrete-event simulation: byte-identical across repeat
runs and across ``-j`` settings (worker processes are only used by the
functional post-pass, which reassembles in submission order).

Life of a request::

    submit() ── admission control ──> bounded priority queue
        │  (queue_full / deadline_unmeetable -> AdmissionError + shed
        │   outcome; nothing is silently dropped)
        └─> dispatcher (a sim process) packs compatible small grids into
            one multi-core launch (scheduler.plan_batch / split_domain),
            hands CPU-backend requests to a CPU worker, or — when
            ``PoolConfig.card_point_capacity`` is set and the grid
            exceeds it — reserves pool members one by one as they free
            until the oversized request can span them as a single
            cluster launch (:mod:`repro.cluster`'s halo-exchange
            timeline); small tenants keep packing onto the unreserved
            spares meanwhile.  A grid needing more cards than the pool
            owns is shed ``too_large`` at admission
               └─> launch occupies the pool member for the modelled
                   service time; chaos faults stretch it (NoC, ECC
                   scrubs) or checkpoint/restart it on a remapped core
                   set (core failures); requests complete as their core
                   slices finish
                      └─> a hang trips the per-launch watchdog; a
                          detected-SDC readback discards the corrupted
                          answer — either way the victims retry under a
                          per-request budget with deterministic
                          exponential backoff, degrade to the CPU
                          backend, or shed with a typed reason.  Every
                          fault feeds the member's health breaker
                          (healthy → suspect → quarantined →
                          reintegrating); quarantined members are
                          drained, canary-probed and reintegrated (an
                          index-keyed fault fires on the matching
                          launch, tenant or canary).  Each step is
                          recorded on the FaultTrace.

Deadline semantics: a queued request whose absolute deadline passes is
shed ``deadline_expired``.  A *first* attempt in flight at its deadline
runs to completion (reported with ``deadline_met == False``); a *retry*
in flight at its deadline is abandoned — the launch finishes and its
result is discarded loudly (``abandoned_launches`` counter + trace
record), and the request's single terminal outcome is the
``deadline_expired`` shed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.serve.health import HealthConfig
from repro.cluster.topology import card_splits
from repro.serve.pool import (CpuWorker, DeviceMember, PoolConfig, ServeHang,
                              WorkerPool, batch_service_s,
                              best_case_service_s, cluster_cards_needed,
                              cluster_service_time, cpu_service_time)
from repro.serve.request import (AdmissionError, RequestOutcome,
                                 SolveRequest)
from repro.serve.scheduler import (BatchPlan, BoundedPriorityQueue,
                                   SchedulerConfig, plan_batch)
from repro.serve.telemetry import ServeMetrics
from repro.sim import Event, Simulator

__all__ = ["SolveService"]


class _RequestState:
    """Mutable per-request bookkeeping keyed by rid.

    ``request`` is the *original* submission — a degrade swaps the queued
    copy's backend, but outcomes (and recorded traces) always carry the
    request as the tenant wrote it, so a replay resubmits it verbatim.
    """

    __slots__ = ("request", "submit_s", "deadline_abs", "retries",
                 "degraded", "done", "sdc_detected", "restarts")

    def __init__(self, request: SolveRequest, submit_s: float,
                 deadline_abs: Optional[float], done: Event):
        self.request = request
        self.submit_s = submit_s
        self.deadline_abs = deadline_abs
        self.retries = 0
        self.degraded = False
        self.done = done
        self.sdc_detected = 0
        self.restarts = 0


class _Struck(NamedTuple):
    """What struck one device launch; every fault is taken at its start."""

    launch: str                       #: e.g. ``e150-0.launch3``
    restarts: int                     #: checkpoint-restarts, every request
    flips: Dict[int, List[DeviceMember]]  #: request index -> flip members
    hung: List[DeviceMember]          #: stalled members (no request ends)
    watchdog_s: float                 #: when the watchdog catches a hang
    #: ``(fault kind, seconds it added)`` per NoC, ECC and core-failure
    #: fault, in the order taken (a hang adds ``watchdog_s``)
    fault_s: List[Tuple[str, float]]


#: fraction of a launch elapsed when a planned core failure strikes.
_STRIKE_FRACTION = 0.5


class SolveService:
    """Admission control + batching scheduler + device-pool executor."""

    def __init__(self, sim: Simulator,
                 scheduler: Optional[SchedulerConfig] = None,
                 pool: Optional[PoolConfig] = None,
                 hangs: Sequence[ServeHang] = (),
                 costs: CostModel = DEFAULT_COSTS,
                 chaos=None,
                 health: Optional[HealthConfig] = None):
        self.sim = sim
        self.scheduler_cfg = scheduler or SchedulerConfig()
        self.pool_cfg = pool or PoolConfig()
        self.costs = costs
        self.health_cfg = health or HealthConfig(
            suspect_holdoff_s=self.pool_cfg.hang_cooldown_s)
        self.queue = BoundedPriorityQueue(self.scheduler_cfg)
        self.pool = WorkerPool(self.pool_cfg, hangs, chaos=chaos,
                               health=self.health_cfg)
        self.metrics = ServeMetrics()
        self.outcomes: List[RequestOutcome] = []
        self._states: Dict[int, _RequestState] = {}
        self._batch_seq = 0
        #: oversized head-of-line request waiting for enough members,
        #: and the members already held for it.
        self._pending_cluster: Optional[SolveRequest] = None
        self._reserved: List[DeviceMember] = []
        self._kick = sim.event("serve.kick")
        sim.process(self._dispatch_loop(), name="serve.dispatcher")

    # -- admission ---------------------------------------------------------
    def best_case_service_s(self, req: SolveRequest) -> float:
        """Lower bound on service time: the whole pool member to itself."""
        return best_case_service_s(req, self.pool_cfg, self.costs)

    def submit(self, req: SolveRequest) -> Event:
        """Admit ``req`` (or shed it with a typed :class:`AdmissionError`).

        Returns an :class:`~repro.sim.engine.Event` that succeeds with the
        request's :class:`RequestOutcome` when it completes.  A rejected
        request raises — and is *also* recorded as a shed outcome, so the
        report never loses it.
        """
        now = self.sim.now
        if req.rid in self._states:
            raise AdmissionError("invalid", f"duplicate rid {req.rid}")
        if req.backend == "device" and not self.pool.devices:
            raise AdmissionError("invalid", "pool has no devices")
        if req.backend == "cpu" and not self.pool.cpus:
            raise AdmissionError("invalid", "pool has no CPU workers")
        need = cluster_cards_needed(req, self.pool_cfg.card_point_capacity)
        if need > 1:
            if need > len(self.pool.devices):
                self._record_shed(req, now, "too_large")
                raise AdmissionError(
                    "too_large",
                    f"{req.points} points need {need} cards; pool has "
                    f"{len(self.pool.devices)}")
            try:
                cluster_service_time(req, need, self.pool_cfg, self.costs)
            except ValueError as exc:
                self._record_shed(req, now, "too_large")
                raise AdmissionError("too_large", str(exc)) from exc
        if req.deadline_s is not None:
            best = self.best_case_service_s(req)
            if best > req.deadline_s:
                self._record_shed(req, now, "deadline_unmeetable")
                raise AdmissionError(
                    "deadline_unmeetable",
                    f"best-case service {best:.6g}s exceeds deadline "
                    f"{req.deadline_s:.6g}s")
        try:
            self.queue.push(req)
        except AdmissionError as exc:
            self._record_shed(req, now, exc.reason)
            raise
        deadline_abs = None if req.deadline_s is None \
            else now + req.deadline_s
        done = self.sim.event(f"serve.done.{req.rid}")
        self._states[req.rid] = _RequestState(req, now, deadline_abs, done)
        self.metrics.bump("submitted")
        self.metrics.sample_depth(now, len(self.queue))
        self._wake()
        return done

    def _record_shed(self, req: SolveRequest, now: float,
                     reason: str) -> None:
        self.metrics.bump("shed")
        self.metrics.bump(f"shed.{reason}")
        self.metrics.trace.record(now, "serve.admission", f"req{req.rid}",
                                  "shed", reason)
        self.outcomes.append(RequestOutcome(
            request=req, status="shed", backend_used=None, worker=None,
            cores=None, batch_id=None, batch_size=0, submit_s=now,
            start_s=None, finish_s=None, retries=0, shed_reason=reason))

    # -- dispatch ----------------------------------------------------------
    def _wake(self) -> None:
        if not self._kick.triggered:
            self._kick.succeed()

    def _wake_at(self, when: float) -> None:
        """Schedule a dispatcher wake-up at absolute time ``when``."""
        self.sim.timeout_at(when).add_callback(lambda _e: self._wake())

    def _dispatch_loop(self):
        while True:
            while self._try_dispatch():
                pass
            yield self._kick
            self._kick = self.sim.event("serve.kick")

    def _try_dispatch(self) -> bool:
        """Start at most one launch; True if anything was dispatched."""
        now = self.sim.now
        if not len(self.queue) and self._pending_cluster is None:
            return False
        self._shed_expired(now)
        cpu = self.pool.free_cpu(now)
        if cpu is not None:
            picked = self.queue.pop_where(
                lambda r: r.backend == "cpu", limit=1)
            if picked:
                self._launch_cpu(cpu, picked[0])
                return True
        if self._dispatch_cluster(now):
            return True
        dev = self.pool.free_device(now)
        if dev is not None:
            plan = self._form_device_batch(dev)
            if plan is not None:
                self._launch([dev], plan, batch_service_s(plan, self.costs))
                return True
        return False

    def _release_reservations(self) -> List[DeviceMember]:
        """Drop the pending span; free and return the members it held."""
        devs, self._reserved = self._reserved, []
        self._pending_cluster = None
        for dev in devs:
            dev.reserved = False
        return devs

    def _dispatch_cluster(self, now: float) -> bool:
        """Reserve members for an oversized head-of-line request; launch
        the span once enough are held.  True only when a span launched —
        merely reserving a member falls through so small tenants keep
        packing onto the unreserved spares."""
        cap = self.pool_cfg.card_point_capacity
        if cap is None:
            return False
        if self._pending_cluster is None:
            head = self.queue.peek_where(lambda r: r.backend == "device")
            if head is None or cluster_cards_needed(head, cap) <= 1:
                return False
            self.queue.pop_where(lambda r: r.rid == head.rid, limit=1)
            self._pending_cluster = head
            need = cluster_cards_needed(head, cap)
            self.metrics.trace.record(now, "serve.cluster",
                                      f"req{head.rid}", "reserving",
                                      f"span={need}card(s)")
            state = self._states.get(head.rid)
            if state is not None and state.deadline_abs is not None:
                self._wake_at(state.deadline_abs)
        req = self._pending_cluster
        state = self._states.get(req.rid)
        if state is None:
            self._release_reservations()
            return False
        if state.deadline_abs is not None and state.deadline_abs < now:
            self._release_reservations()
            self._terminal_shed(state, "deadline_expired",
                               f"req{req.rid}", "expired-awaiting-cluster")
            return False
        need = cluster_cards_needed(req, cap)
        while len(self._reserved) < need:
            dev = self.pool.free_device(now)
            if dev is None:
                return False
            dev.reserved = True
            self._reserved.append(dev)
        devs = self._release_reservations()
        self.metrics.trace.record(now, "serve.cluster", f"req{req.rid}",
                                  "spanned", "+".join(d.name for d in devs))
        self._launch(devs, BatchPlan((req,), (card_splits(need),)),
                     [cluster_service_time(req, need, self.pool_cfg,
                                           self.costs)])
        return True

    def _shed_expired(self, now: float) -> None:
        """Drop queued requests whose absolute deadline already passed."""
        expired = self.queue.pop_where(
            lambda r: (self._states[r.rid].deadline_abs is not None
                       and self._states[r.rid].deadline_abs < now),
            limit=self.scheduler_cfg.queue_capacity
            * self.scheduler_cfg.n_priorities)
        for req in expired:
            state = self._states[req.rid]
            self._terminal_shed(state, "deadline_expired",
                               f"req{req.rid}", "expired-in-queue")

    def _fits_one_member(self, req: SolveRequest) -> bool:
        """Whether a device request may run on a single pool member.

        Oversized requests (cluster spans) must never be popped into a
        single-member launch or packed into its batch — they wait for
        the cluster path even when another span already holds the
        pending slot.
        """
        return cluster_cards_needed(
            req, self.pool_cfg.card_point_capacity) <= 1

    def _form_device_batch(self, dev: DeviceMember) -> Optional[BatchPlan]:
        head = self.queue.pop_where(
            lambda r: r.backend == "device" and self._fits_one_member(r),
            limit=1)
        if not head:
            return None
        first = head[0]
        limit = self.scheduler_cfg.batch_point_limit
        batch = [first]
        if first.points <= limit:
            room = min(self.scheduler_cfg.max_batch, dev.grid[0]) - 1
            if room > 0:
                # only compatible kinds share a launch: mixed-workload
                # traffic packs matmul with matmul, fft with fft, ...
                batch += self.queue.pop_where(
                    lambda r: (r.backend == "device"
                               and r.workload == first.workload
                               and r.points <= limit
                               and self._fits_one_member(r)), limit=room)
        return plan_batch(batch, dev.grid)

    # -- launches ----------------------------------------------------------
    def _launch_cpu(self, cpu: CpuWorker, req: SolveRequest) -> None:
        cpu.busy = True
        self.metrics.bump("launches.cpu")
        self.metrics.sample_depth(self.sim.now, len(self.queue))
        self.sim.process(self._run_cpu(cpu, req),
                         name=f"serve.{cpu.name}.req{req.rid}")

    def _run_cpu(self, cpu: CpuWorker, req: SolveRequest):
        t0 = self.sim.now
        service = cpu_service_time(req, cpu.threads)
        yield self.sim.timeout(service)
        cpu.busy_s += service
        cpu.launches += 1
        cpu.busy = False
        self._complete(req, worker=cpu.name, backend_used="cpu",
                       cores=None, batch_id=None, batch_size=1, start_s=t0)
        self._wake()

    def _launch(self, devs: List[DeviceMember], plan: BatchPlan,
                base_s: Sequence[float]) -> None:
        """Start one launch of ``plan`` on every member of ``devs``.

        ``base_s`` is each request's fault-free service time.  A batch is
        one member serving N packed requests; a cluster span is M members
        serving one request on its card grid.
        """
        batch_id = self._batch_seq
        self._batch_seq += 1
        for dev in devs:
            dev.busy = True
        self.metrics.bump("launches.device" if len(devs) == 1
                          else "launches.cluster")
        if len(plan) >= 2:
            self.metrics.bump("batches.multi")
            self.metrics.bump("batched_requests", by=len(plan))
        self.metrics.sample_depth(self.sim.now, len(self.queue))
        worker = "+".join(d.name for d in devs)
        self.sim.process(self._run_batch(devs, plan, base_s, batch_id),
                         name=f"serve.{worker}.batch{batch_id}")

    def _consume_timed(self, dev: DeviceMember, t0: float,
                       fault_s: List[Tuple[str, float]]) -> float:
        """Fold pending NoC/ECC faults into a launch-start stretch,
        noting each one's seconds in ``fault_s``."""
        stretch = 0.0
        for kind, fault in dev.take_timed(t0):
            if kind == "noc":
                extra = fault.delay_s if fault.kind == "delay" \
                    else self.pool_cfg.noc_drop_penalty_s
                self.metrics.bump(f"chaos.noc.{fault.kind}")
                fault_s.append((f"noc.{fault.kind}", extra))
                self.metrics.trace.record(
                    t0, f"noc.{fault.kind}", f"{dev.name}.noc{fault.noc_id}",
                    "consumed", f"stretch={extra:.6g}s")
                if fault.kind == "drop":
                    # A drop means retransmits — breaker-relevant.
                    self._note_fault(dev, "noc.drop")
            else:
                extra = self.pool_cfg.scrub_stall_s
                self.metrics.bump("chaos.ecc.scrub")
                fault_s.append(("dram.ecc", extra))
                self.metrics.trace.record(
                    t0, "dram.bitflip",
                    f"{dev.name}.bank{fault.bank_id}+0x{fault.addr:x}",
                    "corrected", f"ecc-scrub stall={extra:.6g}s")
            stretch += extra
        return stretch

    def _run_launch(self, devs: List[DeviceMember], plan: BatchPlan,
                    base_s: Sequence[float], finished):
        """Run one device launch on ``devs`` through the fault pipeline.

        Every launch (tenant batch, cluster span, canary) takes its
        members' armed faults here and nowhere else, and keeps them all
        busy: a fault on *any* member hits the launch, as a multi-card
        launch stalls on its sickest card.  NoC drops and core failures
        feed the breaker here; the caller reacts to a hang or a flip in
        ``finished(struck, i)``, run as request ``i``'s slice finishes
        (none on a hung launch), and in the returned :class:`_Struck`,
        which also says how many seconds each fault added: the caller
        charges them as fault latency only if a tenant waited on them.
        """
        t0 = self.sim.now
        index = {dev: dev.launches for dev in devs}
        for dev in devs:
            dev.launches += 1
            dev.busy = True
        launch = "+".join(f"{d.name}.launch{index[d]}" for d in devs)
        factor = max(d.capacity_factor() for d in devs)
        times = [t * factor for t in base_s]
        restarts = 0
        fault_s: List[Tuple[str, float]] = []

        stretch = sum(self._consume_timed(dev, t0, fault_s) for dev in devs)
        if stretch:
            times = [t + stretch for t in times]

        # Core failures striking mid-launch: the launch restarts from the
        # last checkpoint on the struck member's remapped (smaller) core
        # set; later launches on that member run at the degraded capacity.
        for dev in devs:
            for death in dev.take_core_failures(index[dev]):
                before = max(times)
                old_factor = max(d.capacity_factor() for d in devs)
                dev.fail_core()
                ratio = max(d.capacity_factor() for d in devs) / old_factor
                ckpt = self.pool_cfg.checkpoint_every
                new_times = []
                for req, t_full in zip(plan.requests, times):
                    iters = req.effective_iterations
                    done_iters = (int(_STRIKE_FRACTION * iters)
                                  // ckpt) * ckpt
                    redo = 1.0 - done_iters / iters
                    new_times.append(_STRIKE_FRACTION * t_full
                                     + self.pool_cfg.restart_overhead_s
                                     + redo * t_full * ratio)
                times = new_times
                restarts += 1
                self.metrics.bump("chaos.core_failure")
                self.metrics.bump("restarts")
                fault_s.append(("core.failure", max(times) - before))
                self.metrics.trace.record(
                    t0, "core.failure",
                    f"{dev.name}.core({death.iy},{death.ix})", "injected",
                    f"launch{index[dev]}")
                self.metrics.trace.record(
                    t0, "core.failure", f"{dev.name}.launch{index[dev]}",
                    "remapped",
                    f"checkpoint-restart.{dev.failed_cores}core(s)-out")
                self._note_fault(dev, "core_failure")

        expected = max(times)
        hung = [dev for dev in devs if dev.take_hang(t0, index[dev])]
        # SDC armed for this launch: each flip lands in one request's
        # slice and is caught at readback by the range check (the plan
        # targets the detectable exponent bit — see faults.plan), or is
        # masked when the launch hangs and reads nothing back.
        flips: Dict[int, List[DeviceMember]] = {}
        for dev in devs:
            for flip in dev.take_sdc(index[dev]):
                flips.setdefault(flip.row % len(plan), []).append(dev)
        struck = _Struck(launch, restarts, flips, hung,
                         self.pool_cfg.watchdog_factor * expected, fault_s)
        if hung:
            yield self.sim.timeout(struck.watchdog_s)
            for dev in devs:
                dev.busy_s += struck.watchdog_s
                dev.busy = False
            masked = sum(len(hits) for hits in flips.values())
            if masked:
                self.metrics.bump("sdc.masked", by=masked)
                self.metrics.trace.record(self.sim.now, "solver.sdc", launch,
                                          "masked", f"{masked}flip(s).hung")
            return struck

        # Requests complete as their core slices finish (staggered); the
        # members free when the slowest slice does.
        order = sorted(range(len(plan)), key=lambda i: (times[i], i))
        elapsed = 0.0
        for i in order:
            if times[i] > elapsed:
                yield self.sim.timeout(times[i] - elapsed)
                elapsed = times[i]
            finished(struck, i)
        if expected > elapsed:
            yield self.sim.timeout(expected - elapsed)
        for dev in devs:
            dev.busy_s += expected
            dev.busy = False
        return struck

    def _run_batch(self, devs: List[DeviceMember], plan: BatchPlan,
                   base_s: Sequence[float], batch_id: int):
        """A batch or span launch: each request completes or retries."""
        t0 = self.sim.now
        worker = "+".join(d.name for d in devs)

        def react(struck: _Struck, i: int) -> None:
            req = plan.requests[i]
            hits = [] if struck.hung else struck.flips.get(i, [])
            state = self._states.get(req.rid)
            if state is not None:
                state.restarts += struck.restarts
                state.sdc_detected += len(hits)
            if struck.hung:
                self._retry_or_degrade(req, worker, why="hang")
                return
            if not hits:
                self._complete(req, worker=worker, backend_used="device",
                               cores=plan.allocations[i], batch_id=batch_id,
                               batch_size=len(plan), start_s=t0)
                return
            self.metrics.bump("sdc.injected", by=len(hits))
            self.metrics.bump("sdc.detected", by=len(hits))
            where = f"req{req.rid}@{struck.launch}"
            self.metrics.trace.record(self.sim.now, "solver.sdc", where,
                                      "injected", f"{len(hits)}flip(s).bit14")
            self.metrics.trace.record(self.sim.now, "solver.sdc", where,
                                      "detected", "range-check@readback")
            for dev in dict.fromkeys(hits):
                self._note_fault(dev, "sdc")
            self._retry_or_degrade(req, worker, why="sdc")

        struck = yield from self._run_launch(devs, plan, base_s, react)
        for kind, seconds in struck.fault_s:
            self.metrics.attribute(kind, seconds)
        if struck.hung:
            self.metrics.attribute("hang", struck.watchdog_s)
            self.metrics.bump("hangs")
            self.metrics.trace.record(
                self.sim.now, "serve.hang", struck.launch, "detected",
                f"watchdog@{struck.watchdog_s:.6g}s."
                f"{len(struck.hung)}stall(s)")
            for dev in struck.hung:
                self._note_fault(dev, "hang")
            for i in range(len(plan)):
                react(struck, i)
        elif not (struck.restarts or struck.flips):
            for dev in devs:
                self._transition(dev, dev.health.note_success(self.sim.now),
                                 "clean")
        self._wake()

    # -- health lifecycle --------------------------------------------------
    def _note_fault(self, dev: DeviceMember, kind: str) -> None:
        """Feed the member's breaker; record and act on transitions."""
        transition = dev.health.note_fault(self.sim.now, kind)
        if dev.health.state == "suspect":
            # Every fault extends the holdoff — schedule the wake even
            # without a transition, or a queue with every member resting
            # would starve (no other event would rouse the dispatcher).
            self._wake_at(dev.health.held_until)
        self._transition(dev, transition, kind)

    def _transition(self, dev: DeviceMember, transition, why: str) -> None:
        """Count, record and act on a breaker transition (``None``: none)."""
        if transition is None:
            return
        frm, to = transition
        self.metrics.bump(f"health.{frm}->{to}")
        if to == "healthy" and dev.health.mttr_samples:
            why += f".mttr={dev.health.mttr_samples[-1]:.6g}s"
        self.metrics.trace.record(self.sim.now, "health.transition",
                                  dev.name, to, f"from={frm}.{why}")
        if to == "quarantined":
            self.sim.process(
                self._probe_quarantined(dev, dev.health.epoch),
                name=f"serve.canary.{dev.name}.e{dev.health.epoch}")

    def _probe_quarantined(self, dev: DeviceMember, epoch: int):
        """Drain a quarantined member, canary-probe it, reintegrate it.

        A canary is a one-request launch through :meth:`_run_launch`, so
        it takes the member's armed faults exactly as a tenant launch
        does — a wedged, corrupting or core-failing member fails its
        probes (and stays quarantined) until the fault plan drains.
        """
        h = dev.health
        cfg = self.health_cfg
        canary = plan_batch([SolveRequest(
            rid=0, nx=cfg.canary_nx, ny=cfg.canary_ny,
            iterations=cfg.canary_iterations)], dev.grid)
        while dev.busy:                       # drain the in-flight launch
            yield self.sim.timeout(cfg.probe_interval_s)
        yield self.sim.timeout(cfg.probe_delay_s)
        passes = 0
        while h.state == "quarantined" and h.epoch == epoch:
            self.metrics.bump("canary.run")
            struck = yield from self._run_launch(
                [dev], canary, batch_service_s(canary, self.costs),
                lambda _struck, _i: None)
            why = ("hang" if struck.hung else "sdc" if struck.flips
                   else "core_failure" if struck.restarts else None)
            if why:
                passes = 0
                self.metrics.bump("canary.failed")
                if why != "core_failure":   # that one was noted as it struck
                    h.note_fault(self.sim.now, f"canary.{why}")
                self.metrics.trace.record(self.sim.now, "serve.canary",
                                          struck.launch, "failed", why)
                yield self.sim.timeout(cfg.probe_delay_s)
                continue
            passes += 1
            self.metrics.trace.record(self.sim.now, "serve.canary",
                                      struck.launch, "passed",
                                      f"{passes}/{cfg.canary_passes}")
            if passes >= cfg.canary_passes:
                self._transition(dev, h.to_reintegrating(self.sim.now),
                                 f"canaries={cfg.canary_passes}")
                self._wake()
                return
            yield self.sim.timeout(cfg.probe_interval_s)

    # -- retries and terminal outcomes -------------------------------------
    def _retry_or_degrade(self, req: SolveRequest, worker: str,
                          why: str = "hang") -> None:
        state = self._states.get(req.rid)
        now = self.sim.now
        where = f"req{req.rid}@{worker}"
        if state is None:
            # The request already reached a terminal outcome (deadline
            # expired mid-launch); account the wasted work loudly.
            self.metrics.bump("abandoned_launches")
            self.metrics.trace.record(now, "serve.retry", where,
                                      "abandoned", f"{why}.no-live-request")
            return
        if state.deadline_abs is not None and state.deadline_abs <= now:
            self._terminal_shed(state, "deadline_expired", where,
                               f"expired-mid-{why}")
            return
        state.retries += 1
        if state.retries <= self.pool_cfg.max_retries:
            backoff = self.pool_cfg.retry_backoff_s \
                * 2 ** (state.retries - 1)
            self.metrics.bump("retries")
            self.metrics.attribute("retry_backoff", backoff)
            self.metrics.trace.record(
                now, "serve.hang" if why == "hang" else "solver.sdc",
                where, "retried",
                f"attempt{state.retries}.backoff={backoff:.6g}s")
            self.sim.timeout(backoff).add_callback(
                lambda _e, r=req: self._requeue(r))
        elif self.pool.cpus:
            # Counted once, at completion, via the "degraded" status.
            self.metrics.bump("retry_budget.exhausted")
            state.degraded = True
            self.metrics.trace.record(now, "serve.hang", where,
                                      "degraded", "to-cpu")
            self.queue.push_front(req.degraded())
        else:
            # No CPU fallback configured: report the loss loudly.
            self.metrics.bump("retry_budget.exhausted")
            self._terminal_shed(state, "retries_exhausted", where, why)

    def _requeue(self, req: SolveRequest) -> None:
        """Backoff elapsed: put the retry at the head of its class."""
        state = self._states.get(req.rid)
        if state is None:
            return
        now = self.sim.now
        if state.deadline_abs is not None and state.deadline_abs <= now:
            self._terminal_shed(state, "deadline_expired",
                               f"req{req.rid}", "expired-in-backoff")
            return
        self.queue.push_front(req)
        self._wake()

    def _terminal_shed(self, state: _RequestState, reason: str,
                       where: str, detail: str = "") -> None:
        """The single terminal shed path: outcome + counter + trace."""
        rid = state.request.rid
        self._states.pop(rid, None)
        now = self.sim.now
        self.metrics.bump("shed")
        self.metrics.bump(f"shed.{reason}")
        kind = "serve.deadline" if reason == "deadline_expired" \
            else "serve.shed"
        self.metrics.trace.record(now, kind, where, "shed",
                                  detail or reason)
        self.outcomes.append(RequestOutcome(
            request=state.request, status="shed", backend_used=None,
            worker=None, cores=None, batch_id=None, batch_size=0,
            submit_s=state.submit_s, start_s=None, finish_s=None,
            retries=state.retries, shed_reason=reason,
            sdc_detected=state.sdc_detected, restarts=state.restarts))
        state.done.fail(AdmissionError(reason, f"req{rid}"))

    def _complete(self, req: SolveRequest, worker: str, backend_used: str,
                  cores, batch_id, batch_size: int, start_s: float) -> None:
        state = self._states.get(req.rid)
        now = self.sim.now
        if state is None:
            # Terminal outcome already emitted; the launch ran to waste.
            self.metrics.bump("abandoned_launches")
            self.metrics.trace.record(
                now, "serve.deadline", f"req{req.rid}@{worker}",
                "abandoned", "launch-completed-after-terminal-outcome")
            return
        if state.retries > 0 and state.deadline_abs is not None \
                and state.deadline_abs < now:
            # Deadline expired mid-retry: exactly one terminal outcome
            # (the shed below); the finished launch is accounted, its
            # result discarded.
            self.metrics.bump("abandoned_launches")
            self.metrics.trace.record(
                now, "serve.deadline", f"req{req.rid}@{worker}",
                "abandoned", "retry-finished-after-deadline")
            self._terminal_shed(state, "deadline_expired",
                               f"req{req.rid}@{worker}", "expired-mid-retry")
            return
        self._states.pop(req.rid)
        status = "degraded" if state.degraded else "completed"
        self.metrics.bump(status)
        outcome = RequestOutcome(
            request=state.request, status=status, backend_used=backend_used,
            worker=worker, cores=cores, batch_id=batch_id,
            batch_size=batch_size, submit_s=state.submit_s,
            start_s=start_s, finish_s=now, retries=state.retries,
            sdc_detected=state.sdc_detected, restarts=state.restarts)
        self.outcomes.append(outcome)
        self.metrics.sample_depth(now, len(self.queue))
        state.done.succeed(outcome)

    # -- reporting ---------------------------------------------------------
    def utilization(self, horizon_s: Optional[float] = None):
        horizon = self.sim.now if horizon_s is None else horizon_s
        return self.pool.utilization(horizon)

    def resilience_doc(self) -> Dict[str, object]:
        """Canonical resilience section of the report: health + MTTR +
        fault-attributed latency."""
        health = {dev.name: dev.health.to_doc()
                  for dev in self.pool.devices}
        for dev in self.pool.devices:
            health[dev.name]["failed_cores"] = dev.failed_cores
        mttr = [s for dev in self.pool.devices
                for s in dev.health.mttr_samples]
        fault_s = dict(sorted(
            (k, round(v, 12)) for k, v in self.metrics.fault_s.items()))
        return {
            "health": health,
            "mttr_mean_s": (round(sum(mttr) / len(mttr), 9)
                            if mttr else None),
            "fault_latency_s": fault_s,
            "fault_latency_total_s": round(sum(fault_s.values()), 12),
            "retry_budget_exhausted":
                self.metrics.counters.get("retry_budget.exhausted", 0),
            "abandoned_launches":
                self.metrics.counters.get("abandoned_launches", 0),
        }

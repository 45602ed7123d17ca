"""The executor pool: simulated e150 members and CPU workers.

Each :class:`DeviceMember` models one pooled Grayskull e150 — a 12×9
worker-core grid reachable over PCIe — and each :class:`CpuWorker` one
host CPU slot.  Service times are the calibrated analytic models the
Table-VIII drivers use (:class:`~repro.perfmodel.scaling.JacobiScalingModel`
for the device, :class:`~repro.perfmodel.cpumodel.XeonModel` for the
CPU), plus a PCIe launch overhead per batch, so a pool member's busy
interval is exactly the simulated time the one-shot runners would
report for the same work.  An op request (matmul, fft, stencil9) takes
its problem, device estimate and PCIe bytes from its
:class:`~repro.ops.registry.OpSpec`; this module names no op kind.

Faults reuse the :mod:`repro.faults` resilience vocabulary two ways: a
:class:`ServeHang` wedges the *n*-th launch on one member, and a
per-device :class:`~repro.faults.plan.FaultPlan` (built by
:func:`repro.serve.chaos.build_chaos`) arms NoC delays/drops, ECC
scrubs, timed kernel hangs, in-flight SDC and mid-launch core failures.
An index-keyed fault (a ServeHang, an SDC flip, a core failure) fires on
the member's matching launch, tenant or canary.  A tenant launch's
watchdog writes a ``serve.hang … detected`` row counting the stalled
members, and the service retries the victims on another member (or
degrades them to the CPU backend) — recorded on a
:class:`~repro.analysis.resilience.FaultTrace`, never dropped.  Each
device also carries a :class:`~repro.serve.health.MemberHealth` breaker
that decides, from its recent fault history, whether it may take work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.halo import HaloExchangeModel
from repro.cluster.topology import card_splits, exchange_strips, plan_cards
from repro.faults.plan import CoreFailure, FaultPlan, SolverBitFlip
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.perfmodel.cpumodel import XeonModel
from repro.perfmodel.scaling import JacobiScalingModel
from repro.serve.health import HealthConfig, MemberHealth
from repro.serve.request import SolveRequest
from repro.serve.scheduler import BatchPlan, plan_batch

__all__ = [
    "CpuWorker",
    "DeviceMember",
    "PoolConfig",
    "ServeHang",
    "WorkerPool",
    "batch_service_s",
    "best_case_service_s",
    "cluster_cards_needed",
    "cluster_service_time",
    "cpu_service_time",
    "device_service_time",
    "generate_hangs",
    "launch_overhead_s",
]

_BF16 = 2  # bytes per element


@dataclass(frozen=True)
class ServeHang:
    """The ``launch_index``-th launch on device ``device_id`` hangs."""

    device_id: int
    launch_index: int            #: 0-based per-device launch counter


def generate_hangs(seed: int, n_hangs: int, n_devices: int,
                   horizon_launches: int = 16) -> Tuple[ServeHang, ...]:
    """Draw a deterministic hang plan from one integer seed.

    Uses ``random.Random`` only — launch indices, never wall-clock — so
    a load test with an armed hang plan replays bit-identically.
    """
    if n_devices < 1:
        raise ValueError("need at least one device")
    rng = random.Random(seed)
    seen = set()
    hangs: List[ServeHang] = []
    while len(hangs) < n_hangs and len(seen) < n_devices * horizon_launches:
        h = ServeHang(device_id=rng.randrange(n_devices),
                      launch_index=rng.randrange(horizon_launches))
        if (h.device_id, h.launch_index) in seen:
            continue
        seen.add((h.device_id, h.launch_index))
        hangs.append(h)
    return tuple(sorted(hangs, key=lambda h: (h.device_id, h.launch_index)))


@dataclass(frozen=True)
class PoolConfig:
    """Shape and policy of the executor pool."""

    n_devices: int = 2
    n_cpu_workers: int = 1
    cpu_threads: int = 24            #: threads per CPU worker slot
    grid: Tuple[int, int] = (12, 9)  #: worker-core grid per device
    watchdog_factor: float = 4.0     #: timeout = factor x expected service
    max_retries: int = 1             #: per-request retry budget
    hang_cooldown_s: float = 5e-3    #: suspect holdoff (health breaker)
    retry_backoff_s: float = 5e-4    #: base of the 2^k retry backoff
    scrub_stall_s: float = 5e-5      #: launch stall per ECC scrub
    noc_drop_penalty_s: float = 2e-4 #: retransmit cost of a NoC drop
    restart_overhead_s: float = 5e-4 #: checkpoint-restart fixed cost
    checkpoint_every: int = 8        #: iterations between serve checkpoints
    #: interior points one card serves comfortably; a larger grid spans
    #: ``ceil(points / capacity)`` pooled cards as one cluster launch
    #: (:mod:`repro.cluster`).  ``None`` disables spanning entirely —
    #: every request fits one member, exactly the pre-cluster behaviour.
    card_point_capacity: Optional[int] = None

    def __post_init__(self):
        if self.n_devices < 0 or self.n_cpu_workers < 0:
            raise ValueError("pool sizes must be non-negative")
        if self.n_devices == 0 and self.n_cpu_workers == 0:
            raise ValueError("the pool needs at least one member")
        if self.watchdog_factor <= 1.0:
            raise ValueError("watchdog_factor must exceed 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if min(self.retry_backoff_s, self.scrub_stall_s,
               self.noc_drop_penalty_s, self.restart_overhead_s) < 0:
            raise ValueError("fault-handling costs must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if self.card_point_capacity is not None \
                and self.card_point_capacity < 1:
            raise ValueError("card_point_capacity must be positive")


# --------------------------------------------------------------------------
# deterministic service-time models
# --------------------------------------------------------------------------

#: float32 lanes per Jacobi point update (3 adds + 1 multiply); converts
#: op-workload FLOP counts into the point-throughput vocabulary of
#: :class:`~repro.perfmodel.cpumodel.XeonModel`.
_JACOBI_FLOPS_PER_POINT = 4.0


def _served_op(req: SolveRequest):
    """``(spec, problem, repeats)`` of a non-Jacobi request.

    The request runs ``spec``'s ``problem`` ``repeats`` times.  A pure
    function of the request, so admission decisions and traces replay.
    :mod:`repro.ops` is imported here rather than at module load, so
    ``import repro.serve`` does not load the op kernels.
    """
    from repro.ops import get_op
    spec = get_op(req.workload)
    problem, repeats = spec.serve_problem(req.nx, req.ny, req.iterations)
    return spec, problem, repeats


def device_service_time(req: SolveRequest, cores_y: int, cores_x: int,
                        costs: CostModel = DEFAULT_COSTS) -> float:
    """Simulated solve time of ``req`` on a ``cores_y x cores_x`` slice.

    Jacobi requests use the same analytic model the Table-VIII rows do,
    so a request served on the full grid costs exactly what ``repro
    solve --backend e150-model`` would report.  Op workloads use their
    ``OpSpec.estimate``, the calibrated roofline of
    :mod:`repro.perfmodel.ops` built from the very same
    :class:`CostModel` constants.
    """
    if req.workload != "jacobi":
        spec, problem, repeats = _served_op(req)
        return repeats * spec.estimate(problem, (cores_y, cores_x),
                                       costs).time_s
    model = JacobiScalingModel(costs)
    return model.run(req.nx, req.ny, req.effective_iterations,
                     cores_y, cores_x).solve_time_s


def cpu_service_time(req: SolveRequest, threads: int) -> float:
    """Simulated solve time of ``req`` on a CPU worker slot.

    Op workloads convert their FLOP count into equivalent Jacobi point
    updates (:data:`_JACOBI_FLOPS_PER_POINT` lanes each) so the one
    calibrated Xeon throughput curve prices every kind.
    """
    xeon = XeonModel()
    if req.workload != "jacobi":
        _spec, problem, repeats = _served_op(req)
        points = max(1, round(problem.flops() * repeats
                              / _JACOBI_FLOPS_PER_POINT))
        return xeon.solve_time_s(points, 1, threads)
    return xeon.solve_time_s(req.points, req.effective_iterations,
                             threads)


def _pcie_round_trip_bytes(req: SolveRequest) -> int:
    """Total host<->device bytes one request moves, both directions."""
    if req.workload != "jacobi":
        spec, problem, _repeats = _served_op(req)
        return spec.pcie_bytes(problem)
    # a Jacobi solve round-trips one padded BF16 halo grid
    return 2 * (req.nx + 2) * (req.ny + 2) * _BF16


def launch_overhead_s(requests: Sequence[SolveRequest],
                      costs: CostModel = DEFAULT_COSTS) -> float:
    """PCIe cost of moving a batch's operands to the device and back."""
    total = sum(_pcie_round_trip_bytes(r) for r in requests)
    return 2 * costs.pcie_latency + total / costs.pcie_bw


def batch_service_s(plan: BatchPlan,
                    costs: CostModel = DEFAULT_COSTS) -> List[float]:
    """Fault-free service time of each request in a one-member batch:
    the batch's PCIe overhead plus the request's solve on its slice."""
    overhead = launch_overhead_s(plan.requests, costs)
    return [overhead + device_service_time(req, cy, cx, costs)
            for req, (cy, cx) in zip(plan.requests, plan.allocations)]


def best_case_service_s(req: SolveRequest, cfg: PoolConfig,
                        costs: CostModel = DEFAULT_COSTS) -> float:
    """Lower bound on ``req``'s service time: a whole pool member to itself.

    This is the figure admission control compares deadlines against, and
    the load generator scales synthetic deadlines from — a pure function
    of the request and the pool shape, so both replay deterministically.
    """
    if req.backend == "cpu":
        return cpu_service_time(req, cfg.cpu_threads)
    need = cluster_cards_needed(req, cfg.card_point_capacity)
    if need > 1:
        return cluster_service_time(req, need, cfg, costs)
    return batch_service_s(plan_batch([req], cfg.grid), costs)[0]


def cluster_cards_needed(req: SolveRequest,
                         capacity: Optional[int]) -> int:
    """Cards an admitted device request spans: ``ceil(points/capacity)``.

    1 when spanning is disabled (``capacity is None``), the request
    targets the CPU backend, the grid fits one card, or the request is
    an op workload (the halo-exchange cluster timeline is Jacobi-only;
    op requests always run on a single member).
    """
    if capacity is None or req.backend != "device" \
            or req.workload != "jacobi":
        return 1
    return max(1, math.ceil(req.points / capacity))


def cluster_service_time(req: SolveRequest, n_cards: int,
                         cfg: PoolConfig,
                         costs: CostModel = DEFAULT_COSTS) -> float:
    """Service time of one cluster-span launch over ``n_cards`` members.

    The analytic mirror of the model-timed :class:`repro.cluster.solver.
    ClusterSolver` timeline: initial scatter, ``iterations`` barriers at
    the slowest card's per-iteration step (each card runs its block on
    its full worker grid), one host-staged halo round per iteration, and
    the final gather.  A pure function of the request and the pool
    shape, so admission decisions replay.
    """
    if n_cards < 1:
        raise ValueError("n_cards must be positive")
    cards_y, cards_x = card_splits(n_cards)
    cards = plan_cards(req.nx, req.ny, cards_y, cards_x)
    halo = HaloExchangeModel(costs)
    gy, gx = cfg.grid
    model = JacobiScalingModel(costs)
    step_s = 0.0
    for row in cards:
        for sub in row:
            cy = max(1, min(gy, sub.ny))
            cx = max(1, min(gx, sub.nx))
            t = model.run(sub.nx, sub.ny, req.effective_iterations,
                          cy, cx).solve_time_s
            step_s = max(step_s, t)
    block_elems = [(sub.ny + 2) * (sub.nx + 2)
                   for row in cards for sub in row]
    stage_s = 2 * halo.block_transfer_s(block_elems)   # scatter + gather
    strips = exchange_strips(cards)
    halo_s = req.effective_iterations * halo.round_cost(strips).total_s
    return stage_s + step_s + halo_s


# --------------------------------------------------------------------------
# pool members
# --------------------------------------------------------------------------

class _Member:
    """Busy-state and utilization bookkeeping shared by both member kinds."""

    def __init__(self, name: str):
        self.name = name
        self.busy = False
        self.busy_s = 0.0            #: accumulated service time
        self.launches = 0

    def available(self, now: float) -> bool:
        return not self.busy

    def utilization(self, horizon_s: float) -> float:
        if horizon_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / horizon_s)


class DeviceMember(_Member):
    """One pooled e150: core grid, fault plans, and a health breaker.

    Availability is delegated to :class:`MemberHealth`: a quarantined
    member never accepts tenant work, a suspect one rests through its
    holdoff first.  The chaos :class:`FaultPlan` is consumed as the
    service launches work — timed faults (NoC, ECC, timed hangs) fire
    on the next launch starting at or after their ``t``, index-keyed
    ones (SDC, core failures) on the matching launch, tenant or canary.
    """

    def __init__(self, device_id: int, grid: Tuple[int, int],
                 hangs: Sequence[ServeHang] = (),
                 chaos: Optional[FaultPlan] = None,
                 health: Optional[HealthConfig] = None):
        super().__init__(f"e150-{device_id}")
        self.device_id = device_id
        self.grid = grid
        self.health = MemberHealth(health, self.name)
        self.failed_cores = 0
        #: held for a pending cluster-span launch: not busy, but not
        #: offered to other work until the span dispatches (or sheds).
        self.reserved = False
        self._hang_at = {h.launch_index for h in hangs
                         if h.device_id == device_id}
        #: timed faults, consumed in t order at launch starts
        self._timed: List[Tuple[float, str, object]] = []
        self._timed_hangs: List[float] = []
        #: launch-index-keyed faults
        self._sdc_at: Dict[int, List[SolverBitFlip]] = {}
        self._fail_at: Dict[int, List[CoreFailure]] = {}
        if chaos is not None:
            for noc in chaos.noc:
                self._timed.append((noc.t, "noc", noc))
            for flip in chaos.dram:
                self._timed.append((flip.t, "ecc", flip))
            self._timed.sort(key=lambda e: e[0])
            self._timed_hangs = sorted(h.t for h in chaos.hangs)
            for flip in chaos.solver:
                self._sdc_at.setdefault(flip.iteration, []).append(flip)
            for death in chaos.core_failures:
                self._fail_at.setdefault(death.iteration, []).append(death)

    @property
    def n_cores(self) -> int:
        return self.grid[0] * self.grid[1]

    def available(self, now: float) -> bool:
        return not self.busy and not self.reserved \
            and self.health.accepts(now)

    def capacity_factor(self) -> float:
        """Service-time multiplier after core failures (remapped set)."""
        alive = max(1, self.n_cores - self.failed_cores)
        return self.n_cores / alive

    def fail_core(self) -> None:
        if self.failed_cores < self.n_cores - 1:
            self.failed_cores += 1

    # -- fault-plan consumption -------------------------------------------
    def take_hang(self, now: float, launch_index: int) -> bool:
        """Consume a hang wedging the launch starting now (if armed)."""
        if launch_index in self._hang_at:
            self._hang_at.discard(launch_index)
            return True
        if self._timed_hangs and self._timed_hangs[0] <= now:
            self._timed_hangs.pop(0)
            return True
        return False

    def take_timed(self, now: float) -> List[Tuple[str, object]]:
        """Consume every pending NoC/ECC fault with ``t <= now``."""
        out: List[Tuple[str, object]] = []
        while self._timed and self._timed[0][0] <= now:
            _t, kind, fault = self._timed.pop(0)
            out.append((kind, fault))
        return out

    def take_sdc(self, launch_index: int) -> List[SolverBitFlip]:
        return self._sdc_at.pop(launch_index, [])

    def take_core_failures(self, launch_index: int) -> List[CoreFailure]:
        return self._fail_at.pop(launch_index, [])


class CpuWorker(_Member):
    """One host CPU slot (``threads`` OpenMP threads)."""

    def __init__(self, worker_id: int, threads: int):
        super().__init__(f"cpu-{worker_id}")
        self.worker_id = worker_id
        self.threads = threads


class WorkerPool:
    """All pool members, with deterministic selection order."""

    def __init__(self, cfg: PoolConfig, hangs: Sequence[ServeHang] = (),
                 chaos=None, health: Optional[HealthConfig] = None):
        self.cfg = cfg
        plans = getattr(chaos, "plans", None)
        self.devices = [
            DeviceMember(i, cfg.grid, hangs,
                         chaos=plans[i] if plans else None,
                         health=health)
            for i in range(cfg.n_devices)]
        self.cpus = [CpuWorker(i, cfg.cpu_threads)
                     for i in range(cfg.n_cpu_workers)]

    def free_device(self, now: float) -> Optional[DeviceMember]:
        """Best available device: healthiest rank first, then lowest id."""
        ranked = sorted(self.devices,
                        key=lambda d: (d.health.rank(), d.device_id))
        for dev in ranked:
            if dev.available(now):
                return dev
        return None

    def free_cpu(self, now: float) -> Optional[CpuWorker]:
        for cpu in self.cpus:
            if cpu.available(now):
                return cpu
        return None

    @property
    def members(self) -> List[_Member]:
        return [*self.devices, *self.cpus]

    def utilization(self, horizon_s: float) -> Dict[str, float]:
        """Per-member busy fraction over ``horizon_s`` simulated seconds."""
        return {m.name: m.utilization(horizon_s) for m in self.members}

"""Admission control and the batching scheduler.

Two pieces:

* :class:`BoundedPriorityQueue` — per-priority-class FIFO queues with a
  hard capacity.  Admission is where requests are refused: a full class
  raises :class:`~repro.serve.request.AdmissionError` (``queue_full``),
  and a request whose deadline cannot be met even by the *best-case*
  service time is refused up front (``deadline_unmeetable``) instead of
  wasting queue space on a guaranteed SLO miss.

* :func:`plan_batch` — the batching policy.  Compatible small grids are
  packed onto **one** multi-core launch: the device's 12×9 worker grid is
  carved into per-request core slices with
  :func:`repro.core.decomposition.split_domain` (the Table-VIII systolic
  split, applied to the *core grid* instead of the element grid), so K
  queued requests cost ``max_i t_i(slice_i)`` instead of
  ``sum_i t_i(full grid)``.  Packing never changes answers — the
  decomposed sweep is bit-identical to the global one
  (:func:`repro.cpu.jacobi.jacobi_solve_bf16`) — only latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.decomposition import split_domain
from repro.serve.request import AdmissionError, SolveRequest

__all__ = [
    "BatchPlan",
    "BoundedPriorityQueue",
    "SchedulerConfig",
    "plan_batch",
]


@dataclass(frozen=True)
class SchedulerConfig:
    """Queueing and batching policy knobs."""

    n_priorities: int = 3
    queue_capacity: int = 64         #: per priority class
    max_batch: int = 4               #: requests packed per device launch
    #: grids at or below this many interior points are batchable; larger
    #: requests get the whole device to themselves.
    batch_point_limit: int = 16384

    def __post_init__(self):
        if self.n_priorities < 1:
            raise ValueError("need at least one priority class")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")


class BoundedPriorityQueue:
    """Per-class bounded FIFOs, popped strictly in priority order.

    Priorities above ``n_priorities - 1`` are clamped into the lowest
    class.  ``push_front`` re-queues a retried request at the head of its
    class so a hang victim is never overtaken by later arrivals of the
    same priority.
    """

    def __init__(self, cfg: SchedulerConfig):
        self.cfg = cfg
        self._queues: List[List[SolveRequest]] = [
            [] for _ in range(cfg.n_priorities)]

    def _class_of(self, req: SolveRequest) -> int:
        return min(req.priority, self.cfg.n_priorities - 1)

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def depth(self, priority: Optional[int] = None) -> int:
        if priority is None:
            return len(self)
        return len(self._queues[priority])

    def push(self, req: SolveRequest) -> None:
        q = self._queues[self._class_of(req)]
        if len(q) >= self.cfg.queue_capacity:
            raise AdmissionError(
                "queue_full",
                f"priority class {self._class_of(req)} holds "
                f"{len(q)}/{self.cfg.queue_capacity} requests")
        q.append(req)

    def push_front(self, req: SolveRequest) -> None:
        """Re-queue a retried request at the head of its class.

        Retries bypass the capacity check: the request was already
        admitted once, and shedding it now would turn a device fault
        into a lost request.
        """
        self._queues[self._class_of(req)].insert(0, req)

    def peek(self) -> Optional[SolveRequest]:
        for q in self._queues:
            if q:
                return q[0]
        return None

    def pop(self) -> Optional[SolveRequest]:
        for q in self._queues:
            if q:
                return q.pop(0)
        return None

    def peek_where(self, want: Callable[[SolveRequest], bool]
                   ) -> Optional[SolveRequest]:
        """First matching request in priority-FIFO order, not removed."""
        for q in self._queues:
            for req in q:
                if want(req):
                    return req
        return None

    def pop_where(self, want: Callable[[SolveRequest], bool],
                  limit: int) -> List[SolveRequest]:
        """Pop up to ``limit`` matching requests in priority-FIFO order.

        Non-matching requests keep their positions — the scan never
        reorders a class, so two runs with the same queue state always
        pop the same set.
        """
        taken: List[SolveRequest] = []
        for q in self._queues:
            i = 0
            while i < len(q) and len(taken) < limit:
                if want(q[i]):
                    taken.append(q.pop(i))
                else:
                    i += 1
            if len(taken) >= limit:
                break
        return taken


@dataclass(frozen=True)
class BatchPlan:
    """One device launch: requests and their core-grid slices.

    A cluster span is one request whose allocation is its card grid
    (cards_y, cards_x) instead of a core slice.
    """

    requests: Tuple[SolveRequest, ...]
    allocations: Tuple[Tuple[int, int], ...]   #: (cy, cx) per request

    def __len__(self) -> int:
        return len(self.requests)


def plan_batch(requests: List[SolveRequest],
               grid: Tuple[int, int]) -> BatchPlan:
    """Pack ``requests`` onto one launch of a ``grid`` worker-core array.

    The core grid is carved with :func:`split_domain` — one row-band of
    cores per request (K ≤ grid height), each band spanning the full
    grid width, mirroring how the paper lays decomposition rows along
    the physical axis.  Each allocation is additionally clamped to the
    request's interior (a 4×4 grid cannot use more than 4 core rows).
    """
    if not requests:
        raise ValueError("cannot plan an empty batch")
    gy, gx = grid
    if len(requests) > gy:
        raise ValueError(
            f"batch of {len(requests)} exceeds the {gy}-row core grid")
    bands = split_domain(nx=gx, ny=gy, cores_y=len(requests), cores_x=1)
    allocations = []
    for req, row in zip(requests, bands):
        band = row[0]
        cy = max(1, min(band.ny, req.ny))
        cx = max(1, min(band.nx, req.nx))
        allocations.append((cy, cx))
    return BatchPlan(requests=tuple(requests),
                     allocations=tuple(allocations))

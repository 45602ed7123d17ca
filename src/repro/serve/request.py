"""Request vocabulary of the solve service.

A :class:`SolveRequest` is everything a tenant tells the service: the
problem (grid size, iteration budget or target tolerance), which backend
class may run it (``device`` — a pool e150 — or ``cpu``), a priority
class, and an optional latency deadline.  Requests are frozen value
objects so they can sit in queues, be retried on another pool member, or
be re-played from a recorded trace without aliasing surprises.

:class:`AdmissionError` is the typed rejection the scheduler raises when
a request cannot be admitted — queue full, or a deadline that is already
unmeetable given the best-case service time.  Shed requests are always
*reported* (they appear in the outcome log and the shed counter); the
exception is how the submitting client learns synchronously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

__all__ = [
    "BACKENDS",
    "WORKLOADS",
    "AdmissionError",
    "RequestOutcome",
    "SolveRequest",
    "iterations_for_tolerance",
]

#: backend classes a request may target.
BACKENDS = ("device", "cpu")

#: workload kinds the service schedules.  ``jacobi`` is the original
#: 5-point solve; the others come from the :mod:`repro.ops` library
#: (``iterations`` counts op repeats for matmul/fft and sweeps for
#: stencil9 — see each op's ``OpSpec.serve_problem``).  A literal, not
#: read from the registry, so ``import repro.serve`` stays free of the op
#: kernels; a test keeps it equal to ``{"jacobi", *repro.ops.OPS}``.
WORKLOADS = ("jacobi", "matmul", "fft", "stencil9")


class AdmissionError(RuntimeError):
    """The scheduler refused a request.

    ``reason`` is machine-readable: ``"queue_full"``,
    ``"deadline_unmeetable"``, ``"too_large"`` (the grid needs more
    cards than the pool owns, or cannot be decomposed over them) or
    ``"invalid"``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        msg = f"request rejected: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def iterations_for_tolerance(nx: int, ny: int, tolerance: float,
                             max_iters: int) -> int:
    """Deterministic iteration budget to reach ``tolerance``.

    Jacobi on the unit-square Laplace problem contracts the error by
    ``rho = cos(pi / (n + 1))`` per sweep (``n`` the smaller interior
    dimension), so ``tolerance`` needs ``ln(tol) / ln(rho)`` sweeps.  The
    estimate is clamped to ``[1, max_iters]`` — a pure function of the
    request, never of runtime state, so admission decisions replay.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance!r}")
    n = min(nx, ny)
    rho = math.cos(math.pi / (n + 1))
    need = math.ceil(math.log(tolerance) / math.log(rho))
    return max(1, min(max_iters, need))


@dataclass(frozen=True)
class SolveRequest:
    """One tenant solve: problem, backend class, priority, deadline.

    ``deadline_s`` is *relative* to submission (seconds of simulated
    time); the service turns it into an absolute deadline at admission.
    ``tolerance`` (if given) converts to an iteration budget via
    :func:`iterations_for_tolerance`, capped by ``iterations``.

    ``workload`` selects what the request computes.  ``jacobi`` keeps
    the original meaning of every field.  For the :mod:`repro.ops`
    kinds the grid fields parameterize the op — ``matmul``: ``C[ny,nx]
    = A[ny,nx] @ B[nx,nx]``; ``fft``: pencils of power-of-two length
    ``nx``, batch ``ny``; ``stencil9``: an ``ny x nx`` interior with
    ``nx`` a 32-multiple — and ``iterations`` counts op repeats
    (matmul/fft) or sweeps (stencil9).  ``tolerance`` is Jacobi-only.
    """

    rid: int
    nx: int = 64
    ny: int = 64
    iterations: int = 32
    tolerance: Optional[float] = None
    backend: str = "device"
    priority: int = 1            #: 0 = highest class
    deadline_s: Optional[float] = None
    workload: str = "jacobi"

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid {self.ny}x{self.nx} too small")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, "
                             f"got {self.backend!r}")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload must be one of {WORKLOADS}, "
                             f"got {self.workload!r}")
        if self.workload != "jacobi" and self.tolerance is not None:
            raise ValueError(
                "tolerance targets are jacobi-only; op workloads take an "
                "explicit iteration (repeat) count")
        if self.workload == "fft" and self.nx & (self.nx - 1):
            raise ValueError(
                f"fft pencils need a power-of-two length, got nx={self.nx}")
        if self.workload == "stencil9" and self.nx % 32:
            raise ValueError(
                f"stencil9 needs nx as a multiple of 32, got nx={self.nx}")

    @property
    def effective_iterations(self) -> int:
        """The iteration budget after the tolerance conversion."""
        if self.tolerance is None:
            return self.iterations
        return iterations_for_tolerance(self.nx, self.ny, self.tolerance,
                                        self.iterations)

    @property
    def points(self) -> int:
        return self.nx * self.ny

    def degraded(self) -> "SolveRequest":
        """The same request re-targeted at the CPU backend."""
        return replace(self, backend="cpu")

    def to_dict(self) -> dict:
        """JSON-ready rendering (stable key order) for trace records."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SolveRequest":
        return cls(**{f.name: doc[f.name] for f in fields(cls)
                      if f.name in doc})


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one admitted-or-shed request.

    All times are simulated seconds; ``status`` is ``"completed"``,
    ``"degraded"`` (completed, but on the CPU after the device path kept
    failing) or ``"shed"``.  A shed outcome still carries the request —
    nothing is ever silently dropped.  ``sdc_detected`` counts corrupted
    readbacks the serve path caught for this request (each was retried
    or ended in a typed shed — never returned), and ``restarts`` counts
    mid-launch checkpoint/restarts (core failures) it rode through.
    """

    request: SolveRequest
    status: str
    backend_used: Optional[str]      #: None when shed before dispatch
    worker: Optional[str]            #: pool member that finished it
    cores: Optional[tuple]           #: (cy, cx) of the device allocation
    batch_id: Optional[int]
    batch_size: int
    submit_s: float
    start_s: Optional[float]         #: service start (None when shed)
    finish_s: Optional[float]
    retries: int
    shed_reason: Optional[str] = None
    solve_key: Optional[str] = None  #: functional-result key (post-pass)
    sdc_detected: int = 0            #: corrupted readbacks caught
    restarts: int = 0                #: checkpoint/restarts ridden through

    @property
    def wait_s(self) -> Optional[float]:
        if self.start_s is None:
            return None
        return self.start_s - self.submit_s

    @property
    def service_s(self) -> Optional[float]:
        if self.start_s is None or self.finish_s is None:
            return None
        return self.finish_s - self.start_s

    @property
    def total_s(self) -> Optional[float]:
        if self.finish_s is None:
            return None
        return self.finish_s - self.submit_s

    @property
    def deadline_met(self) -> Optional[bool]:
        if self.request.deadline_s is None or self.total_s is None:
            return None
        return self.total_s <= self.request.deadline_s

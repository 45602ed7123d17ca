"""Core discrete-event engine: events, processes, and the simulator loop.

Design notes
------------
* Simulated time is a ``float`` in **seconds** (the natural unit for the
  calibration constants derived from the paper, which are nanoseconds to
  seconds).
* Scheduling is deterministic: the ready queue is a heap keyed by
  ``(time, sequence)`` where ``sequence`` is a monotonically increasing
  counter, so simultaneous events fire in FIFO order regardless of heap
  internals.
* Processes are plain generators.  ``yield event`` suspends the process
  until the event triggers; the event's value becomes the result of the
  ``yield`` expression.  ``yield from helper()`` composes naturally, which
  is how device kernels call into the tt-metal style API.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for engine-level protocol violations (double trigger, etc.)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


def _check_delay(delay: float) -> float:
    """Validate a trigger delay: a non-negative real number.

    ``succeed`` and ``fail`` share this so both reject ``None`` (which used
    to be silently coerced to ``0.0`` by ``fail`` while crashing
    ``succeed``) and negative delays (which would move time backwards).
    """
    if delay is None:
        raise ValueError("delay must be a number, not None")
    try:
        d = float(delay)
    except (TypeError, ValueError):
        raise ValueError(f"delay must be a real number, got {delay!r}") from None
    if not d >= 0:  # also catches NaN, which ``d < 0`` lets through
        raise ValueError(f"trigger delay must be non-negative, got {delay!r}")
    return d


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, is *triggered* exactly once (either with a
    value via :meth:`succeed` or an exception via :meth:`fail`), and then
    runs its callbacks when the simulator processes it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self.name = name

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value/failure."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError(f"event {self!r} not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, scheduling callbacks ``delay`` from now."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if delay != 0.0:
            # The comparison is the fast path for the overwhelmingly common
            # immediate trigger; odd inputs (None, "x", negatives) compare
            # unequal and still land in the full validator.
            delay = _check_delay(delay)
        self._value = value
        self._ok = True
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        delay = _check_delay(delay)
        self._value = exception
        self._ok = False
        self.sim._schedule(self, delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately via a zero-delay bridge
            # event so ordering stays deterministic.
            bridge = Event(self.sim, name=f"bridge:{self.name}")
            bridge.callbacks.append(lambda _e: fn(self))
            bridge._value = self._value
            bridge._ok = self._ok
            self.sim._schedule(bridge, 0.0)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation.

    Timeouts dominate event traffic (every kernel-API op charges one), so
    the constructor assigns slots directly instead of chaining through
    ``Event.__init__``, pushes its own heap entry instead of calling
    ``Simulator._schedule``, and builds its display name lazily — the
    f-string showed up as a top-3 hot spot when profiling full-device runs.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also catches NaN, which ``delay < 0`` lets through
            raise ValueError(
                f"timeout delay must be non-negative, got {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self.delay = delay
        sim._seq += 1
        heapq.heappush(sim._queue, (sim.now + delay, sim._seq, self))

    @property
    def name(self) -> str:  # lazy: only deadlock reports / repr need it
        return f"timeout({self.delay:g})"


class Process(Event):
    """Wraps a generator; the process *is* an event that triggers on return.

    The generator's ``return`` value becomes the event value, so processes
    can be joined with ``result = yield some_process``.
    """

    __slots__ = ("generator", "_send", "_throw", "_waiting_on", "_wait_since")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
                " (did you forget to call the kernel function?)")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # Bound-method caches: ``_resume`` runs once per yield of every
        # kernel, so the attribute lookups are worth hoisting.
        self._send = generator.send
        self._throw = generator.throw
        self._waiting_on: Optional[Event] = None
        self._wait_since: float = sim.now
        sim._register_process(self)
        # Kick off at the current time.
        boot = Event(sim, name=f"boot:{self.name}")
        boot._value = None
        boot._ok = True
        boot.callbacks.append(self._resume)
        sim._schedule(boot, 0.0)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        poke = Event(self.sim, name=f"interrupt:{self.name}")
        poke._value = Interrupt(cause)
        poke._ok = False
        poke.callbacks.append(self._resume)
        self.sim._schedule(poke, 0.0)

    # -- stepping ---------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        if self._value is not _PENDING:
            return  # e.g. interrupted after normal completion raced
        self._waiting_on = None
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                target = self._throw(trigger._value)
        except StopIteration as stop:
            self._value = stop.value
            self._ok = True
            self.sim._schedule(self, 0.0)
            return
        except BaseException as exc:
            self._value = exc
            self._ok = False
            self.sim._schedule(self, 0.0)
            if not self.callbacks:
                # Nobody is joining this process: surface the crash.
                self.sim._crashed.append((self, exc))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (Timeout, Semaphore.acquire(), ...)")
        if target.sim is not self.sim:
            raise SimulationError("yielded event belongs to a different simulator")
        self._waiting_on = target
        self._wait_since = self.sim.now
        callbacks = target.callbacks
        if callbacks is None:
            target.add_callback(self._resume)  # already processed: bridge
        else:
            callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str):
        super().__init__(sim, name=name)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        # Each constituent gets its own callback carrying its position, so
        # the same Event object may appear more than once (and the firing
        # index is O(1), not an ``events.index`` scan that would always
        # report the first duplicate).
        for idx, ev in enumerate(self.events):
            ev.add_callback(lambda e, idx=idx: self._check(e, idx))

    def _check(self, ev: Event, idx: int) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when all constituent events have triggered; value is their values."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="all_of")

    def _check(self, ev: Event, idx: int) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Triggers when the first constituent event triggers; value is (index, value)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="any_of")

    def _check(self, ev: Event, idx: int) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self.succeed((idx, ev._value))


class Simulator:
    """The event loop: a priority queue of ``(time, seq, event)``."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._crashed: list[tuple[Process, BaseException]] = []
        self._processes: list[Process] = []
        self.events_processed = 0

    # -- process registry -------------------------------------------------
    def _register_process(self, proc: "Process") -> None:
        """Track live processes so deadlock reports can name them."""
        self._processes.append(proc)
        if len(self._processes) % 256 == 0:
            self._processes = [p for p in self._processes if p.is_alive]

    def stranded_processes(self) -> list["Process"]:
        """Processes that are still alive (useful after a deadlock)."""
        self._processes = [p for p in self._processes if p.is_alive]
        return list(self._processes)

    def _deadlock_report(self, stop_event: "Event", limit: int = 16) -> str:
        """Actionable deadlock diagnostic: who is stranded, waiting on what.

        This is what makes watchdog reports useful: instead of only a
        stranded-event count, each live process is listed with the event it
        is ``_waiting_on`` and the simulated time it started waiting.
        """
        stranded = self.stranded_processes()
        head = (f"run(until={stop_event!r}) deadlocked at t={self.now:g}s "
                f"with {len(self._queue)} stranded events and "
                f"{len(stranded)} stranded processes")
        lines = [head]
        for proc in stranded[:limit]:
            target = proc._waiting_on
            if target is None:
                what = "nothing (never resumed)"
            else:
                what = target.name or repr(target)
            lines.append(f"  - process {proc.name!r} waiting on {what} "
                         f"since t={proc._wait_since:g}s")
        if len(stranded) > limit:
            lines.append(f"  ... and {len(stranded) - limit} more")
        return "\n".join(lines)

    # -- factories --------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A timeout firing at *absolute* simulated time ``when``.

        Unlike ``timeout(when - now)`` this schedules the heap entry at
        exactly ``when`` with no float round trip, so batched charges can
        land on the same bit-exact timestamp a sequence of relative
        timeouts would have produced.
        """
        if not when >= self.now:  # also catches NaN
            raise ValueError(
                f"timeout_at({when!r}) is not at or after now={self.now!r}")
        tmo = Timeout.__new__(Timeout)
        tmo.sim = self
        tmo.callbacks = []
        tmo._value = value
        tmo._ok = True
        tmo._scheduled = True
        tmo.delay = when - self.now
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, tmo))
        return tmo

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError(f"event {event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))

    # -- running ----------------------------------------------------------
    def run(self, until: Optional[float | Event] = None,
            max_events: Optional[int] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event triggers.

        ``until`` may be a simulated-time deadline (float) or an
        :class:`Event` (commonly a :class:`Process`) to wait for; in the
        latter case the event's value is returned.  ``max_events`` guards
        against runaway simulations: at most that many events run, and
        :class:`SimulationError` is raised when another one is due (so a
        budget ``<= 0`` raises before the first event).  Each iteration
        checks, in order, the stop event, the deadline, then the budget.
        """
        deadline: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
        # ``processed`` counts up from 0, so -1 never trips and a
        # non-positive budget trips before the first event.
        budget = -1 if max_events is None else max(max_events, 0)

        queue = self._queue
        crashed = self._crashed
        pop = heapq.heappop
        processed = 0
        try:
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                when = queue[0][0]
                if deadline is not None and when > deadline:
                    self.now = deadline
                    break
                if processed == budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events} at t={self.now:g}s")
                when, _seq, event = pop(queue)
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
                callbacks, event.callbacks = event.callbacks, None
                processed += 1
                for cb in callbacks:
                    cb(event)
                if crashed:
                    proc, exc = crashed[0]
                    raise SimulationError(
                        f"process {proc.name!r} crashed at t={self.now:g}s"
                    ) from exc
        finally:
            self.events_processed += processed

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(self._deadlock_report(stop_event))
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if deadline is not None and not self._queue:
            self.now = max(self.now, deadline)
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

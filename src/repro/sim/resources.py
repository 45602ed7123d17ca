"""Synchronisation and contention primitives built on the event engine.

These are the building blocks the hardware model uses:

* :class:`Semaphore` — counting semaphore with both *consuming* acquires
  and tt-metal style non-consuming ``wait_at_least`` (the paper's green
  dashed reader/writer semaphore in Fig. 3).
* :class:`FifoServer` — a process-free serial server with a service rate;
  models a NoC link, DMA engine or DRAM bank port cheaply: a transfer of
  ``n`` bytes completes at ``max(now, busy_until) + overhead + n/rate``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.engine import Event, Simulator

__all__ = ["Semaphore", "FifoServer"]


class Semaphore:
    """Counting semaphore with FIFO wakeup.

    Two waiting disciplines are offered:

    * ``acquire(n)`` — consuming: waits until the value is at least ``n``
      then subtracts ``n`` (classic semaphore).
    * ``wait_at_least(v)`` — non-consuming: waits until the value reaches
      ``v`` without modifying it.  This matches tt-metal's
      ``noc_semaphore_wait`` where a data-mover core blocks until a peer
      has advanced a counter.
    """

    def __init__(self, sim: Simulator, value: int = 0, name: str = ""):
        if value < 0:
            raise ValueError("semaphore value must be non-negative")
        self.sim = sim
        self.value = value
        self.name = name
        self._acquirers: Deque[tuple[int, Event]] = deque()
        self._watchers: list[tuple[int, Event]] = []

    def try_wait_at_least(self, v: int) -> bool:
        """Non-consuming threshold test; ``True`` iff a wait would not block.

        Watchers are broadcast (no queue-order concerns), so a satisfied
        threshold can always be answered synchronously.
        """
        return self.value >= v

    def acquire(self, n: int = 1) -> Event:
        if n <= 0:
            raise ValueError("acquire count must be positive")
        ev = self.sim.event(name=f"sem.acquire({self.name})")
        self._acquirers.append((n, ev))
        self._drain()
        return ev

    def wait_at_least(self, v: int) -> Event:
        ev = self.sim.event(name=f"sem.wait({self.name}>={v})")
        self._watchers.append((v, ev))
        self._drain()
        return ev

    def release(self, n: int = 1) -> None:
        if n <= 0:
            raise ValueError("release count must be positive")
        self.value += n
        self._drain()

    def set_value(self, v: int) -> None:
        """tt-metal ``noc_semaphore_set``: overwrite the counter."""
        if v < 0:
            raise ValueError("semaphore value must be non-negative")
        self.value = v
        self._drain()

    def _drain(self) -> None:
        # Watchers are broadcast: every satisfied threshold fires, whatever
        # the arrival order (barrier semantics).  Acquirers are strict
        # FIFO: the head blocks until satisfiable (no overtaking).
        fired = [w for w in self._watchers if self.value >= w[0]]
        if fired:
            self._watchers = [w for w in self._watchers
                              if self.value < w[0]]
            for _v, ev in fired:
                ev.succeed(self.value)
        while self._acquirers:
            n, ev = self._acquirers[0]
            if self.value < n:
                return
            self.value -= n
            self._acquirers.popleft()
            ev.succeed()
            # consuming may unblock watchers? no — value only decreased.

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Semaphore {self.name!r} value={self.value} "
                f"waiters={len(self._acquirers) + len(self._watchers)}>")


class FifoServer:
    """Process-free serial server with a byte rate and fixed per-job overhead.

    Models a unidirectional NoC link, a DMA engine queue, or a DRAM bank
    port: jobs are served strictly in submission order, each taking
    ``overhead + nbytes / rate`` seconds of exclusive server time.  The
    implementation keeps only a ``busy_until`` watermark, so a million-job
    burst costs O(1) events when submitted as one call.

    Statistics (``busy_time``, ``bytes_served``, ``jobs``) support
    utilisation reporting in the experiments.
    """

    def __init__(self, sim: Simulator, rate: float, overhead: float = 0.0,
                 name: str = ""):
        if rate <= 0:
            raise ValueError("rate must be positive (bytes/second)")
        if overhead < 0:
            raise ValueError("overhead must be non-negative")
        self.sim = sim
        self.rate = float(rate)
        self.overhead = float(overhead)
        self.name = name
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.bytes_served = 0
        self.jobs = 0
        self._done_name = f"fifo.done({name})"

    def service_time(self, nbytes: float, jobs: int = 1) -> float:
        return jobs * self.overhead + nbytes / self.rate

    def submit(self, nbytes: float, jobs: int = 1,
               extra_time: float = 0.0) -> Event:
        """Enqueue ``jobs`` back-to-back jobs totalling ``nbytes`` bytes.

        Returns an event that triggers at service completion.  ``extra_time``
        adds a fixed latency that occupies the server (e.g. a DRAM row
        activation).
        """
        if nbytes < 0 or jobs < 0:
            raise ValueError("nbytes and jobs must be non-negative")
        start = max(self.sim.now, self.busy_until)
        duration = self.service_time(nbytes, jobs) + extra_time
        self.busy_until = start + duration
        self.busy_time += duration
        self.bytes_served += int(nbytes)
        self.jobs += jobs
        ev = Event(self.sim, self._done_name)
        ev.succeed(value=self.busy_until, delay=self.busy_until - self.sim.now)
        return ev

    @property
    def utilisation(self) -> float:
        """Fraction of elapsed simulated time the server has been busy."""
        return self.busy_time / self.sim.now if self.sim.now > 0 else 0.0

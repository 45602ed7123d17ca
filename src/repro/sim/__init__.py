"""Discrete-event simulation engine.

A minimal, deterministic, generator-coroutine event engine in the style of
SimPy.  Baby-core kernels in :mod:`repro.arch` are ordinary Python
generators; they suspend by yielding :class:`Event` objects (timeouts,
semaphore acquisitions, circular-buffer waits) and the :class:`Simulator`
advances simulated time between them.

The engine is deliberately small but complete: events carry values and
failures, processes compose with ``yield from``, and scheduling is fully
deterministic (FIFO among simultaneous events).
"""

from repro.sim.engine import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Semaphore

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Semaphore",
    "SimulationError",
    "Simulator",
    "Timeout",
]

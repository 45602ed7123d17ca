"""Circular buffers: the FIFO pipes between baby cores in a Tensix core.

tt-metal semantics (Section II-A of the paper):

* A CB is a wrap-around queue of fixed-size **pages** in L1.
* The producer calls ``cb_reserve_back(n)`` (blocks until ``n`` pages are
  free), fills them (often by pointing a NoC read straight at
  ``get_write_ptr()``), then ``cb_push_back(n)`` commits them.
* The consumer calls ``cb_wait_front(n)`` (blocks until ``n`` pages are
  committed), uses them, then ``cb_pop_front(n)`` recycles them.

Two read-side extensions from the paper are modelled:

* :meth:`set_rd_ptr` — the ``cb_set_rd_ptr``/``llk_set_read_ptr`` API the
  authors *added to tt-metal* (Section VI) so the unpacker reads tile data
  from an arbitrary L1 address instead of the CB's own pages, eliminating
  the expensive data-mover memcpy.
* Data-mover-side and compute-side pointer state are **separate** (the
  paper found data movers and compute cores keep private copies of the CB
  structure, so a pointer poked by the data mover is invisible to
  compute): the alias is installed on the consumer side only.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.arch.sram import Sram
from repro.sim import Event, SimulationError, Simulator

__all__ = ["CircularBuffer", "CBError"]


class CBError(RuntimeError):
    """Protocol violation on a circular buffer (over-push, over-pop, ...)."""


class CircularBuffer:
    """A paged FIFO in one core's L1."""

    #: supported element formats: BF16 (2 B) and FP32 (4 B — Wormhole mode).
    DTYPES = {"bf16": 2, "fp32": 4}

    def __init__(self, sim: Simulator, sram: Sram, cb_id: int,
                 page_size: int, n_pages: int, name: str = "",
                 dtype: str = "bf16"):
        if page_size <= 0 or n_pages <= 0:
            raise ValueError("page_size and n_pages must be positive")
        if dtype not in self.DTYPES:
            raise ValueError(f"dtype must be one of {sorted(self.DTYPES)}")
        if page_size % self.DTYPES[dtype]:
            raise ValueError(
                f"page_size {page_size} not a multiple of the {dtype} "
                "element size")
        self.sim = sim
        self.sram = sram
        self.cb_id = cb_id
        self.page_size = page_size
        self.n_pages = n_pages
        self.dtype = dtype
        self.elem_bytes = self.DTYPES[dtype]
        # the one page view, bound once: words of the element width
        self._view = sram.view_u32 if dtype == "fp32" else sram.view_u16
        self._page_words = page_size // self.elem_bytes
        self.name = name or f"cb{cb_id}"
        self.base = sram.allocate(page_size * n_pages, align=32,
                                  label=self.name)

        # Queue state: absolute page counters (never wrap; modulo for slots).
        self._reserved = 0   # pages handed to the producer (reserve_back)
        self._pushed = 0     # pages committed (push_back)
        self._popped = 0     # pages recycled (pop_front)
        self._wait_q: Deque[tuple[int, Event]] = deque()
        self._reserve_q: Deque[tuple[int, Event]] = deque()
        #: fault injection: a wedged CB stops waking waiters (a hardware
        #: flow-control lock-up) — producers and consumers hang exactly as
        #: they would on silicon, until a watchdog intervenes.
        self.wedged = False
        # Consumer-side read-pointer alias (cb_set_rd_ptr), in L1 address.
        self._rd_alias: Optional[int] = None
        # Producer-side write-pointer alias (cb_set_wr_ptr) — the CB-alias
        # flexibility the paper *recommends* tt-metal add (Section VIII);
        # used by the SRAM-resident extension so pack_tile writes straight
        # into a local slab.
        self._wr_alias: Optional[int] = None

    # -- invariant helpers -------------------------------------------------
    @property
    def pages_committed(self) -> int:
        """Pages the consumer may wait_front on right now."""
        return self._pushed - self._popped

    @property
    def pages_free(self) -> int:
        """Pages the producer may still reserve."""
        return self.n_pages - (self._reserved - self._popped)

    def _slot_addr(self, abs_page: int) -> int:
        return self.base + (abs_page % self.n_pages) * self.page_size

    # -- synchronous fast paths ----------------------------------------------
    # The kernel API consults these before building a blocking event: a
    # satisfiable handshake commits in one call, with no Event, no heap
    # entry and no extra resume of the calling process.  FIFO fairness is
    # preserved because the fast path refuses whenever earlier requests are
    # still queued (the caller then lines up behind them via the event
    # path), and a wedged CB always refuses so injected flow-control faults
    # still hang producers and consumers exactly as before.
    def try_reserve(self, n: int = 1) -> bool:
        """Reserve ``n`` pages immediately if possible; never blocks."""
        if not 0 < n <= self.n_pages:
            raise CBError(f"{self.name}: cannot reserve {n} of {self.n_pages} pages")
        if self.wedged or self._reserve_q or self.pages_free < n:
            return False
        self._reserved += n
        return True

    def try_wait(self, n: int = 1) -> bool:
        """``True`` iff ``n`` pages are committed and a wait would not block."""
        if not 0 < n <= self.n_pages:
            raise CBError(f"{self.name}: cannot wait for {n} of {self.n_pages} pages")
        return not self.wedged and not self._wait_q \
            and self.pages_committed >= n

    # -- producer side -------------------------------------------------------
    def reserve_back(self, n: int = 1) -> Event:
        """Block until ``n`` pages are free, then reserve them."""
        if not 0 < n <= self.n_pages:
            raise CBError(f"{self.name}: cannot reserve {n} of {self.n_pages} pages")
        ev = self.sim.event(name=f"{self.name}.reserve({n})")
        self._reserve_q.append((n, ev))
        self._drain()
        return ev

    def push_back(self, n: int = 1) -> None:
        """Commit ``n`` previously reserved pages to the consumer."""
        if n <= 0:
            raise CBError("push count must be positive")
        if self._pushed + n > self._reserved:
            raise CBError(
                f"{self.name}: push_back({n}) without matching reserve_back "
                f"(pushed={self._pushed}, reserved={self._reserved})")
        self._pushed += n
        self._drain()

    def get_write_ptr(self) -> int:
        """L1 address of the next page to fill (after reserve_back)."""
        if self._reserved == self._pushed:
            raise CBError(f"{self.name}: get_write_ptr without reserved pages")
        return self._slot_addr(self._pushed)

    def back_view_bits(self, page_offset: int = 0) -> np.ndarray:
        """Producer view of a reserved-but-unpushed page, in the CB's
        element width.

        With a write-pointer alias installed, the view targets the alias
        instead (no reservation needed — the pages are not used).
        """
        if self._wr_alias is not None:
            return self._view(self._wr_alias + page_offset * self.page_size,
                              self._page_words)
        if self._pushed + page_offset >= self._reserved:
            raise CBError(f"{self.name}: back page {page_offset} not reserved")
        return self._view(self._slot_addr(self._pushed + page_offset),
                          self._page_words)

    def set_wr_ptr(self, l1_addr: int) -> None:
        """Alias the producer write pointer to ``l1_addr`` (extension).

        Implements the API flexibility the paper's conclusions ask for:
        "enabling CBs to alias local memory".  Unlike ``set_rd_ptr`` the
        alias persists until replaced or cleared with ``clear_wr_ptr``
        (each batch installs a fresh one anyway).
        """
        if l1_addr < 0 or l1_addr + self.page_size > self.sram.capacity:
            raise CBError(f"{self.name}: wr_ptr alias {l1_addr} out of L1")
        if l1_addr % 2:
            raise CBError(f"{self.name}: wr_ptr alias must be 2-byte aligned")
        self._wr_alias = l1_addr

    def clear_wr_ptr(self) -> None:
        self._wr_alias = None

    # -- consumer side -------------------------------------------------------
    def wait_front(self, n: int = 1) -> Event:
        """Block until ``n`` pages are committed (does not consume them)."""
        if not 0 < n <= self.n_pages:
            raise CBError(f"{self.name}: cannot wait for {n} of {self.n_pages} pages")
        ev = self.sim.event(name=f"{self.name}.wait({n})")
        self._wait_q.append((n, ev))
        self._drain()
        return ev

    def pop_front(self, n: int = 1) -> None:
        """Recycle ``n`` consumed pages back to the producer."""
        if n <= 0:
            raise CBError("pop count must be positive")
        if self._popped + n > self._pushed:
            raise CBError(
                f"{self.name}: pop_front({n}) exceeds committed pages "
                f"({self.pages_committed})")
        self._popped += n
        self._rd_alias = None  # an alias is valid for one wait/pop window
        self._drain()

    def get_read_ptr(self) -> int:
        """L1 address the unpacker will read from (honours set_rd_ptr)."""
        if self._rd_alias is not None:
            return self._rd_alias
        if self.pages_committed == 0:
            raise CBError(f"{self.name}: get_read_ptr with no committed pages")
        return self._slot_addr(self._popped)

    def front_view_bits(self, page_offset: int = 0) -> np.ndarray:
        """Consumer view of committed page ``page_offset`` (or the rd
        alias), in the CB's element width."""
        if self._rd_alias is not None:
            return self._view(self._rd_alias + page_offset * self.page_size,
                              self._page_words)
        if page_offset >= self.pages_committed:
            raise CBError(
                f"{self.name}: front page {page_offset} beyond committed "
                f"{self.pages_committed}")
        return self._view(self._slot_addr(self._popped + page_offset),
                          self._page_words)

    def set_rd_ptr(self, l1_addr: int) -> None:
        """``cb_set_rd_ptr``: alias the consumer read pointer to ``l1_addr``.

        The paper's zero-copy trick: the unpacker reads tile data straight
        out of the data mover's local buffer.  The alias is cleared by the
        next ``pop_front`` (each batch re-installs it after
        ``cb_wait_front`` completes, exactly as Section VI describes).
        """
        if l1_addr < 0 or l1_addr + self.page_size > self.sram.capacity:
            raise CBError(f"{self.name}: rd_ptr alias {l1_addr} out of L1")
        if l1_addr % 2:
            raise CBError(f"{self.name}: rd_ptr alias must be 2-byte aligned")
        self._rd_alias = l1_addr

    # -- fault injection -------------------------------------------------------
    def wedge(self) -> None:
        """Lock up the CB: queued and future waits never complete."""
        self.wedged = True

    def unwedge(self) -> None:
        """Release an injected wedge and wake whatever is now satisfiable."""
        self.wedged = False
        self._drain()

    # -- scheduling ----------------------------------------------------------
    def _drain(self) -> None:
        if self.wedged:
            return
        progressed = True
        while progressed:
            progressed = False
            if self._reserve_q:
                n, ev = self._reserve_q[0]
                if self.pages_free >= n:
                    self._reserved += n
                    self._reserve_q.popleft()
                    ev.succeed()
                    progressed = True
            if self._wait_q:
                n, ev = self._wait_q[0]
                if self.pages_committed >= n:
                    self._wait_q.popleft()
                    ev.succeed()
                    progressed = True

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CB {self.name} pages={self.n_pages}x{self.page_size}B "
                f"committed={self.pages_committed} free={self.pages_free}>")

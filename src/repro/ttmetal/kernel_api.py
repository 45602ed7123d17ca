"""Device-side kernel API: what a baby-core kernel can call.

Kernels are Python generator functions taking a single context argument::

    def reader_kernel(ctx):
        src = ctx.arg("src_noc_addr")
        yield from ctx.cb_reserve_back(CB_IN0, 1)
        yield from ctx.noc_async_read(src, ctx.cb_write_ptr(CB_IN0), 2048)
        yield from ctx.noc_async_read_barrier()
        yield from ctx.cb_push_back(CB_IN0, 1)

Every API call is a generator (``yield from`` it) so that the simulator
can charge the calibrated cost and block where the real call blocks.  The
surface mirrors tt-metal's dataflow and compute APIs, plus the
``cb_set_rd_ptr`` extension the paper added (Section VI).

Contiguity is detected automatically: a DRAM request that starts exactly
where the previous request (same data mover, same direction) ended is
contiguous; anything else pays the non-contiguous penalty from Table IV.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.arch.noc import ReadJob, WriteJob
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1, TensixCore
from repro.sim import Event, Timeout
from repro.ttmetal.buffers import Buffer

__all__ = ["NocAddr", "DataMoverCtx", "ComputeCtx", "KernelError"]

_REQUIRED = object()


class KernelError(RuntimeError):
    """Kernel-level misuse of the device API."""


class NocAddr(NamedTuple):
    """A resolved NoC address: DRAM bank + byte offset within the bank."""

    bank_id: int
    addr: int

    def __add__(self, nbytes):  # type: ignore[override]
        """Pointer arithmetic, as kernels do with ``ddr_addr + offset``."""
        return NocAddr(self.bank_id, self.addr + int(nbytes))


def _rotating_gather(window: np.ndarray, pos: int, size: int) -> np.ndarray:
    """Read ``size`` stream bytes from a rotating window starting at ``pos``.

    The exact inverse of the placement rule (stream byte ``j`` lives at
    window position ``(pos + j) % win``), for any number of wraps — the
    two-slice concatenation this replaces silently truncated ranges
    longer than ``pos``'s remaining lap.
    """
    win = window.size
    if pos + size <= win:
        return window[pos:pos + size].copy()
    return window[(pos + np.arange(size)) % win]


class _CtxBase:
    """Shared state/behaviour of all three kernel contexts."""

    slot: str = ""

    def __init__(self, core: TensixCore, args: Optional[Dict] = None):
        self.core = core
        self.sim = core.sim
        self.costs = core.costs
        self.args = dict(args or {})
        # Memoised per-kernel setup: the device tracer is resolved once at
        # context construction instead of per API call (EnqueueProgram
        # builds contexts after the host attaches any tracer, so the
        # snapshot is always current when the kernel runs).
        self._tracer = getattr(self.args.get("_device"), "tracer", None)
        # Pending charges of an open fused region (None = not fused).
        self._fused: Optional[List[float]] = None

    # -- misc ---------------------------------------------------------------
    def arg(self, name: str, default=_REQUIRED):
        """Fetch a runtime argument (host ``SetRuntimeArgs``)."""
        if name in self.args:
            return self.args[name]
        if default is _REQUIRED:
            raise KernelError(
                f"kernel on core {self.core.coord} missing runtime arg "
                f"{name!r} (have {sorted(self.args)})")
        return default

    def _hang_check(self):
        """Strand the kernel if a hang was injected on this slot (generator).

        Checked at every API boundary, so a hang injected mid-transfer
        takes effect at the kernel's next call — like a baby core whose
        instruction stream wedged.
        """
        gate = self.core.hang_gate(self.slot)
        if gate is not None:
            yield gate  # never fires; only Process.interrupt can free us

    def _elapse(self, seconds: float):
        """Charge busy time to this baby core (generator)."""
        core = self.core
        if core.hung_slots:
            if self._fused is not None:
                yield from self._fused_flush()
            yield from self._hang_check()
        if self._fused is not None:
            if seconds > 0:
                self._fused.append(seconds)
            return
        if seconds > 0:
            core.busy_time[self.slot] += seconds
            sim = self.sim
            if self._tracer is None:
                yield Timeout(sim, seconds)
            else:
                t0 = sim.now
                yield Timeout(sim, seconds)
                self._tracer.record(core.coord, self.slot, "busy",
                                    t0, sim.now)

    # -- fused charge regions ---------------------------------------------
    # A fused region coalesces the timeouts of consecutive API ops into a
    # single simulator event, for op runs that are *core-private*: they may
    # touch the FPU, read committed CB pages, handshake CBs produced and
    # consumed by this same kernel (a self-loop like the optimised
    # Jacobi's INTERMED buffer), and *test* shared CBs/semaphores via the
    # blocking waits (read-only until they succeed), but must not
    # push/pop CBs or increment semaphores shared with another kernel —
    # those state changes decide when peers wake.  The wake-up instant
    # and busy accounting accumulate with the same sequential float
    # additions the unfused ops would have performed, so fusion is
    # timestamp-exact; an op that would genuinely block flushes the
    # pending charges first (and re-tests at the flushed timestamp),
    # blocks exactly when the unfused op would, and then re-opens the
    # region from the resume instant.
    def fused_begin(self) -> None:
        """Open a fused charge region (plain call, no yield)."""
        if self._fused is not None:
            raise KernelError("fused_begin() inside an open fused region")
        self._fused = []

    def fused_end(self):
        """Close the region, charging all pending ops as one event
        (generator).  Tolerates a region already flushed by a blocking
        op."""
        if self._fused is not None:
            yield from self._fused_flush()

    def _fused_flush(self):
        charges = self._fused
        self._fused = None
        if charges:
            core = self.core
            busy = core.busy_time
            slot = self.slot
            sim = self.sim
            target = t0 = sim.now
            for c in charges:
                busy[slot] += c
                target += c
            yield sim.timeout_at(target)
            if self._tracer is not None:
                self._tracer.record(core.coord, slot, "busy", t0, sim.now)

    def _block(self, event):
        """Wait on an event, accounting the time as a stall (generator)."""
        if self._fused is not None:
            # Defensive: a blocking wait inside a fused region pays the
            # pending charges before it starts stalling.
            yield from self._fused_flush()
        core = self.core
        if core.hung_slots:
            yield from self._hang_check()
        sim = self.sim
        t0 = sim.now
        result = yield event
        core.stall_time[self.slot] += sim.now - t0
        if self._tracer is not None:
            self._tracer.record(core.coord, self.slot, "stall",
                                t0, sim.now)
        return result

    def _wait(self, test, block, n: int):
        """Slow path of a blocking op whose fast path ``test(n)`` failed
        (generator): ``block(n)`` builds the event to stall on.

        Inside a fused region the pending charges are paid first and
        ``test`` re-runs at the flushed (true) timestamp, so pages or
        signals that arrived while the charges were pending count.  The
        region then re-opens: it conceptually extends to ``fused_end()``,
        and charges after a block accumulate from the resume instant
        exactly as unfused ops would.
        """
        if self._fused is not None:
            yield from self._fused_flush()
            if not test(n):
                yield from self._block(block(n))
            self._fused = []
        else:
            yield from self._block(block(n))

    def dprint(self, message: str):
        """tt-metal DPRINT: visible (and costly) only with the print
        server attached — the paper found it "incurred significant
        overhead and-so ... it was disabled for all production runs"."""
        device = self.args.get("_device")
        if device is None or not device.print_server_enabled:
            # Production mode: the statement compiles out entirely, so it
            # must cost exactly zero simulated time.
            return
            yield  # pragma: no cover - unreachable; keeps this a generator
        yield from self._elapse(self.costs.dprint_cost)
        device.dprint_log.append(
            (self.sim.now, self.core.coord, self.slot, str(message)))

    def _cb(self, cb_id: int):
        try:
            return self.core.cbs[cb_id]
        except KeyError:
            raise KernelError(
                f"core {self.core.coord} has no CB {cb_id} "
                f"(configured: {sorted(self.core.cbs)})") from None

    # -- circular buffers ------------------------------------------------------
    # The blocking ops consult the CB's synchronous fast path first: a
    # handshake that would complete immediately (pages already free /
    # committed, no queued peers, no wedge) commits without building an
    # event or suspending the process — the preceding ``_elapse`` timeout
    # already anchored the simulated time, so the wake-up instant is
    # unchanged.  Only genuinely blocking handshakes take the event path.
    def cb_reserve_back(self, cb_id: int, n: int = 1):
        """Block until ``n`` pages are free in the CB, then reserve them."""
        yield from self._elapse(self.costs.cb_op)
        cb = self._cb(cb_id)
        if not cb.try_reserve(n):
            yield from self._wait(cb.try_reserve, cb.reserve_back, n)

    def cb_push_back(self, cb_id: int, n: int = 1):
        """Commit ``n`` reserved pages to the consumer side."""
        yield from self._elapse(self.costs.cb_op)
        self._cb(cb_id).push_back(n)

    def cb_wait_front(self, cb_id: int, n: int = 1):
        """Block until ``n`` pages are committed in the CB."""
        yield from self._elapse(self.costs.cb_op)
        cb = self._cb(cb_id)
        if not cb.try_wait(n):
            yield from self._wait(cb.try_wait, cb.wait_front, n)

    def cb_pop_front(self, cb_id: int, n: int = 1):
        """Recycle ``n`` consumed pages."""
        yield from self._elapse(self.costs.cb_op)
        self._cb(cb_id).pop_front(n)

    def cb_write_ptr(self, cb_id: int) -> int:
        """L1 address of the reserved back page (``get_write_ptr``)."""
        return self._cb(cb_id).get_write_ptr()

    def cb_read_ptr(self, cb_id: int) -> int:
        """L1 address the consumer reads from (``get_read_ptr``)."""
        return self._cb(cb_id).get_read_ptr()

    # -- raw L1 access ------------------------------------------------------
    def l1_store(self, addr: int, values: np.ndarray):
        """Store 16- or 32-bit words into L1 from the baby core (software
        fill), e.g. a scale-constant CB page at program start.

        ``values`` must be ``uint16`` (BF16 bits) or ``uint32`` (FP32
        bits); the view keeps the word alignment check.  Charged as one
        memcpy call of ``values.nbytes``.
        """
        vals = np.asarray(values).ravel()
        if vals.dtype == np.uint16:
            view = self.core.sram.view_u16
        elif vals.dtype == np.uint32:
            view = self.core.sram.view_u32
        else:
            raise KernelError(
                f"l1_store takes uint16 or uint32 words, got {vals.dtype}")
        yield from self._elapse(self.costs.memcpy_time(vals.nbytes, calls=1))
        view(addr, vals.size)[:] = vals

    # -- semaphores ------------------------------------------------------------
    def _resolve_sem(self, sem):
        """Accept a core-local semaphore id or a shared Semaphore object.

        Shared objects model NoC-visible semaphores used for cross-core
        coordination (the multi-core iteration barrier).
        """
        if isinstance(sem, int):
            try:
                return self.core.semaphores[sem]
            except KeyError:
                raise KernelError(
                    f"core {self.core.coord} has no semaphore {sem}") from None
        return sem

    def semaphore_set(self, sem, value: int):
        yield from self._elapse(self.costs.semaphore_op)
        self._resolve_sem(sem).set_value(value)

    def semaphore_inc(self, sem, n: int = 1):
        yield from self._elapse(self.costs.semaphore_op)
        self._resolve_sem(sem).release(n)

    def semaphore_wait(self, sem, value: int):
        """Block until the semaphore reaches ``value`` (non-consuming)."""
        yield from self._elapse(self.costs.semaphore_op)
        sem = self._resolve_sem(sem)
        if not sem.try_wait_at_least(value):
            yield from self._wait(sem.try_wait_at_least, sem.wait_at_least,
                                  value)


class DataMoverCtx(_CtxBase):
    """Context for the two data-mover baby cores (NoC reads/writes, memcpy)."""

    def __init__(self, core: TensixCore, slot: str,
                 args: Optional[Dict] = None):
        if slot not in (DATA_MOVER_0, DATA_MOVER_1):
            raise KernelError(f"invalid data-mover slot {slot!r}")
        super().__init__(core, args)
        self.slot = slot
        self.noc = core.noc0 if slot == DATA_MOVER_0 else core.noc1
        self.link = core.links[slot]
        self._outstanding_reads: List[Event] = []
        self._outstanding_writes: List[Event] = []
        # (bank, end-address) of the previous request, per direction, for
        # automatic contiguity detection.
        self._last_read_end: Optional[tuple[int, int]] = None
        self._last_write_end: Optional[tuple[int, int]] = None

    # -- addressing ----------------------------------------------------------
    def get_noc_addr(self, noc_x: int, noc_y: int, addr: int) -> NocAddr:
        """Resolve grid coordinates + offset to a DRAM NoC address."""
        device = self.arg("_device")
        bank = device.bank_from_noc_coords(noc_x, noc_y)
        return NocAddr(bank, addr)

    # -- contiguity bookkeeping -------------------------------------------------
    def _read_penalty(self, bank: int, addr: int, size: int) -> float:
        contiguous = self._last_read_end == (bank, addr)
        self._last_read_end = (bank, addr + size)
        return 0.0 if contiguous else self.costs.noncontig_read

    def _write_penalty(self, bank: int, addr: int, size: int) -> float:
        contiguous = self._last_write_end == (bank, addr)
        self._last_write_end = (bank, addr + size)
        return 0.0 if contiguous else self.costs.noncontig_write

    # -- raw async reads/writes (single-bank addressing, Listings 3/4) --------
    def noc_async_read(self, noc_addr: NocAddr, l1_addr: int, size: int):
        """Non-blocking DRAM→L1 read of ``size`` bytes.

        Functional data lands immediately (unaligned addresses return
        shifted bytes, per :mod:`repro.arch.dram`); the completion joins
        the outstanding set drained by :meth:`noc_async_read_barrier`.
        """
        pen = self._read_penalty(noc_addr.bank_id, noc_addr.addr, size)
        yield from self._elapse(self.costs.read_issue + pen)
        data, ev = self.noc.read(self.link,
                                 ReadJob(noc_addr.bank_id, noc_addr.addr, size))
        self.core.sram.view(l1_addr, size)[:] = data
        self._outstanding_reads.append(ev)

    def noc_async_read_barrier(self):
        """Block until every outstanding read has completed.

        Single-event waits (the common case: one read per barrier in the
        row-streaming kernels) skip the :class:`AllOf` machinery and block
        on the completion directly; an empty outstanding set returns
        without suspending at all.
        """
        pending = self._outstanding_reads
        if not pending:
            if self.core.hung_slots:
                yield from self._hang_check()
            return
        self._outstanding_reads = []
        ev = pending[0] if len(pending) == 1 else self.sim.all_of(pending)
        yield from self._block(ev)

    def noc_async_write(self, l1_addr: int, noc_addr: NocAddr, size: int):
        """Non-blocking L1→DRAM write (alignment rules apply at the bank)."""
        pen = self._write_penalty(noc_addr.bank_id, noc_addr.addr, size)
        yield from self._elapse(self.costs.write_issue + pen)
        data = self.core.sram.view(l1_addr, size).copy()
        ev = self.noc.write(self.link,
                            WriteJob(noc_addr.bank_id, noc_addr.addr, data))
        self._outstanding_writes.append(ev)

    def noc_async_write_barrier(self):
        """Block until every outstanding write has completed (same
        single-event / empty-set fast paths as the read barrier)."""
        pending = self._outstanding_writes
        if not pending:
            if self.core.hung_slots:
                yield from self._hang_check()
            return
        self._outstanding_writes = []
        ev = pending[0] if len(pending) == 1 else self.sim.all_of(pending)
        yield from self._block(ev)

    # -- buffer-level access (handles interleaving transparently) ---------------
    def noc_read_buffer(self, buf: Buffer, offset: int, l1_addr: int,
                        size: int, *, replay: bool = False):
        """Read a logical range of a :class:`Buffer` into L1.

        Splits across interleaved pages, charging the per-page address
        generation overhead (Table VI); marks ``replay`` for re-reads of
        recently fetched rows (Table V).
        """
        jobs = buf.read_jobs(offset, size)
        pen = self._read_penalty(jobs[0].bank_id, jobs[0].addr,
                                 jobs[0].size) if jobs else 0.0
        issue = self.costs.read_issue + pen
        if len(jobs) > 1:
            issue += (len(jobs) - 1) * self.costs.page_overhead_read
        yield from self._elapse(issue)
        out: List[np.ndarray] = []
        ev = self.noc.read_burst(self.link, jobs, out, replay=replay,
                                 interleaved=buf.interleaved)
        view = self.core.sram.view(l1_addr, size)
        pos = 0
        for chunk in out:
            view[pos:pos + chunk.size] = chunk
            pos += chunk.size
        self._outstanding_reads.append(ev)

    def noc_write_buffer(self, buf: Buffer, offset: int, l1_addr: int,
                         size: int):
        """Write L1 bytes to a logical range of a :class:`Buffer`."""
        data = self.core.sram.view(l1_addr, size).copy()
        jobs = buf.write_jobs(offset, data)
        pen = self._write_penalty(jobs[0].bank_id, jobs[0].addr,
                                  len(jobs[0].data)) if jobs else 0.0
        issue = self.costs.write_issue + pen
        if len(jobs) > 1:
            issue += (len(jobs) - 1) * self.costs.page_overhead_write
        yield from self._elapse(issue)
        ev = self.noc.write_burst(self.link, jobs, interleaved=buf.interleaved)
        self._outstanding_writes.append(ev)

    # -- burst helpers (streaming sweeps: millions of requests, O(1) events) ----
    def noc_read_buffer_burst(self, buf: Buffer, ranges: Sequence[tuple[int, int]],
                              l1_addr: int, *, sync: bool = False,
                              replay: bool = False,
                              window: Optional[int] = None):
        """Issue many logical reads as one lumped event.

        ``ranges`` is a sequence of ``(offset, size)``.  With ``sync`` each
        request is followed by a barrier (the per-request discipline of
        Tables III/IV); otherwise one barrier covers the burst.  Payloads
        land back-to-back at ``l1_addr``; ``window`` makes the destination
        a rotating scratch of that many bytes (how the streaming kernels
        reuse one CB page at full problem scale).
        """
        jobs: List[ReadJob] = []
        issue = 0.0
        for off, size in ranges:
            for j in buf.read_jobs(off, size):
                issue += self.costs.read_issue + self._read_penalty(
                    j.bank_id, j.addr, j.size)
                jobs.append(j)
        extra_pages = len(jobs) - len(ranges)
        if extra_pages > 0:
            issue += extra_pages * self.costs.page_overhead_read
        if sync:
            issue += len(jobs) * self.costs.read_latency
        yield from self._elapse(issue)
        out: List[np.ndarray] = []
        ev = self.noc.read_burst(self.link, jobs, out, replay=replay,
                                 interleaved=buf.interleaved)
        total = sum(s for _, s in ranges)
        win = window if window is not None else total
        view = self.core.sram.view(l1_addr, win)
        pos = 0
        for chunk in out:
            taken = 0
            while taken < chunk.size:
                room = min(win - pos, chunk.size - taken)
                view[pos:pos + room] = chunk[taken:taken + room]
                taken += room
                pos = (pos + room) % win
        self._outstanding_reads.append(ev)

    def noc_write_buffer_burst(self, buf: Buffer,
                               ranges: Sequence[tuple[int, int]],
                               l1_addr: int, *, sync: bool = False,
                               window: Optional[int] = None):
        """Mirror of :meth:`noc_read_buffer_burst` for writes."""
        total = sum(s for _, s in ranges)
        win = window if window is not None else total
        src = self.core.sram.view(l1_addr, win)
        jobs: List[WriteJob] = []
        issue = 0.0
        pos = 0
        n_segments = 0
        for off, size in ranges:
            data = _rotating_gather(src, pos, size)
            pos = (pos + size) % win
            for j in buf.write_jobs(off, data):
                issue += self.costs.write_issue + self._write_penalty(
                    j.bank_id, j.addr, len(j.data))
                jobs.append(j)
            n_segments += 1
        extra_pages = len(jobs) - n_segments
        if extra_pages > 0:
            issue += extra_pages * self.costs.page_overhead_write
        if sync:
            issue += len(jobs) * self.costs.write_latency
        yield from self._elapse(issue)
        ev = self.noc.write_burst(self.link, jobs, interleaved=buf.interleaved)
        self._outstanding_writes.append(ev)

    # -- uniform burst fast path (vectorised; single-bank buffers only) ---------
    def _place_window(self, l1_addr: int, window: Optional[int],
                      data: np.ndarray) -> None:
        """Land burst payload in a (possibly rotating) L1 window."""
        total = data.size
        win = window if window is not None else total
        view = self.core.sram.view(l1_addr, win)
        if total <= win:
            view[:total] = data
            return
        # Rotating scratch: only the final wrap survives; compute the end
        # state of the cyclic placement.
        pos_end = total % win
        tail = data[-win:]
        view[pos_end:] = tail[:win - pos_end]
        view[:pos_end] = tail[win - pos_end:]

    def noc_read_buffer_burst_uniform(self, buf: Buffer, start: int,
                                      n_requests: int, batch: int,
                                      stride: int, l1_addr: int, *,
                                      sync: bool = False,
                                      replay: bool = False,
                                      window: Optional[int] = None):
        """``n_requests`` reads of ``batch`` bytes spaced ``stride`` apart.

        O(1) in Python regardless of ``n_requests`` — the sweep path for
        Tables III–V where request counts reach 16.8 M.  Timing matches
        the per-request path (issue + contiguity penalties per request,
        one shared completion); per-request alignment corruption is not
        emulated here (see :meth:`Buffer.gather_uniform`).
        """
        contiguous = stride == batch
        pen_count = 1 if contiguous else n_requests
        issue = (n_requests * self.costs.read_issue
                 + pen_count * self.costs.noncontig_read)
        if sync:
            issue += n_requests * self.costs.read_latency
        yield from self._elapse(issue)
        data = buf.gather_uniform(start, n_requests, batch, stride)
        self._place_window(l1_addr, window, data)
        self._last_read_end = (buf.bank_id,
                               buf.addr + start + (n_requests - 1) * stride
                               + batch)
        ev = self.noc.book_read(self.link, buf.bank_id, data.size,
                                n_requests, replay=replay)
        self._outstanding_reads.append(ev)

    def noc_write_buffer_burst_uniform(self, buf: Buffer, start: int,
                                       n_requests: int, batch: int,
                                       stride: int, l1_addr: int, *,
                                       sync: bool = False,
                                       window: Optional[int] = None):
        """Mirror of the uniform read burst for writes."""
        contiguous = stride == batch
        pen_count = 1 if contiguous else n_requests
        issue = (n_requests * self.costs.write_issue
                 + pen_count * self.costs.noncontig_write)
        if sync:
            issue += n_requests * self.costs.write_latency
        yield from self._elapse(issue)
        total = n_requests * batch
        win = window if window is not None else total
        src = self.core.sram.view(l1_addr, win)
        payload = src if total == win else _rotating_gather(src, 0, total)
        buf.scatter_uniform(start, n_requests, batch, stride, payload)
        self._last_write_end = (buf.bank_id,
                                buf.addr + start + (n_requests - 1) * stride
                                + batch)
        ev = self.noc.book_write(self.link, buf.bank_id, total, n_requests)
        self._outstanding_writes.append(ev)

    # -- core-to-core SRAM transfers (future-work extension) ---------------------
    def noc_sram_write(self, dst_core, dst_l1: int, src_l1: int, size: int):
        """Push local L1 bytes into another core's L1 over this NoC.

        Grayskull silicon supports core↔core NoC transfers even though the
        paper's kernels never use them; the SRAM-resident solver
        (:mod:`repro.core.jacobi_sram`) exchanges halo rows this way.
        """
        yield from self._elapse(self.costs.write_issue)
        src = self.core.sram.view(src_l1, size).copy()
        ev = self.noc.sram_copy(self.link, src,
                                dst_core.sram.view(dst_l1, size))
        self._outstanding_writes.append(ev)

    def noc_sram_write_multicast(self, dst_cores, dst_l1: int, src_l1: int,
                                 size: int):
        """Replicate local L1 bytes into the same L1 window of many cores.

        Models tt-metal's ``noc_async_write_multicast`` (the grid-wide
        scalar/config broadcast pattern): one issue charge, one NoC copy
        per destination, every completion draining through
        :meth:`noc_async_write_barrier`.
        """
        dsts = list(dst_cores)
        if not dsts:
            raise KernelError(
                "noc_sram_write_multicast needs at least one destination")
        yield from self._elapse(self.costs.write_issue)
        src = self.core.sram.view(src_l1, size).copy()
        for dst in dsts:
            ev = self.noc.sram_copy(self.link, src,
                                    dst.sram.view(dst_l1, size))
            self._outstanding_writes.append(ev)

    # -- software memcpy on the data-mover core ---------------------------------
    @staticmethod
    def _copy_misaligned(*addrs: int) -> bool:
        """Non-word-aligned pointers halve the baby core's copy rate."""
        return any(a % 4 for a in addrs)

    def memcpy(self, dst_l1: int, src_l1: int, size: int):
        """One contiguous L1→L1 copy (expensive: ~633 MB/s + 450 ns/call)."""
        yield from self._elapse(self.costs.memcpy_time(
            size, calls=1, misaligned=self._copy_misaligned(dst_l1, src_l1)))
        sram = self.core.sram
        sram.view(dst_l1, size)[:] = sram.view(src_l1, size).copy()

    def memcpy_rows(self, dst_l1: int, dst_stride: int, src_l1: int,
                    src_stride: int, row_bytes: int, rows: int):
        """Strided row-by-row copy — the 4-CB extraction of Section IV.

        Each row is a separate copy call (the per-call overhead is what
        makes this the paper's dominant bottleneck, Table II).
        """
        if rows <= 0 or row_bytes <= 0:
            raise KernelError("rows and row_bytes must be positive")
        misaligned = self._copy_misaligned(dst_l1, src_l1,
                                           dst_stride, src_stride)
        yield from self._elapse(
            self.costs.memcpy_time(rows * row_bytes, calls=rows,
                                   misaligned=misaligned))
        sram = self.core.sram
        for r in range(rows):
            sram.view(dst_l1 + r * dst_stride, row_bytes)[:] = \
                sram.view(src_l1 + r * src_stride, row_bytes).copy()


class ComputeCtx(_CtxBase):
    """Context for the logical compute core (unpack/math/pack + FPU)."""

    slot = COMPUTE

    def __init__(self, core: TensixCore, args: Optional[Dict] = None):
        super().__init__(core, args)
        self.fpu = core.fpu

    # -- register file ---------------------------------------------------------
    def tile_regs_acquire(self):
        yield from self._elapse(self.costs.cb_op)
        self.fpu.acquire_dst()

    def tile_regs_release(self):
        yield from self._elapse(self.costs.cb_op)
        self.fpu.release_dst()

    # -- tile math (each charges one calibrated FPU op) --------------------------
    def add_tiles(self, cb_a: int, cb_b: int, ia: int, ib: int, dst: int):
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.add_tiles(self._cb(cb_a), self._cb(cb_b), ia, ib, dst)

    def sub_tiles(self, cb_a: int, cb_b: int, ia: int, ib: int, dst: int):
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.sub_tiles(self._cb(cb_a), self._cb(cb_b), ia, ib, dst)

    def mul_tiles(self, cb_a: int, cb_b: int, ia: int, ib: int, dst: int):
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.mul_tiles(self._cb(cb_a), self._cb(cb_b), ia, ib, dst)

    def copy_tile(self, cb: int, idx: int, dst: int):
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.copy_tile(self._cb(cb), idx, dst)

    def add_tile_to_dst(self, cb: int, idx: int, dst: int):
        """Destination-accumulation mode (the paper's rejected variant)."""
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.add_tiles_to_dst(self._cb(cb), idx, dst)

    def unary_tile(self, op: str, cb: int, idx: int, dst: int):
        """SFPU elementwise op: exp/log/sqrt/square/abs/sin/cos/
        reciprocal/relu/sigmoid (the FPU capabilities the paper lists)."""
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.unary_tile(op, self._cb(cb), idx, dst)

    def reduce_tile(self, cb: int, idx: int, dst: int, kind: str = "sum"):
        """Scalar tile reduction (sum / max / absmax); value in dst[0]."""
        yield from self._elapse(self.costs.fpu_op)
        return self.fpu.reduce_tile(self._cb(cb), idx, dst, kind=kind)

    def matmul_tiles(self, cb_a: int, cb_b: int, ia: int, ib: int,
                     dst: int, accumulate: bool = False):
        """32x32 tile matrix multiply — the FPU's ML primitive."""
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.matmul_tiles(self._cb(cb_a), self._cb(cb_b), ia, ib, dst,
                              accumulate=accumulate)

    def transpose_tile(self, cb: int, idx: int, dst: int):
        """32x32 tile transpose."""
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.transpose_tile(self._cb(cb), idx, dst)

    def pack_tile(self, dst: int, cb_out: int, page_offset: int = 0):
        yield from self._elapse(self.costs.fpu_op)
        self.fpu.pack_tile(dst, self._cb(cb_out), page_offset)

    def cb_set_wr_ptr(self, cb_id: int, l1_addr: int):
        """Producer-side alias (the Section-VIII API recommendation).

        Points the packer at an arbitrary L1 address so ``pack_tile``
        writes straight into e.g. an SRAM-resident domain slab.
        """
        yield from self._elapse(self.costs.cb_op)
        self._cb(cb_id).set_wr_ptr(l1_addr)

    # -- the paper's extension ----------------------------------------------------
    def cb_set_rd_ptr(self, cb_id: int, l1_addr: int):
        """``cb_set_rd_ptr`` → ``llk_set_read_ptr`` (Section VI).

        Points the unpacker at an arbitrary L1 address so subsequent tile
        reads alias the data mover's local buffer — no memcpy.  Install it
        after ``cb_wait_front`` completes, exactly as the paper describes.
        """
        yield from self._elapse(self.costs.cb_op)
        self._cb(cb_id).set_rd_ptr(l1_addr)

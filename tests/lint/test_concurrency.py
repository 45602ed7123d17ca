"""Cross-core concurrency rules (R301..R305): the happens-before pass.

Positive exactness for each rule lives in
``tests/lint/test_corpus_concurrency.py`` (driven by the seeded
corpus); this file covers the *model*: ordering edges that must
suppress findings, the fail-open paths (unknown operands, loops,
branches, single-core launches), and the R304 mismatch variant.
"""

from repro import lint
from repro.arch.device import GrayskullDevice
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.lint.concurrency import concurrency_findings
from repro.sim.resources import Semaphore
from repro.ttmetal import (CreateCircularBuffer, CreateKernel, Program,
                           create_buffer)


def _two_cores(device):
    row = device.worker_grid(1, 2)[0]
    return row[0], row[1]


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


# --------------------------------------------------------------------------
# ordering edges suppress races
# --------------------------------------------------------------------------

class TestHappensBefore:
    def test_semaphore_handshake_orders_write_before_read(self, device):
        """barrier -> inc -> wait -> read: the canonical halo handoff."""
        def writer(ctx):
            buf = ctx.arg("buf")
            sem = ctx.arg("sem")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_write_buffer(buf, 0, src, 64)
            yield from ctx.noc_async_write_barrier()
            yield from ctx.semaphore_inc(sem, 1)

        def reader(ctx):
            buf = ctx.arg("buf")
            sem = ctx.arg("sem")
            dst = ctx.core.sram.allocate(64, align=32)
            yield from ctx.semaphore_wait(sem, 1)
            yield from ctx.noc_read_buffer(buf, 0, dst, 64)
            yield from ctx.noc_async_read_barrier()

        buf = create_buffer(device, 4096, bank_id=0)
        sem = Semaphore(device.sim, value=0, name="handoff")
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, writer, core_a, DATA_MOVER_0,
                     {"buf": buf, "sem": sem})
        CreateKernel(prog, reader, core_b, DATA_MOVER_0,
                     {"buf": buf, "sem": sem})
        assert concurrency_findings(prog) == []

    def test_unbarriered_write_does_not_commit_at_the_inc(self, device):
        """The inc orders the *wait*, not bytes still in flight: K104's
        bug seen globally.  Without the write barrier the handshake must
        NOT suppress the race."""
        def writer(ctx):
            buf = ctx.arg("buf")
            sem = ctx.arg("sem")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_write_buffer(buf, 0, src, 64)
            yield from ctx.semaphore_inc(sem, 1)

        def reader(ctx):
            buf = ctx.arg("buf")
            sem = ctx.arg("sem")
            dst = ctx.core.sram.allocate(64, align=32)
            yield from ctx.semaphore_wait(sem, 1)
            yield from ctx.noc_read_buffer(buf, 0, dst, 64)
            yield from ctx.noc_async_read_barrier()

        buf = create_buffer(device, 4096, bank_id=0)
        sem = Semaphore(device.sim, value=0, name="handoff")
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, writer, core_a, DATA_MOVER_0,
                     {"buf": buf, "sem": sem})
        CreateKernel(prog, reader, core_b, DATA_MOVER_0,
                     {"buf": buf, "sem": sem})
        assert rule_ids(concurrency_findings(prog)) == ["R302"]

    def test_interleaved_buffer_overlap_races_in_logical_space(self, device):
        """Interleaved buffers race on logical offsets, not bank bytes."""
        def writer_low(ctx):
            buf = ctx.arg("buf")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_write_buffer(buf, 0, src, 64)
            yield from ctx.noc_async_write_barrier()

        def writer_high(ctx):
            buf = ctx.arg("buf")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_write_buffer(buf, 32, src, 64)
            yield from ctx.noc_async_write_barrier()

        buf = create_buffer(device, 4096, interleaved=True, page_size=1024)
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, writer_low, core_a, DATA_MOVER_0, {"buf": buf})
        CreateKernel(prog, writer_high, core_b, DATA_MOVER_0, {"buf": buf})
        findings = concurrency_findings(prog)
        assert rule_ids(findings) == ["R301"]
        assert "interleaved" in findings[0].message

    def test_disjoint_intervals_do_not_race(self, device):
        def writer_low(ctx):
            buf = ctx.arg("buf")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_write_buffer(buf, 0, src, 64)
            yield from ctx.noc_async_write_barrier()

        def writer_far(ctx):
            buf = ctx.arg("buf")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_write_buffer(buf, 128, src, 64)
            yield from ctx.noc_async_write_barrier()

        buf = create_buffer(device, 4096, bank_id=0)
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, writer_low, core_a, DATA_MOVER_0, {"buf": buf})
        CreateKernel(prog, writer_far, core_b, DATA_MOVER_0, {"buf": buf})
        assert concurrency_findings(prog) == []


# --------------------------------------------------------------------------
# fail-open suppression
# --------------------------------------------------------------------------

def _straight_writer(ctx):
    buf = ctx.arg("buf")
    src = ctx.core.sram.allocate(64, align=32)
    yield from ctx.noc_write_buffer(buf, 0, src, 64)
    yield from ctx.noc_async_write_barrier()


class TestFailOpen:
    def test_same_core_slots_never_race(self, device):
        """dm0 and dm1 of one core: not cross-core, not R3xx's business."""
        def writer_high(ctx):
            buf = ctx.arg("buf")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_write_buffer(buf, 32, src, 64)
            yield from ctx.noc_async_write_barrier()

        buf = create_buffer(device, 4096, bank_id=0)
        core = device.core(0, 0)
        prog = Program(device)
        CreateKernel(prog, _straight_writer, core, DATA_MOVER_0,
                     {"buf": buf})
        CreateKernel(prog, writer_high, core, DATA_MOVER_1, {"buf": buf})
        assert concurrency_findings(prog) == []

    def test_unknown_offset_suppresses_the_race(self, device):
        """A statically-unknown interval can never be a race endpoint."""
        def writer_unknown(ctx):
            buf = ctx.arg("buf")
            off = ctx.arg("off")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_write_buffer(buf, off, src, 64)
            yield from ctx.noc_async_write_barrier()

        buf = create_buffer(device, 4096, bank_id=0)
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, _straight_writer, core_a, DATA_MOVER_0,
                     {"buf": buf})
        CreateKernel(prog, writer_unknown, core_b, DATA_MOVER_0,
                     {"buf": buf, "off": 0})
        assert concurrency_findings(prog) == []

    def test_looped_access_is_not_a_candidate(self, device):
        """A write inside a symbolic loop has no exact call index, so no
        replayable witness exists — suppressed, not guessed."""
        def looped_writer(ctx):
            buf = ctx.arg("buf")
            n = ctx.arg("n")
            src = ctx.core.sram.allocate(64, align=32)
            for _ in range(n):
                yield from ctx.noc_write_buffer(buf, 0, src, 64)
            yield from ctx.noc_async_write_barrier()

        buf = create_buffer(device, 4096, bank_id=0)
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, _straight_writer, core_a, DATA_MOVER_0,
                     {"buf": buf})
        CreateKernel(prog, looped_writer, core_b, DATA_MOVER_0,
                     {"buf": buf, "n": 2})
        assert concurrency_findings(prog) == []

    def test_guarded_access_is_not_a_candidate(self, device):
        def guarded_writer(ctx):
            buf = ctx.arg("buf")
            src = ctx.core.sram.allocate(64, align=32)
            if ctx.arg("flag"):
                yield from ctx.noc_write_buffer(buf, 0, src, 64)
            yield from ctx.noc_async_write_barrier()

        buf = create_buffer(device, 4096, bank_id=0)
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, _straight_writer, core_a, DATA_MOVER_0,
                     {"buf": buf})
        CreateKernel(prog, guarded_writer, core_b, DATA_MOVER_0,
                     {"buf": buf, "flag": True})
        assert concurrency_findings(prog) == []

    def test_unknown_semaphore_op_suppresses_races(self, device):
        """An unresolvable semaphore op could carry the missing ordering
        edge; every race in the launch stands down."""
        def writer_with_mystery_wait(ctx):
            buf = ctx.arg("buf")
            sem = ctx.arg("mystery")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.semaphore_wait(sem, 1)
            yield from ctx.noc_write_buffer(buf, 32, src, 64)
            yield from ctx.noc_async_write_barrier()

        buf = create_buffer(device, 4096, bank_id=0)
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, _straight_writer, core_a, DATA_MOVER_0,
                     {"buf": buf})
        # "mystery" deliberately absent from args: unresolvable identity
        CreateKernel(prog, writer_with_mystery_wait, core_b, DATA_MOVER_0,
                     {"buf": buf})
        assert concurrency_findings(prog) == []


# --------------------------------------------------------------------------
# signal accounting (R304) details
# --------------------------------------------------------------------------

class TestSignalAccounting:
    def test_mismatched_budget_is_flagged(self, device):
        """Signals exist but sum below the wait threshold: still stuck."""
        def waiter(ctx):
            yield from ctx.semaphore_wait(ctx.arg("sem"), 3)

        def signaler(ctx):
            yield from ctx.semaphore_inc(ctx.arg("sem"), 1)

        sem = Semaphore(device.sim, value=0, name="short")
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, waiter, core_a, DATA_MOVER_0, {"sem": sem})
        CreateKernel(prog, signaler, core_b, DATA_MOVER_0, {"sem": sem})
        findings = concurrency_findings(prog)
        # one precise finding: R305 stands down when R304 explains it
        assert rule_ids(findings) == ["R304"]
        assert findings[0].witness is not None

    def test_sufficient_budget_is_clean(self, device):
        def waiter(ctx):
            yield from ctx.semaphore_wait(ctx.arg("sem"), 2)

        def signaler(ctx):
            yield from ctx.semaphore_inc(ctx.arg("sem"), 2)

        sem = Semaphore(device.sim, value=0, name="enough")
        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, waiter, core_a, DATA_MOVER_0, {"sem": sem})
        CreateKernel(prog, signaler, core_b, DATA_MOVER_0, {"sem": sem})
        assert concurrency_findings(prog) == []


# --------------------------------------------------------------------------
# deadlock detection (R305) via closure-captured semaphores
# --------------------------------------------------------------------------

class TestDeadlockResolution:
    def test_closure_captured_semaphores_resolve(self, device):
        """Kernels that close over live Semaphore objects (instead of
        taking them as runtime args) still get the circular wait."""
        sem_a = Semaphore(device.sim, 0, name="a")
        sem_b = Semaphore(device.sim, 0, name="b")

        def first(ctx):
            yield from ctx.semaphore_wait(sem_a, 1)
            yield from ctx.semaphore_inc(sem_b, 1)

        def second(ctx):
            yield from ctx.semaphore_wait(sem_b, 1)
            yield from ctx.semaphore_inc(sem_a, 1)

        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, first, core_a, DATA_MOVER_0, {})
        CreateKernel(prog, second, core_b, DATA_MOVER_0, {})
        findings = concurrency_findings(prog)
        assert rule_ids(findings) == ["R305"]
        assert findings[0].witness.kind == "hang"

    def test_signal_before_wait_breaks_the_cycle(self, device):
        """The textbook fix — one side signals first — lints clean."""
        sem_a = Semaphore(device.sim, 0, name="a")
        sem_b = Semaphore(device.sim, 0, name="b")

        def first(ctx):
            yield from ctx.semaphore_inc(sem_b, 1)
            yield from ctx.semaphore_wait(sem_a, 1)

        def second(ctx):
            yield from ctx.semaphore_wait(sem_b, 1)
            yield from ctx.semaphore_inc(sem_a, 1)

        core_a, core_b = _two_cores(device)
        prog = Program(device)
        CreateKernel(prog, first, core_a, DATA_MOVER_0, {})
        CreateKernel(prog, second, core_b, DATA_MOVER_0, {})
        assert concurrency_findings(prog) == []


    def test_pointer_install_keeps_a_straight_line_kernel_checked(self):
        """``cb_set_rd_ptr`` is one runtime call and one trace call, so a
        compute kernel that installs a read pointer before its side of a
        circular wait is still straight-line: R305 flags the cycle and
        the witness hangs the DES."""
        def build():
            device = GrayskullDevice(dram_bank_capacity=1 << 20)
            sem_a = Semaphore(device.sim, 0, name="a")
            sem_b = Semaphore(device.sim, 0, name="b")

            def aliased(ctx):
                yield from ctx.cb_set_rd_ptr(0, 0x8000)
                yield from ctx.semaphore_wait(sem_a, 1)
                yield from ctx.semaphore_inc(sem_b, 1)

            def second(ctx):
                yield from ctx.semaphore_wait(sem_b, 1)
                yield from ctx.semaphore_inc(sem_a, 1)

            core_a, core_b = _two_cores(device)
            prog = Program(device)
            CreateCircularBuffer(prog, core_a, 0, 64, 2)
            CreateKernel(prog, aliased, core_a, COMPUTE, {})
            CreateKernel(prog, second, core_b, DATA_MOVER_0, {})
            return device, prog

        _device, prog = build()
        findings = concurrency_findings(prog)
        assert rule_ids(findings) == ["R305"]
        result = lint.replay_witness(build, findings[0].witness)
        assert result.confirmed, result.detail


# --------------------------------------------------------------------------
# the multicast op in the single-kernel rules
# --------------------------------------------------------------------------

class TestMulticastKernelRules:
    def test_multicast_counts_as_write_for_k104(self):
        def bad(ctx):
            dsts = ctx.arg("dsts")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_sram_write_multicast(dsts, 0x8000, src, 64)
            yield from ctx.semaphore_inc(0, 1)

        assert "K104" in {f.rule_id for f in lint.lint_kernel(bad)}

    def test_barriered_multicast_is_clean(self):
        def good(ctx):
            dsts = ctx.arg("dsts")
            src = ctx.core.sram.allocate(64, align=32)
            yield from ctx.noc_sram_write_multicast(dsts, 0x8000, src, 64)
            yield from ctx.noc_async_write_barrier()
            yield from ctx.semaphore_inc(0, 1)

        assert not lint.lint_kernel(good)

"""The lint report memo: a hit returns exactly what a fresh lint returns.

``lint_program`` reuses the findings of an earlier program whose
signature — every input a rule reads, as plain values — is equal.  These
tests pin the three ways that can go wrong: a hit whose findings differ
from a fresh lint, a key that misses an input a rule reads (so a changed
program wrongly hits), and a memo that changes what each launch reports
or keeps a device alive.
"""

import gc
import warnings
import weakref
from dataclasses import replace

import pytest

from repro import lint
from repro.arch.device import GrayskullDevice
from repro.arch.tensix import COMPUTE, DATA_MOVER_0
from repro.cli import lint_sweep
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_optimized import OptimizedJacobiRunner
from repro.lint import corpus_concurrency as corpus
from repro.perfmodel.calibration import DEFAULT_COSTS
from repro.sim.resources import Semaphore
from repro.ttmetal import (
    CreateCircularBuffer,
    CreateKernel,
    CreateSemaphore,
    EnqueueProgram,
    LintError,
    LintWarning,
    Program,
    create_buffer,
)
from tests.lint.fixtures import broken_kernels as bk


@pytest.fixture(autouse=True)
def _cold_caches():
    lint.clear_caches()
    yield
    lint.clear_caches()


# --------------------------------------------------------------------------
# kernels (module level, so the tracer can read their source)
# --------------------------------------------------------------------------

def _write_low(ctx):
    buf = ctx.arg("buf")
    yield from ctx.noc_write_buffer(buf, 0, 0x8000, 64)
    yield from ctx.noc_async_write_barrier()


def _write_high(ctx):
    buf = ctx.arg("buf")
    yield from ctx.noc_write_buffer(buf, 32, 0x8000, 64)
    yield from ctx.noc_async_write_barrier()


def _read_low(ctx):
    buf = ctx.arg("buf")
    yield from ctx.noc_read_buffer(buf, 0, 0x8000, 64)
    yield from ctx.noc_async_read_barrier()


def _read_at_32(ctx):
    buf = ctx.arg("buf")
    yield from ctx.noc_read_buffer(buf, 32, 0x8000, 32)
    yield from ctx.noc_async_read_barrier()


def _wait_s1_signal_s2(ctx):
    s1 = ctx.arg("s1")
    s2 = ctx.arg("s2")
    yield from ctx.semaphore_wait(s1, 1)
    yield from ctx.semaphore_inc(s2, 1)


def _wait_s2_signal_s1(ctx):
    s1 = ctx.arg("s1")
    s2 = ctx.arg("s2")
    yield from ctx.semaphore_wait(s2, 1)
    yield from ctx.semaphore_inc(s1, 1)


def _wait_local_sem(ctx):
    yield from ctx.semaphore_wait(0, 1)


def _bystander(ctx):
    yield from ctx.noc_async_write_barrier()


def _needs_arg(ctx):
    """Requires runtime arg ``needed`` but passes no arg as an operand."""
    _ = ctx.arg("needed")
    yield from ctx.noc_async_write_barrier()


# --------------------------------------------------------------------------
# (a) a second copy of every swept and corpus program hits, and the hit
#     equals a lint run after clear_caches()
# --------------------------------------------------------------------------

def _lint_each(run, monkeypatch, *, cold: bool):
    """Launch ``run``'s programs; ``(report, hit)`` per program linted.

    ``cold`` clears every lint cache before each lint, so each report is
    a fresh analysis.
    """
    linted = []
    lint_program = lint.lint_program

    def record(program):
        if cold:
            lint.clear_caches()
        hits = lint.MEMO.hits
        report = lint_program(program)
        linted.append((report, lint.MEMO.hits > hits))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(lint, "lint_program", record)
        with lint.capture():
            run()
    return linted


@pytest.mark.parametrize(
    "run", [pytest.param(run, id=name) for name, run in lint_sweep()])
def test_second_copy_of_a_swept_program_hits(run, monkeypatch):
    _lint_each(run, monkeypatch, cold=False)      # the first copy
    second = _lint_each(run, monkeypatch, cold=False)
    fresh = _lint_each(run, monkeypatch, cold=True)
    assert second and all(hit for _report, hit in second)
    assert not any(hit for _report, hit in fresh)
    assert [r.findings for r, _ in second] == [r.findings for r, _ in fresh]
    assert [r.render() for r, _ in second] == [r.render() for r, _ in fresh]
    assert lint.MEMO.unkeyed == 0


@pytest.mark.parametrize("rule_id", ["P201", *corpus.CORPUS])
def test_second_copy_of_a_corpus_program_hits(rule_id):
    lint.lint_program(corpus.build(rule_id)[1])
    _dev, program = corpus.build(rule_id)
    hits = lint.MEMO.hits
    report = lint.lint_program(program)
    assert lint.MEMO.hits == hits + 1
    lint.clear_caches()
    fresh = lint.lint_program(program)
    assert report.rule_ids() == [rule_id]
    assert report.findings == fresh.findings
    assert report.render() == fresh.render()


# --------------------------------------------------------------------------
# (b) one mutation per key input: each misses and returns the fresh
#     findings, which differ from the unmutated program's
# --------------------------------------------------------------------------

def _setup(costs=DEFAULT_COSTS):
    dev = GrayskullDevice(costs=costs, dram_bank_capacity=1 << 20)
    return dev, dev.worker_grid(1, 2)[0]


def _cb_program(n_pages):
    """Reserve 8 pages of CB 0 (configured with ``n_pages``, or not at
    all when None) and consume them."""
    dev, (core, _) = _setup()
    prog = Program(dev)
    if n_pages is not None:
        CreateCircularBuffer(prog, core, 0, 64, n_pages)
    CreateKernel(prog, bk.p203_reserve_too_many, core, DATA_MOVER_0)
    CreateKernel(prog, bk.p203_consumer, core, COMPUTE)
    return prog


def _cb_record_program(n_pages):
    """CB 0 allocated with 8 pages but recorded with ``n_pages``: only the
    record P203 reads differs, not the core's L1 layout."""
    prog = _cb_program(8)
    prog.circular_buffers[0] = replace(prog.circular_buffers[0],
                                       n_pages=n_pages)
    return prog


def _arg_program(args):
    dev, (core, _) = _setup()
    prog = Program(dev)
    CreateKernel(prog, _needs_arg, core, DATA_MOVER_0, args)
    return prog


def _aligned_read_program(misaligned=False, alignment=32):
    dev, (core, _) = _setup(replace(DEFAULT_COSTS, dram_alignment=alignment))
    buf = create_buffer(dev, 256, bank_id=0)
    if misaligned:
        buf.addr += 16
    prog = Program(dev)
    CreateKernel(prog, _read_at_32, core, DATA_MOVER_0, {"buf": buf})
    return prog


def _two_writer_program(shared, second=_write_high):
    dev, (a, b) = _setup()
    one = create_buffer(dev, 512, interleaved=True, page_size=128)
    other = create_buffer(dev, 512, interleaved=True, page_size=128)
    prog = Program(dev)
    CreateKernel(prog, _write_low, a, DATA_MOVER_0, {"buf": one})
    CreateKernel(prog, second, b, DATA_MOVER_0,
                 {"buf": one if shared else other})
    return prog


def _handshake_program(shared):
    dev, (a, b) = _setup()
    mine = {"s1": Semaphore(dev.sim, 0, "s1"),
            "s2": Semaphore(dev.sim, 0, "s2")}
    theirs = mine if shared else {"s1": Semaphore(dev.sim, 0, "s1"),
                                  "s2": Semaphore(dev.sim, 0, "s2")}
    prog = Program(dev)
    CreateKernel(prog, _wait_s1_signal_s2, a, DATA_MOVER_0, mine)
    CreateKernel(prog, _wait_s2_signal_s1, b, DATA_MOVER_0, theirs)
    return prog


def _local_wait_program(initial):
    dev, (a, b) = _setup()
    prog = Program(dev)
    CreateSemaphore(prog, a, 0, initial)
    CreateKernel(prog, _wait_local_sem, a, DATA_MOVER_0)
    CreateKernel(prog, _bystander, b, DATA_MOVER_0)
    return prog


def _l1_program(overlap):
    prog = _cb_program(8)
    if overlap:
        sram = prog.kernels[0].core.sram
        sram.regions.append((sram.regions[-1][0] + 16, 64, "forged"))
    return prog


def _producer_program(core_index=0, cb=True):
    """A lonely producer: P201 with its CB configured, P207 without."""
    dev, cores = _setup()
    core = cores[core_index]
    prog = Program(dev)
    if cb:
        CreateCircularBuffer(prog, core, 0, 64, 2)
    CreateKernel(prog, bk.p201_lonely_producer, core, DATA_MOVER_0)
    return prog


#: key input -> functions making (the unmutated, the mutated) program
MUTATIONS = {
    "cb-n-pages": (lambda: _cb_program(8), lambda: _cb_program(4)),
    "cb-record-n-pages": (lambda: _cb_record_program(8),
                          lambda: _cb_record_program(4)),
    "cb-never-configured": (lambda: _cb_program(8), lambda: _cb_program(None)),
    "arg-renamed": (lambda: _arg_program({"needed": 3}),
                    lambda: _arg_program({"renamed": 3})),
    "arg-removed": (lambda: _arg_program({"needed": 3}),
                    lambda: _arg_program({})),
    "buffer-misaligned": (lambda: _aligned_read_program(),
                          lambda: _aligned_read_program(misaligned=True)),
    "buffer-sharing": (lambda: _two_writer_program(shared=True),
                       lambda: _two_writer_program(shared=False)),
    "semaphore-sharing": (lambda: _handshake_program(shared=True),
                          lambda: _handshake_program(shared=False)),
    "semaphore-initial": (lambda: _local_wait_program(0),
                          lambda: _local_wait_program(1)),
    "l1-overlap": (lambda: _l1_program(False), lambda: _l1_program(True)),
    # without a CB the core's L1 layout is empty: only its coord differs
    "core": (lambda: _producer_program(0, cb=False),
             lambda: _producer_program(1, cb=False)),
    "dram-alignment": (lambda: _aligned_read_program(),
                       lambda: _aligned_read_program(alignment=64)),
    "kernel-fn": (lambda: _two_writer_program(shared=True),
                  lambda: _two_writer_program(shared=True,
                                              second=_read_low)),
}


@pytest.mark.parametrize("base,mutant", MUTATIONS.values(),
                         ids=list(MUTATIONS))
def test_a_mutated_key_input_misses(base, mutant):
    before = lint.lint_program(base())
    program = mutant()
    hits, misses = lint.MEMO.hits, lint.MEMO.misses
    report = lint.lint_program(program)
    assert (lint.MEMO.hits, lint.MEMO.misses) == (hits, misses + 1)
    lint.clear_caches()
    assert report.findings == lint.lint_program(program).findings
    assert report.findings != before.findings


# --------------------------------------------------------------------------
# every launch still reports on its own; nothing stays alive
# --------------------------------------------------------------------------

class TestEveryLaunchReports:
    def test_strict_raises_on_a_hit(self):
        for _ in range(2):
            prog = _producer_program()
            with pytest.raises(LintError):
                EnqueueProgram(prog.device, prog, lint="strict")
        assert lint.MEMO.hits == 1

    def test_warn_mode_warns_on_every_launch(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                prog = _producer_program()
                EnqueueProgram(prog.device, prog, lint="warn")
        assert [w.category for w in caught
                if issubclass(w.category, LintWarning)] == [LintWarning] * 3
        assert lint.MEMO.hits == 2

    def test_capture_collects_a_hit(self):
        lint.lint_program(_producer_program())
        prog = _producer_program()
        with lint.capture() as report:
            EnqueueProgram(prog.device, prog, lint="warn")
        assert lint.MEMO.hits == 1
        assert report.rule_ids() == ["P201"]

    def test_reports_share_no_findings_list(self):
        first = lint.lint_program(_producer_program())
        expected = list(first.findings)
        first.findings.clear()
        second = lint.lint_program(_producer_program())
        assert second.findings == expected
        second.findings.extend(expected)
        assert lint.lint_program(_producer_program()).findings == expected
        assert lint.MEMO.hits == 2


def test_memo_keeps_no_device_alive():
    refs = []
    for _ in range(2):                  # a miss, then a hit
        dev = GrayskullDevice(dram_bank_capacity=1 << 20)
        runner = OptimizedJacobiRunner(dev, LaplaceProblem(nx=32, ny=32),
                                       cores_y=2, cores_x=2)
        runner.run(1)
        refs.append(weakref.ref(dev))
        del dev, runner
    gc.collect()
    assert (lint.MEMO.hits, len(lint.MEMO)) == (1, 1)
    assert [ref() for ref in refs] == [None, None]

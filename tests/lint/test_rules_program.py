"""Program-level rules (P201..P207) against seeded-violation programs."""

import pytest

from repro import lint
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.ttmetal import (
    CreateCircularBuffer,
    CreateKernel,
    CreateSemaphore,
    Program,
    create_buffer,
)
from tests.lint.fixtures import broken_kernels as bk


def build(device, kernels, cbs=(), sems=()):
    """Assemble (but do not enqueue) a single-core program."""
    prog = Program(device)
    core = device.core(0, 0)
    for cb_id, page, pages in cbs:
        CreateCircularBuffer(prog, core, cb_id, page, pages)
    for sem_id, initial in sems:
        CreateSemaphore(prog, core, sem_id, initial)
    for fn, slot, args in kernels:
        CreateKernel(prog, fn, core, slot, args)
    return prog


def rule_ids(report):
    return {f.rule_id for f in report.findings}


def copies_cb7(ctx):
    yield from ctx.copy_tile(7, 0, 0)


def accumulates_cb7(ctx):
    yield from ctx.add_tile_to_dst(7, 0, 0)


class TestCbGraph:
    def test_p201_no_consumer(self, device):
        prog = build(device, [(bk.p201_lonely_producer, DATA_MOVER_0, {})],
                     cbs=[(0, 64, 2)])
        report = lint.lint_program(prog)
        assert rule_ids(report) == {"P201"}
        (finding,) = report.findings
        assert finding.severity == lint.Severity.WARNING
        assert "CB 0" in finding.message

    def test_p202_no_producer(self, device):
        prog = build(device, [(bk.p202_lonely_consumer, COMPUTE, {})],
                     cbs=[(1, 64, 2)])
        report = lint.lint_program(prog)
        assert rule_ids(report) == {"P202"}

    def test_paired_producer_consumer_is_clean(self, device):
        def producer(ctx):
            yield from ctx.cb_reserve_back(0, 1)
            yield from ctx.cb_push_back(0, 1)

        def consumer(ctx):
            yield from ctx.cb_wait_front(0, 1)
            yield from ctx.cb_pop_front(0, 1)
        prog = build(device, [(producer, DATA_MOVER_0, {}),
                              (consumer, COMPUTE, {})], cbs=[(0, 64, 2)])
        assert rule_ids(lint.lint_program(prog)) == set()

    def test_p207_unconfigured_cb(self, device):
        prog = build(device,
                     [(bk.p207_producer_unconfigured, DATA_MOVER_0, {}),
                      (bk.p207_consumer_unconfigured, COMPUTE, {})],
                     cbs=[(0, 64, 2)])
        report = lint.lint_program(prog)
        assert rule_ids(report) == {"P207"}
        assert {f.kernel for f in report.findings} == {
            "p207_producer_unconfigured", "p207_consumer_unconfigured"}

    @pytest.mark.parametrize("kernel", [copies_cb7, accumulates_cb7],
                             ids=lambda fn: fn.__name__)
    def test_p207_single_cb_tile_op(self, device, kernel):
        """copy_tile / add_tile_to_dst name a CB like add_tiles does."""
        report = lint.lint_program(build(device, [(kernel, COMPUTE, {})]))
        (finding,) = report.findings
        assert finding.rule_id == "P207"
        assert finding.kernel == kernel.__name__
        assert "CB 7" in finding.message

    def test_p207_guarded_reference_is_not_flagged(self, device):
        """A CB referenced only inside a branch may be feature-gated."""
        def producer(ctx):
            yield from ctx.cb_reserve_back(0, 1)
            yield from ctx.cb_push_back(0, 1)
            if ctx.arg("extra", default=None) is not None:
                yield from ctx.cb_reserve_back(5, 1)
                yield from ctx.cb_push_back(5, 1)

        def consumer(ctx):
            yield from ctx.cb_wait_front(0, 1)
            yield from ctx.cb_pop_front(0, 1)
            if ctx.arg("extra", default=None) is not None:
                yield from ctx.cb_wait_front(5, 1)
                yield from ctx.cb_pop_front(5, 1)
        prog = build(device, [(producer, DATA_MOVER_0, {}),
                              (consumer, COMPUTE, {})], cbs=[(0, 64, 2)])
        assert rule_ids(lint.lint_program(prog)) == set()


class TestPageDeadlock:
    def test_p203_single_reserve_exceeds_pages(self, device):
        prog = build(device, [(bk.p203_reserve_too_many, DATA_MOVER_0, {}),
                              (bk.p203_consumer, COMPUTE, {})],
                     cbs=[(0, 64, 4)])
        report = lint.lint_program(prog)
        assert rule_ids(report) == {"P203"}
        assert "n_pages=4" in report.findings[0].message

    def test_p203_cumulative_reserve_exceeds_pages(self, device):
        prog = build(device, [(bk.p203_creeping_reserve, DATA_MOVER_0, {}),
                              (bk.p203_consumer, COMPUTE, {})],
                     cbs=[(0, 64, 4)])
        report = lint.lint_program(prog)
        assert "P203" in rule_ids(report)

    def test_p203_within_pages_is_clean(self, device):
        def ok(ctx):
            yield from ctx.cb_reserve_back(0, 4)
            yield from ctx.cb_push_back(0, 4)
        prog = build(device, [(ok, DATA_MOVER_0, {}),
                              (bk.p203_consumer, COMPUTE, {})],
                     cbs=[(0, 64, 4)])
        assert rule_ids(lint.lint_program(prog)) == set()


class TestL1Overlap:
    def test_p204_overlapping_regions(self):
        findings = lint.lint_l1_regions(
            [(0, 128, "a"), (96, 64, "b")], capacity=1 << 20)
        assert [f.rule_id for f in findings] == ["P204"]
        assert "'a'" in findings[0].message and "'b'" in findings[0].message

    def test_p204_capacity_exceeded(self):
        findings = lint.lint_l1_regions(
            [(0, 128, "a"), ((1 << 20) - 64, 128, "big")],
            capacity=1 << 20)
        assert [f.rule_id for f in findings] == ["P204"]
        assert "exceeds" in findings[0].message

    def test_p204_disjoint_regions_clean(self):
        assert lint.lint_l1_regions(
            [(0, 128, "a"), (128, 128, "b"), (512, 64, "c")],
            capacity=1 << 20) == []

    def test_p204_through_program(self, device):
        prog = build(device, [(bk.p203_consumer, COMPUTE, {})],
                     cbs=[(0, 64, 2)])
        core = device.core(0, 0)
        base = core.sram.regions[-1][0]
        core.sram.regions.append((base + 16, 64, "forged-overlap"))
        report = lint.lint_program(prog)
        assert "P204" in rule_ids(report)


class TestArgsAndAlignment:
    def test_p205_missing_runtime_arg(self, device):
        prog = build(device, [(bk.p205_needs_missing_arg, DATA_MOVER_0, {})],
                     sems=[(0, 0)])
        report = lint.lint_program(prog)
        assert rule_ids(report) == {"P205"}
        assert "missing_thing" in report.findings[0].message

    def test_p205_provided_arg_is_clean(self, device):
        prog = build(device,
                     [(bk.p205_needs_missing_arg, DATA_MOVER_0,
                       {"missing_thing": 3})], sems=[(0, 0)])
        assert rule_ids(lint.lint_program(prog)) == set()

    def test_p205_default_arg_is_clean(self, device):
        def kernel(ctx):
            flag = ctx.arg("optional", default=None)
            yield from ctx.semaphore_wait(0, 0)
        prog = build(device, [(kernel, DATA_MOVER_0, {})], sems=[(0, 0)])
        assert rule_ids(lint.lint_program(prog)) == set()

    def test_p206_misaligned_offset(self, device):
        buf = create_buffer(device, 256, bank_id=0)
        prog = build(device, [(bk.p206_misaligned_offset, DATA_MOVER_0,
                               {"src": buf})])
        report = lint.lint_program(prog)
        assert rule_ids(report) == {"P206"}
        assert "offset 13" in report.findings[0].message

    def test_p206_aligned_offset_is_clean(self, device):
        def kernel(ctx):
            buf = ctx.arg("src")
            l1 = ctx.core.sram.allocate(64)
            yield from ctx.noc_read_buffer(buf, 32, l1, 32)
            yield from ctx.noc_async_read_barrier()
        buf = create_buffer(device, 256, bank_id=0)
        prog = build(device, [(kernel, DATA_MOVER_0, {"src": buf})])
        assert rule_ids(lint.lint_program(prog)) == set()

    def test_p206_interleaved_buffers_exempt(self, device):
        """Interleaved buffers re-page transfers; offsets need no alignment."""
        def kernel(ctx):
            buf = ctx.arg("src")
            l1 = ctx.core.sram.allocate(64)
            yield from ctx.noc_read_buffer(buf, 13, l1, 32)
            yield from ctx.noc_async_read_barrier()
        buf = create_buffer(device, 512, interleaved=True, page_size=128)
        prog = build(device, [(kernel, DATA_MOVER_0, {"src": buf})])
        assert rule_ids(lint.lint_program(prog)) == set()

"""Per-kernel rules (K101..K106) against the seeded-violation corpus."""

import pytest

from repro import lint
from tests.lint.fixtures import broken_kernels as bk


def rule_ids(fn):
    return {f.rule_id for f in lint.lint_kernel(fn)}


class TestCorpusFires:
    @pytest.mark.parametrize("fn,expected", [
        (bk.k101_loop_imbalance, "K101"),
        (bk.k102_pop_without_wait, "K102"),
        (bk.k103_unbarriered_read_publish, "K103"),
        (bk.k104_unbarriered_write_handoff, "K104"),
        (bk.k105_alias_before_wait, "K105"),
        (bk.k106_misaligned_noc_addr, "K106"),
    ])
    def test_exactly_the_expected_rule(self, fn, expected):
        assert rule_ids(fn) == {expected}

    def test_findings_carry_location_and_hint(self):
        (finding,) = lint.lint_kernel(bk.k102_pop_without_wait)
        assert finding.rule_id == "K102"
        assert finding.filename.endswith("broken_kernels.py")
        assert finding.lineno > 0
        assert finding.kernel == "k102_pop_without_wait"
        assert finding.hint
        assert "K102" in finding.render()


class TestCleanKernels:
    def test_balanced_loop_is_clean(self):
        def balanced(ctx):
            n = ctx.arg("n")
            for _ in range(n):
                yield from ctx.cb_reserve_back(0, 1)
                yield from ctx.cb_push_back(0, 1)
                yield from ctx.cb_wait_front(1, 1)
                yield from ctx.cb_pop_front(1, 1)
        assert rule_ids(balanced) == set()

    def test_barriered_read_publish_is_clean(self):
        def good(ctx):
            buf = ctx.arg("buf")
            yield from ctx.cb_reserve_back(0, 1)
            yield from ctx.noc_read_buffer(buf, 0, ctx.cb_write_ptr(0), 64)
            yield from ctx.noc_async_read_barrier()
            yield from ctx.cb_push_back(0, 1)
        assert rule_ids(good) == set()

    def test_sync_read_needs_no_barrier(self):
        def good(ctx):
            buf = ctx.arg("buf")
            yield from ctx.cb_reserve_back(0, 1)
            yield from ctx.noc_read_buffer_burst(
                buf, [(0, 64)], ctx.cb_write_ptr(0), sync=True)
            yield from ctx.cb_push_back(0, 1)
        assert rule_ids(good) == set()

    def test_barriered_write_handoff_is_clean(self):
        def good(ctx):
            buf = ctx.arg("buf")
            l1 = ctx.core.sram.allocate(64)
            yield from ctx.noc_write_buffer(buf, 0, l1, 64)
            yield from ctx.noc_async_write_barrier()
            yield from ctx.semaphore_inc(0, 1)
        assert rule_ids(good) == set()

    def test_rewaited_alias_is_clean(self):
        def good(ctx):
            yield from ctx.cb_wait_front(0, 1)
            yield from ctx.cb_set_rd_ptr(0, 32 * 1024)
            yield from ctx.cb_pop_front(0, 1)
            yield from ctx.cb_wait_front(0, 1)
            yield from ctx.cb_set_rd_ptr(0, 64 * 1024)
            yield from ctx.cb_pop_front(0, 1)
        assert rule_ids(good) == set()

    def test_aligned_noc_address_is_clean(self):
        from repro.ttmetal.kernel_api import NocAddr

        def good(ctx):
            l1 = ctx.core.sram.allocate(64)
            yield from ctx.noc_async_read(NocAddr(0, 64), l1, 64)
            yield from ctx.noc_async_read_barrier()
        assert rule_ids(good) == set()


class TestCalibratedAlignment:
    def test_k106_reads_the_calibrated_dram_alignment(self, monkeypatch):
        """Address 96 is 32-byte aligned but not 64-byte aligned."""
        from dataclasses import replace

        from repro.perfmodel import calibration
        from repro.ttmetal.kernel_api import NocAddr

        monkeypatch.setattr(
            calibration, "DEFAULT_COSTS",
            replace(calibration.DEFAULT_COSTS, dram_alignment=64))

        def reads_at_96(ctx):
            l1 = ctx.core.sram.allocate(64)
            yield from ctx.noc_async_read(NocAddr(0, 96), l1, 64)
            yield from ctx.noc_async_read_barrier()
        (finding,) = lint.lint_kernel(reads_at_96)
        assert finding.rule_id == "K106"
        assert "64-byte (512-bit) aligned" in finding.message


class TestFailOpen:
    def test_branch_dependent_barrier_is_maybe_not_flagged(self):
        """A barrier behind a data-dependent branch gives MAYBE, not YES."""
        def kernel(ctx):
            buf = ctx.arg("buf")
            yield from ctx.cb_reserve_back(0, 1)
            yield from ctx.noc_read_buffer(buf, 0, ctx.cb_write_ptr(0), 64)
            if ctx.arg("flush"):
                yield from ctx.noc_async_read_barrier()
            yield from ctx.cb_push_back(0, 1)
        assert rule_ids(kernel) == set()

    def test_unparseable_kernel_stands_down(self):
        """A kernel without retrievable source must not crash the linter."""
        code = ("def built(ctx):\n"
                "    yield from ctx.cb_pop_front(0, 1)\n")
        ns = {}
        exec(code, ns)
        trace = lint.extract_trace(ns["built"])
        assert trace.unavailable
        assert lint.lint_kernel(ns["built"]) == []

    def test_unknown_cb_id_suppresses_k102(self):
        def kernel(ctx):
            cb = ctx.arg("cb")
            yield from ctx.cb_wait_front(cb, 1)
            yield from ctx.cb_pop_front(0, 1)
        assert rule_ids(kernel) == set()

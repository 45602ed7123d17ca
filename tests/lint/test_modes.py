"""EnqueueProgram lint integration: warn / strict / off / capture."""

import warnings

import pytest

from repro import lint
from repro.arch.tensix import COMPUTE, DATA_MOVER_0
from repro.ttmetal import (
    CreateCircularBuffer,
    CreateKernel,
    EnqueueProgram,
    LintError,
    LintWarning,
    Program,
)
from tests.lint.fixtures import broken_kernels as bk


def broken_program(device):
    """A program whose only defect is the P201 lonely producer."""
    prog = Program(device)
    core = device.core(0, 0)
    CreateCircularBuffer(prog, core, 0, 64, 2)
    CreateKernel(prog, bk.p201_lonely_producer, core, DATA_MOVER_0, {})
    return prog


def clean_program(device):
    def producer(ctx):
        yield from ctx.cb_reserve_back(0, 1)
        yield from ctx.cb_push_back(0, 1)

    def consumer(ctx):
        yield from ctx.cb_wait_front(0, 1)
        yield from ctx.cb_pop_front(0, 1)
    prog = Program(device)
    core = device.core(0, 0)
    CreateCircularBuffer(prog, core, 0, 64, 2)
    CreateKernel(prog, producer, core, DATA_MOVER_0, {})
    CreateKernel(prog, consumer, core, COMPUTE, {})
    return prog


class TestModes:
    def test_default_mode_warns(self, device):
        with pytest.warns(LintWarning, match="P201"):
            EnqueueProgram(device, broken_program(device))

    def test_strict_raises(self, device):
        with pytest.raises(LintError) as exc_info:
            EnqueueProgram(device, broken_program(device), lint="strict")
        report = exc_info.value.report
        assert {f.rule_id for f in report.findings} == {"P201"}

    def test_off_is_silent(self, device):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            EnqueueProgram(device, broken_program(device), lint="off")

    def test_invalid_mode_rejected(self, device):
        with pytest.raises(ValueError, match="unknown lint mode"):
            EnqueueProgram(device, broken_program(device), lint="loud")

    def test_clean_program_never_warns(self, device):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            EnqueueProgram(device, clean_program(device), lint="strict")


class TestCapture:
    def test_capture_collects_instead_of_warning(self, device):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with lint.capture() as report:
                EnqueueProgram(device, broken_program(device))
        assert {f.rule_id for f in report.findings} == {"P201"}

    def test_capture_suppresses_strict_raise(self, device):
        with lint.capture() as report:
            EnqueueProgram(device, broken_program(device), lint="strict")
        assert report

    def test_deliver_without_collector(self):
        assert not lint.deliver(lint.LintReport(scope="test"))


class TestReportRendering:
    def test_render_lists_rule_and_location(self, device):
        report = lint.lint_program(broken_program(device))
        text = report.render()
        assert "P201" in text
        assert "broken_kernels.py" in text
        assert "hint:" in text

    def test_report_counts(self, device):
        report = lint.lint_program(broken_program(device))
        assert len(report) == 1
        assert len(report.warnings) == 1
        assert len(report.errors) == 0
        assert bool(report)

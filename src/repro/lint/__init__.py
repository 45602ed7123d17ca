"""``repro.lint`` — static verification of device kernels and programs.

The paper's hardest bugs are protocol bugs: a missing
``noc_async_read_barrier`` publishes garbage, an unbalanced CB loop
deadlocks the Fig.-3 pipeline, a misaligned DRAM read silently returns
shifted bytes (Listing 4).  This package catches those *before* the
simulator runs:

* per-kernel rules (K101..K106) interpret the kernel's AST into a
  symbolic API trace (:mod:`repro.lint.trace`) and check CB pairing,
  NoC barrier ordering, read-alias discipline and address alignment;
* program rules (P201..P207) join the traces of all kernels on a core
  with the host-side configuration (CBs, runtime args, L1 layout,
  DRAM buffers) and check the producer/consumer graph, page-count
  deadlocks, L1 overlaps and buffer-offset alignment;
* launch rules (R301..R305, :mod:`repro.lint.concurrency`) build a
  happens-before graph over *every* core of a launch and check for
  cross-core NoC races, multicast overlaps, lost semaphore signals and
  global circular-wait deadlocks — each finding carrying a replayable
  counterexample schedule (``repro lint --witness``);
* the Python-source determinism audit (:mod:`repro.lint.pysource`,
  ``repro lint --py``) walks the host-side package for wall-clock
  imports and unseeded RNG use.

``EnqueueProgram`` runs the pass automatically (warn by default,
``lint="strict"`` raises :class:`LintError`, ``lint="off"``
disables), and ``python -m repro lint`` sweeps every shipped kernel and
example.  Rules read call operands by kernel-API parameter name; the
rest of what they know of the API lives in :mod:`repro.lint.api`.  Repeat launches of one
program shape lint once: :func:`lint_program` reuses the findings of an
earlier program with the same value-only signature
(:mod:`repro.lint.memo`), and :func:`clear_caches` forgets them.  See
``docs/lint_rules.md`` for the full rule catalogue.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List

from .concurrency import concurrency_findings
from .findings import Finding, LintError, LintReport, LintWarning, Severity
from .memo import MEMO, signature
from .registry import RULES, Rule, all_rules, make_finding
from .rules_kernel import kernel_findings, lint_kernel
from .rules_program import lint_l1_regions, program_findings
from .trace import _TRACE_CACHE, KernelTrace, extract_trace
from .witness import ReplayResult, Witness, WitnessStep, replay_witness

__all__ = [
    "Finding", "LintError", "LintReport", "LintWarning", "Severity",
    "Rule", "RULES", "all_rules",
    "lint_kernel", "lint_program", "lint_l1_regions",
    "concurrency_findings",
    "Witness", "WitnessStep", "ReplayResult", "replay_witness",
    "extract_trace", "KernelTrace",
    "capture", "deliver", "clear_caches",
]

# active capture() collectors (innermost last); when one is active,
# EnqueueProgram routes findings here instead of warning/raising
_collectors: List[LintReport] = []


@contextmanager
def capture():
    """Collect lint findings from ``EnqueueProgram`` calls in a block.

    Used by the ``repro lint`` CLI to sweep programs without spamming
    warnings::

        with lint.capture() as report:
            EnqueueProgram(device, program)
        print(report.render())
    """
    report = LintReport(scope="capture")
    _collectors.append(report)
    try:
        yield report
    finally:
        _collectors.remove(report)


def deliver(report: LintReport) -> bool:
    """Hand a report to the active collector; False when none is active."""
    if not _collectors:
        return False
    _collectors[-1].extend(report.findings)
    return True


def _run_rules(program) -> List[Finding]:
    findings: List[Finding] = []
    for spec in getattr(program, "kernels", []):
        findings.extend(kernel_findings(extract_trace(spec.fn)))
    findings.extend(program_findings(program))
    findings.extend(concurrency_findings(program))
    # the same kernel fn on many cores yields identical findings: dedupe
    return list(dict.fromkeys(findings))


def lint_program(program) -> LintReport:
    """Run all kernel, program and launch rules over an assembled Program.

    A program whose signature (every rule input, as plain values) matches
    an earlier one's gets that program's findings in a new report.
    """
    sig = signature(program)
    findings = MEMO.get(sig)
    if findings is None:
        findings = _run_rules(program)
        MEMO.put(sig, findings)
    return LintReport(findings=list(findings), scope="program")


def clear_caches() -> None:
    """Forget every kernel trace and memoised program report, so the
    next lint runs the full analysis."""
    _TRACE_CACHE.clear()
    MEMO.clear()

"""Table VIII — performance and energy: CPU vs e150 vs multi-card.

1024×9216 BF16 elements over 5000 iterations.  CPU rows use the
calibrated Xeon model; e150 rows use the Tier-2 scaling model (identical
cost constants to the DES).  ``benchmarks/test_fidelity_tiers.py`` pins
the DES/model ratio of each affordable single-card row at this scale;
the tiers agree within 13% on four rows and differ 1.2× and 2.2× on
8×9 and 8×4.

Each row is an independent solver-model evaluation, so the driver fans
the rows out through the :mod:`repro.parallel` engine (job kind
``table8``): ``jobs=N`` parallelises them with byte-identical output,
and the content-addressed cache makes repeated regenerations near-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.report import Table
from repro.experiments.common import ExperimentResult, RowComparison
from repro.experiments.reference import TABLE8_PROBLEM, TABLE8_ROWS
from repro.parallel import JobSpec, sweep_results

__all__ = ["Table8Row", "run"]


@dataclass(frozen=True)
class Table8Row:
    """One Table VIII configuration (the ``table8`` job kind's config)."""

    typ: str                 #: "cpu" | "e150"
    total: int               #: total cores (CPU threads / Tensix workers)
    cy: Optional[int]
    cx: Optional[int]
    cards: int
    nx: int
    ny: int
    iterations: int
    compute_answers: bool = False


def run(nx: int = TABLE8_PROBLEM["nx"], ny: int = TABLE8_PROBLEM["ny"],
        iterations: int = TABLE8_PROBLEM["iterations"],
        rows: Optional[Sequence[tuple]] = None,
        compute_answers: bool = False, *,
        jobs: Optional[int] = None, cache=None) -> ExperimentResult:
    """Regenerate Table VIII.

    ``compute_answers=True`` additionally runs the functional BF16 sweeps
    for every configuration (minutes at paper scale; the validation tests
    do it at small scale instead).
    """
    at_paper = (nx, ny, iterations) == tuple(TABLE8_PROBLEM.values())
    table = Table(
        f"Table VIII: performance & energy, {nx}x{ny} over {iterations} "
        "iterations",
        ["Type", "Cores", "Y", "X", "GPt/s", "(paper)", "ratio",
         "Energy J", "(paper)"])
    comparisons = []

    row_tuples = list(rows or TABLE8_ROWS)
    specs = []
    for row in row_tuples:
        typ, total, cy, cx, cards, _paper_gpts, _paper_j = row
        specs.append(JobSpec("table8", Table8Row(
            typ=typ, total=total, cy=cy, cx=cx, cards=cards, nx=nx, ny=ny,
            iterations=iterations, compute_answers=compute_answers)))
    measured = sweep_results(specs, jobs=jobs, cache=cache)

    for row, res in zip(row_tuples, measured):
        typ, total, cy, cx, cards, paper_gpts, paper_j = row
        gpts, energy_j = res["gpts"], res["energy_j"]
        pg = paper_gpts if at_paper else None
        pj = paper_j if at_paper else None
        table.add_row(
            typ, total, cy if cy else "-", cx if cx else "-",
            f"{gpts:.2f}", f"{pg:.2f}" if pg else "-",
            f"{gpts / pg:.2f}" if pg else "-",
            f"{energy_j:.0f}", f"{pj:.0f}" if pj else "-")
        comparisons.append(RowComparison(f"{typ} {total} cores GPt/s",
                                         gpts, pg, unit="GPt/s"))
        comparisons.append(RowComparison(f"{typ} {total} cores energy",
                                         energy_j, pj, unit="J"))

    result = ExperimentResult("table8", table.title, table, comparisons)
    result.notes.append(
        "The paper lists the 8-core geometry as 4x4 (16 cores); we use the "
        "consistent 2x4 placement.")
    result.notes.append(
        "Key shapes reproduced: the full e150 (108 workers) edges out the "
        "24-core Xeon at ~5x less energy; X-splits that break the "
        "1024-element chunk (e.g. 8x8) lose FPU efficiency; 2 and 4 cards "
        "scale near-linearly (no inter-card halos, as in the paper).")
    return result

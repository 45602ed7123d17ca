"""Experiment drivers: one per table/figure of the paper.

Each ``tableN`` module exposes ``run(...)`` returning an
:class:`~repro.experiments.common.ExperimentResult` that carries the
rendered paper-style table plus (measured, paper) pairs per row for the
EXPERIMENTS.md fidelity log.  ``figures`` regenerates the paper's
illustrations as text renderings computed from live simulator objects.

:data:`TABLES` registers every table once and :func:`run_table` runs
one.  Drivers are imported on first use, so importing this package
(e.g. for :mod:`~repro.experiments.reference`) loads no simulator code.
"""

from __future__ import annotations

import importlib
from typing import Optional

from repro.experiments.common import ExperimentResult, RowComparison

__all__ = ["ExperimentResult", "RowComparison", "TABLES", "run_table"]

_JACOBI_QUICK = dict(nx=64, ny=64, iterations=200, sim_iterations=2)
_STREAM_QUICK = dict(rows=64, row_elems=1024)

#: table number -> (driver ``"module.function"``, ``--quick`` kwargs,
#: whether the driver takes ``jobs``/``cache``)
TABLES = {
    1: ("table1.run", _JACOBI_QUICK, False),
    2: ("table2.run", _JACOBI_QUICK, False),
    3: ("table34.run_table3", _STREAM_QUICK, True),
    4: ("table34.run_table4", _STREAM_QUICK, True),
    5: ("table567.run_table5", _STREAM_QUICK, True),
    6: ("table567.run_table6", dict(_STREAM_QUICK, replications=(0, 8)),
        True),
    7: ("table567.run_table7", dict(_STREAM_QUICK, core_counts=(1, 2, 4)),
        True),
    8: ("table8.run", dict(nx=1024, ny=128, iterations=20, rows=(
        ("cpu", 1, None, None, 0, None, None),
        ("cpu", 24, None, None, 0, None, None),
        ("e150", 4, 2, 2, 1, None, None),
        ("e150", 108, 12, 9, 1, None, None),
    )), True),
}


def run_table(number: int, quick: bool = False, jobs: Optional[int] = None,
              cache=None) -> ExperimentResult:
    """Regenerate table ``number`` at paper scale, or reduced with
    ``quick``; ``jobs``/``cache`` reach only the sweep-backed tables."""
    driver, quick_kwargs, parallel = TABLES[number]
    module, function = driver.rsplit(".", 1)
    run = getattr(importlib.import_module(f"repro.experiments.{module}"),
                  function)
    kwargs = dict(quick_kwargs) if quick else {}
    if parallel:
        kwargs.update(jobs=jobs, cache=cache)
    return run(**kwargs)

#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Usage::

    python examples/reproduce_paper.py            # paper-scale (minutes)
    python examples/reproduce_paper.py --quick    # reduced scale (seconds)

Paper-scale runs print each table with the paper's numbers and the
measured/paper ratio per cell — the data behind EXPERIMENTS.md.
``--quick`` runs the same reduced sizes as ``repro table N --quick``.
"""

import sys
import time

from repro.experiments import TABLES, figures, run_table


def run_all(quick: bool):
    results = []
    t0 = time.time()
    for number in TABLES:
        result = run_table(number, quick=quick)
        results.append(result)
        print(result.render())
        print(f"[{time.time() - t0:6.1f}s]\n")

    for fig_id, text in figures.all_figures().items():
        print(f"--- {fig_id} " + "-" * 50)
        print(text)
        print()

    print("=" * 66)
    print("fidelity summary (measured/paper, worst row per table):")
    for r in results:
        worst = r.worst_ratio()
        label = f"{worst:.2f}x" if worst else "n/a (reduced scale)"
        print(f"  {r.experiment_id:8s} {label}")
    return results


if __name__ == "__main__":
    run_all(quick="--quick" in sys.argv)

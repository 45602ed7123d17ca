"""Compare two end-to-end result files: before (A) and after (B).

    python benchmarks/e2e/compare.py A.json B.json

Both files come from ``run.py --out``.  A workload is compared only when
its config hash and its invariants (event counts, simulated times, grid
and report SHAs) are identical in both files; otherwise the script
refuses, because the two runs did not do the same work.

For every metric it prints the median and quartiles of the per-rep
samples on each side and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than the bound, or, when
  the spread is wide, every B sample beats every A sample;
* ``unresolved`` — the quartile spread of either side exceeds the bound,
  so "unchanged" cannot be claimed;
* ``unchanged`` — within the bound, with a spread inside it;
* ``info`` — per-layer metrics, which have no bound.

Exit status: 0 clean, 1 on any regression, 2 when the files cannot be
compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def verdict(a, b, better: str, bound):
    """(relative change toward worse, verdict) of sample lists a -> b."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mb - ma) / ma if ma else 0.0
    if bound is None:
        return worse, "info"
    spread = max((q3 - q1) / abs(m) if m else 0.0
                 for (q1, q3), m in ((quartiles(a), ma), (quartiles(b), mb)))
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound or (spread > bound and all_better):
        return worse, "better"
    if spread > bound:
        return worse, "unresolved"
    return worse, "unchanged"


def refusals(wa: dict, wb: dict) -> list:
    out = []
    if wa["config_hash"] != wb["config_hash"]:
        out.append(f"config hash {wa['config_hash']} != {wb['config_hash']}")
    inv_a, inv_b = wa["invariants"], wb["invariants"]
    for key in sorted(set(inv_a) | set(inv_b)):
        if inv_a.get(key) != inv_b.get(key):
            out.append(f"invariant {key}: {inv_a.get(key)!r} != "
                       f"{inv_b.get(key)!r}")
    return out


def compare(doc_a: dict, doc_b: dict, spec: dict):
    """(output lines, regressions, refused workloads) of A -> B."""
    metric_spec = {m["name"]: m for m in spec["end_to_end"]}
    metric_spec.update({m["name"]: m for m in spec["per_layer"]})
    lines, regressions, refused = [], 0, 0
    lines.append(f"{'workload':<17} {'metric':<22} {'A median [q1, q3]':>30} "
                 f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<17} (missing from B)")
            continue
        why = refusals(wa, wb)
        if why:
            refused += 1
            lines.append(f"{name:<17} REFUSED: " + "; ".join(why))
            continue
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric)
            if mb is None or metric not in metric_spec:
                continue
            ms = metric_spec[metric]
            a, b = ma["samples"], mb["samples"]
            worse, word = verdict(a, b, ms["better"], ms.get("bound"))
            regressions += word == "REGRESSION"
            cells = []
            for s in (a, b):
                q1, q3 = quartiles(s)
                cells.append(f"{statistics.median(s):.5g} "
                             f"[{q1:.4g}, {q3:.4g}]")
            lines.append(f"{name:<17} {metric:<22} {cells[0]:>30} "
                         f"{cells[1]:>30} {100 * worse:+7.1f}%  {word}")
    return lines, regressions, refused


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args(argv)
    with open(args.before) as fh:
        doc_a = json.load(fh)
    with open(args.after) as fh:
        doc_b = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if doc_a.get("schema") != doc_b.get("schema"):
        print(f"REFUSED: schema {doc_a.get('schema')!r} != "
              f"{doc_b.get('schema')!r}")
        return 2
    lines, regressions, refused = compare(doc_a, doc_b, spec)
    print("\n".join(lines))
    print("(change is toward worse: + means B is worse than A)")
    if refused:
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

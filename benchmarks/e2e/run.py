"""End-to-end benchmark of record: every workload, one command.

    python benchmarks/e2e/run.py --seed 0 [--workload NAME ...]
        [--seconds 15] [--trace [0|1]] [--out FILE]

Each workload runs in its own child process (``harness.py``), one at a
time, single-threaded.  Untraced, the parent first times five fresh
set-up children (``setup_s``), then the measuring child warms up and
times repetitions for ``--seconds``.  Traced, the child profiles its
repetitions instead and the parent writes their spans as a Chrome trace.

Prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when
an output check or invariant fails, 2 when the repository is not there.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from harness import SCHEMA, host_speed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
HARNESS = os.path.join(HERE, "harness.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 900


class ChildError(RuntimeError):
    """A workload child crashed or printed no result."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _child_env() -> dict:
    # Library toggles are dropped so every run measures the defaults.
    # Peak RSS must not depend on allocation history: NumPy would ask for
    # transparent huge pages, which the kernel grants or not from run to
    # run, and glibc would raise its mmap threshold after the first large
    # free, so later arrays land on a heap whose fragmentation varies with
    # timing.  Either made peak RSS jump by tens of MB between runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMPY_MADVISE_HUGEPAGE="0", MALLOC_MMAP_THRESHOLD_="131072")
    return env


def _harness(name: str, seed: int, *extra: str) -> list:
    return [sys.executable, HARNESS, "--workload", name, "--seed", str(seed),
            *extra]


def time_setup(name: str, seed: int) -> list:
    """Seconds, at reference host speed, of fresh children that import
    and build the inputs (the host speed is sampled either side)."""
    samples = []
    speed = host_speed()
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        # no timeout: waiting with one polls, which quantises the time
        proc = subprocess.run(_harness(name, seed, "--setup-only"),
                              env=_child_env(), stdout=subprocess.DEVNULL)
        raw = perf_counter() - t0
        if proc.returncode:
            raise ChildError(f"{name}: set-up exited {proc.returncode}")
        after = host_speed()
        samples.append(raw * (speed + after) / 2)
        speed = after
    return samples


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        _harness(name, seed, "--seconds", repr(seconds),
                 "--trace", str(int(trace))),
        env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise ChildError(f"{name}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.4e}"


def render(doc: dict, wanted: list) -> list:
    """Human-readable lines for one workload."""
    n = doc["attempted"]
    lines = [f"{doc['workload']}  config={doc['config_hash']}  "
             f"reps={doc['reps']}  calls/rep={doc['calls_per_rep']}  "
             f"attempted={n}  failed={doc['failed']}  "
             f"fail_frac={doc['failed'] / n:.4g}"]
    if "host_speed" in doc:
        lines.append("  host speed " + " ".join(
            f"{x:.3f}" for x in doc["host_speed"]) + "  raw wall s " +
            " ".join(f"{x:.3f}" for x in doc["raw_wall_s"]))
    for name in wanted:
        m = doc["metrics"][name]
        lines.append(f"  {name:<24} {_fmt(m['value']):>12} {m['unit']:<6}"
                     f" ({len(m['samples'])} samples)")
    for name, (value, unit) in doc["sim"].items():
        lines.append(f"  {name:<24} {_fmt(value):>12} {unit:<6} (simulated)")
    if "modules_self_s" in doc:
        wall = doc["untraced_wall_s"] * doc["metrics"]["trace.overhead"][
            "value"]
        top = sorted(doc["modules_self_s"].items(), key=lambda kv: -kv[1])
        lines.append("  self time by module (share of traced rep):")
        lines += [f"    {mod:<32} {t:9.4f} s {100 * t / wall:6.1f}%"
                  for mod, t in top[:12]]
    lines += [f"  ERROR {e}" for e in doc["errors"]]
    return lines


def write_chrome_trace(path: str, docs: dict) -> None:
    events = []
    for pid, (name, doc) in enumerate(docs.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        for span_name, ts, dur, sid, parent in doc.pop("spans", []):
            events.append({"name": span_name, "cat": name, "ph": "X",
                           "ts": ts, "dur": dur, "pid": pid, "tid": 1,
                           "args": {"id": sid, "parent": parent}})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _workload_names(values, known) -> list:
    names = [n for v in values or [] for n in v.split(",") if n]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; known: "
                         f"{', '.join(known)}")
    return names or list(known)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="repro end-to-end benchmark of record")
    ap.add_argument("--workload", "--workloads", dest="workloads",
                    action="append", metavar="NAME[,NAME]",
                    help="workload(s) to run (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measured seconds per workload (at least 2 reps)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="profile the reps and report per-layer metrics")
    ap.add_argument("--out", help="write the full JSON result here")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log(f"e2e: no repro sources under {SRC}; run from a checkout")
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = _workload_names(args.workloads, WORKLOADS)
    trace = bool(args.trace)
    wanted = [m["name"] for m in
              spec["per_layer" if trace else "end_to_end"]]
    docs = {}
    try:
        for name in names:
            setup = []
            if not trace:
                _log(f"e2e: {name}: timing {SETUP_RUNS} set-ups")
                setup = time_setup(name, args.seed)
            _log(f"e2e: {name}: measuring for {args.seconds:g} s"
                 f"{' (traced)' if trace else ''}")
            doc = run_child(name, args.seed, args.seconds, trace)
            if not trace:
                doc["metrics"]["setup_s"] = {
                    "value": statistics.median(setup), "unit": "s",
                    "samples": setup}
            docs[name] = doc
    except (ChildError, subprocess.TimeoutExpired) as exc:
        _log(f"e2e: {exc}")
        return 1

    if trace:
        base = (os.path.splitext(args.out)[0] if args.out else
                os.path.join(OUT_DIR, f"e2e-seed{args.seed}"))
        os.makedirs(os.path.dirname(os.path.abspath(base)), exist_ok=True)
        write_chrome_trace(base + ".trace.json", docs)
        _log(f"e2e: spans written to {base}.trace.json")

    print(f"repro e2e  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={int(trace)}  python={platform.python_version()}  "
          f"cpus={os.cpu_count()}")
    for doc in docs.values():
        print("\n".join(render(doc, wanted)))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": SCHEMA,
                       "date": datetime.date.today().isoformat(),
                       "python": platform.python_version(),
                       "cpu_count": os.cpu_count(), "seed": args.seed,
                       "seconds": args.seconds, "trace": trace,
                       "workloads": docs}, fh, indent=1)
            fh.write("\n")

    correct = not any(doc["errors"] for doc in docs.values())
    prefix = len(docs) > 1
    metrics = {(f"{name}.{m}" if prefix else m):
               {"value": doc["metrics"][m]["value"],
                "unit": doc["metrics"][m]["unit"]}
               for name, doc in docs.items() for m in wanted}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

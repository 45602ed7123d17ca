"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``    run the Jacobi solver on a chosen backend/variant
``stream``   run one streaming-benchmark configuration
``table``    regenerate one of the paper's tables (I..VIII)
``figures``  regenerate the paper's figures as text
``profile``  run the optimised kernel and print the busy/stall profile
``faults``   run a seeded fault-injection campaign (or the watchdog demo)
``lint``     statically verify every shipped kernel and program
``bench``    run the perf benchmark suite, emit BENCH_<date>.json
``sweep``    run a streaming sweep through the parallel engine
``serve``    multi-tenant solve service: load test, replay, chaos campaign
``cluster``  multi-card halo-exchange solver: one config or scaling sweep
``ops``      the repro.ops workload library: run one op, or sweep them all

Sweep-producing commands (``table``, ``sweep``, ``faults``, ``bench``,
``serve``, ``cluster sweep``) accept a global ``-j/--jobs N`` flag that
fans their independent, deterministic sweep points out across N worker
processes — output is byte-identical to ``-j 1`` (``-j 0`` = all cores)
— and cache results content-addressed on (repro version, config, seed),
so re-running an unchanged sweep is near-free.  ``--no-cache`` (or the
environment variable ``REPRO_SWEEP_CACHE=0``) disables the cache.  See
``docs/parallel_sweeps.md``.

Examples::

    python -m repro solve --nx 64 --ny 64 --iterations 200 --backend e150
    python -m repro table 8
    python -m repro -j 4 table 7
    python -m repro table 3 --quick
    python -m repro sweep multicore -j 4 --report
    python -m repro stream --read-batch 64 --sync-read
    python -m repro profile --variant initial
    python -m repro faults --seed 7 --dram-flips 3 --core-failures 1
    python -m repro faults --seeds 0,1,2,3 -j 4
    python -m repro faults --replay-check
    python -m repro faults --hang-demo
    python -m repro lint
    python -m repro lint --list-rules
    python -m repro lint --format json
    python -m repro lint --py
    python -m repro lint --witness
    python -m repro lint --corpus R301
    python -m repro bench --smoke --check
    python -m repro serve loadgen --seed 0 --requests 64 --hangs 2
    python -m repro serve loadgen --seed 0 --record trace.jsonl
    python -m repro serve replay trace.jsonl
    python -m repro serve chaos --seed 0 --requests 48 --intensities 0.5,1,2
    python -m repro faults --seed 7 --trace-json trace.json
    python -m repro cluster solve --cards 2x2 --nx 64 --ny 64 --check
    python -m repro cluster sweep --mode weak --cards 1,2,4,8,16 -j 4
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, List, Optional, Tuple

from repro import ops as opslib
from repro.core.solver import JacobiSolver
from repro.experiments import TABLES, run_table

__all__ = ["main", "build_parser", "lint_sweep"]


def _core_grid(text: str) -> Tuple[int, int]:
    """``"YxX"`` (or ``"Y"``, meaning ``"Yx1"``) as a positive ``(Y, X)``."""
    cy, _, cx = text.partition("x")
    grid = (int(cy), int(cx or 1))
    if min(grid) < 1:
        raise ValueError(text)
    return grid


_core_grid.__name__ = "core grid"   # argparse: "invalid core grid value"


def _comma_list(item: Callable = str) -> Callable[[str], tuple]:
    """An argparse type: comma-separated ``item`` values, empty entries
    dropped, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(item(s.strip()) for s in text.split(",") if s.strip())
    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Accelerating stencils on the "
                    "Tenstorrent Grayskull RISC-V accelerator'")
    # Global sweep-engine flags.  They are accepted both before the
    # subcommand (`repro -j4 table 7`) and after it (`repro table 7 -j4`);
    # the subcommand copies use SUPPRESS so an absent flag never clobbers
    # a value given at the top level.
    _add_parallel_args(p, top_level=True)
    par = argparse.ArgumentParser(add_help=False)
    _add_parallel_args(par, top_level=False)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run the Jacobi solver")
    s.set_defaults(handler=_cmd_solve)
    s.add_argument("--nx", type=int, default=64)
    s.add_argument("--ny", type=int, default=64)
    s.add_argument("--iterations", type=int, default=100)
    s.add_argument("--backend", default="auto",
                   choices=JacobiSolver.BACKENDS)
    s.add_argument("--variant", default="optimized",
                   choices=JacobiSolver.VARIANTS)
    s.add_argument("--cores", type=_core_grid, default="1x1",
                   help="core grid as YxX, e.g. 12x9")
    s.add_argument("--cards", type=int, default=1)
    s.add_argument("--threads", type=int, default=1,
                   help="CPU threads (cpu backend)")
    s.add_argument("--sim-iterations", type=int, default=None,
                   help="simulate only this many iterations and "
                        "extrapolate")

    t = sub.add_parser("table", parents=[par],
                       help="regenerate a paper table")
    t.set_defaults(handler=_cmd_table)
    t.add_argument("number", type=int, choices=sorted(TABLES),
                   help="table number (1-8)")
    t.add_argument("--quick", action="store_true",
                   help="reduced problem size (no paper comparison)")

    sw = sub.add_parser(
        "sweep", parents=[par],
        help="run a streaming sweep through the parallel engine",
        description="Run one of the paper's streaming sweep plans "
                    "(Tables III-VII shapes) through repro.parallel: "
                    "points fan out across -j worker processes with "
                    "byte-identical output, results are cached "
                    "content-addressed.")
    sw.set_defaults(handler=_cmd_sweep)
    sw.add_argument("kind",
                    choices=["batch", "replication", "pages", "multicore"],
                    help="which sweep plan to run")
    sw.add_argument("--rows", type=int, default=1024)
    sw.add_argument("--row-elems", type=int, default=1024)
    sw.add_argument("--noncontiguous", action="store_true",
                    help="batch sweep only: Table IV access order")
    sw.add_argument("--report", action="store_true",
                    help="also print the per-job observability table "
                         "(worker ids, queue waits, wall times; host-"
                         "dependent, NOT byte-stable across runs)")

    sub.add_parser("figures", help="regenerate the paper's figures"
                   ).set_defaults(handler=_cmd_figures)

    st = sub.add_parser("stream", help="run one streaming configuration")
    st.set_defaults(handler=_cmd_stream)
    st.add_argument("--rows", type=int, default=1024)
    st.add_argument("--row-elems", type=int, default=1024)
    st.add_argument("--read-batch", type=int, default=None)
    st.add_argument("--write-batch", type=int, default=None)
    st.add_argument("--sync-read", action="store_true")
    st.add_argument("--sync-write", action="store_true")
    st.add_argument("--noncontiguous", action="store_true")
    st.add_argument("--replication", type=int, default=0)
    st.add_argument("--page-size", type=int, default=None,
                    help="interleave page size in bytes")
    st.add_argument("--cores", type=int, default=1)

    pr = sub.add_parser("profile", help="run a kernel and print its profile")
    pr.set_defaults(handler=_cmd_profile)
    pr.add_argument("--nx", type=int, default=64)
    pr.add_argument("--ny", type=int, default=64)
    pr.add_argument("--iterations", type=int, default=5)
    pr.add_argument("--variant", default="optimized",
                    choices=JacobiSolver.VARIANTS)

    f = sub.add_parser("faults", parents=[par],
                       help="run a seeded fault-injection campaign")
    f.set_defaults(handler=_cmd_faults)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--seeds", type=_comma_list(int), default=None,
                   help="comma-separated seed list (e.g. 0,1,2,3): run one "
                        "campaign per seed through the parallel sweep "
                        "engine and print the combined summary")
    f.add_argument("--report", action="store_true",
                   help="with --seeds: also print the per-job "
                        "observability table (not byte-stable)")
    f.add_argument("--nx", type=int, default=64)
    f.add_argument("--ny", type=int, default=64)
    f.add_argument("--iterations", type=int, default=64)
    f.add_argument("--cores", type=_core_grid, default="2x2",
                   help="core grid as YxX")
    f.add_argument("--dram-flips", type=int, default=3,
                   help="device-phase DRAM soft errors (ECC-scrubbed)")
    f.add_argument("--noc-faults", type=int, default=2)
    f.add_argument("--pcie-corruptions", type=int, default=1)
    f.add_argument("--solver-flips", type=int, default=2,
                   help="uncorrectable strikes on solver state")
    f.add_argument("--core-failures", type=int, default=1)
    f.add_argument("--checkpoint-every", type=int, default=8)
    f.add_argument("--no-ecc", action="store_true",
                   help="disable the DRAM ECC scrub model")
    f.add_argument("--trace-out", default=None,
                   help="write the canonical fault trace to this file")
    f.add_argument("--trace-json", default=None,
                   help="write the fault trace as JSON (schema "
                        "repro-faults/1; byte-stable, round-trips via "
                        "FaultTrace.from_json)")
    f.add_argument("--replay-check", action="store_true",
                   help="run the campaign twice and diff the traces")
    f.add_argument("--hang-demo", action="store_true",
                   help="inject a kernel hang and show the Finish watchdog")

    li = sub.add_parser(
        "lint", help="statically verify the shipped kernels and programs")
    li.set_defaults(handler=_cmd_lint)
    li.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    li.add_argument("--skip-examples", action="store_true",
                    help="do not lint the examples/ scripts")
    li.add_argument("--strict", action="store_true",
                    help="exit 1 on any finding, warnings included "
                         "(default: only error-severity findings fail)")
    li.add_argument("--format", default="text", choices=["text", "json"],
                    help="report format; json emits the repro-lint/1 "
                         "envelope (byte-stable) and nothing else")
    li.add_argument("--py", action="store_true",
                    help="audit src/repro for wall-clock imports and "
                         "unseeded RNG use instead of linting kernels")
    li.add_argument("--witness", action="store_true",
                    help="lint the seeded-violation corpus and replay "
                         "every R3xx counterexample schedule through the "
                         "simulator; exit 0 iff all confirm")
    li.add_argument("--corpus", default=None, metavar="RULE_ID",
                    help="lint one seeded-violation corpus program "
                         "(R301..R305, or P201 for the warning-only one)")

    be = sub.add_parser(
        "bench", parents=[par],
        help="run the micro/macro performance benchmark suite")
    be.set_defaults(handler=_cmd_bench)
    be.add_argument("--smoke", action="store_true",
                    help="reduced problem sizes (the CI configuration)")
    be.add_argument("--out", default=None,
                    help="output JSON path (default: BENCH_<date>.json)")
    be.add_argument("--reps", type=int, default=3,
                    help="repetitions per benchmark; best value is kept")
    be.add_argument("--only", type=_comma_list(), default=None,
                    help="comma-separated benchmark names to run")
    be.add_argument("--baseline", default=None,
                    help="baseline JSON to compare against (default with "
                         "--check: benchmarks/perf/baseline_smoke.json)")
    be.add_argument("--check", action="store_true",
                    help="exit 1 if any benchmark regresses beyond "
                         "--tolerance or any invariant changes")
    be.add_argument("--tolerance", type=float, default=0.20,
                    help="relative perf-regression tolerance for --check "
                         "(default 0.20; invariants always compare exact)")

    sv = sub.add_parser(
        "serve",
        help="multi-tenant solve service: seeded load test or replay",
        description="Drive the repro.serve solve service in simulated "
                    "time: a seeded open- or closed-loop load test "
                    "(loadgen) or a recorded request-trace replay "
                    "(replay).  stdout and --out JSON are byte-identical "
                    "across repeat runs and -j settings.")
    svsub = sv.add_subparsers(dest="serve_command", required=True)
    # flags shared by loadgen and chaos: the load shape and the pool
    load = argparse.ArgumentParser(add_help=False)
    load.add_argument("--mode", default="open", choices=["open", "closed"])
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--rate", type=float, default=8000.0,
                      help="open loop: Poisson arrival rate (requests/s)")
    load.add_argument("--clients", type=int, default=4,
                      help="closed loop: concurrent tenants")
    load.add_argument("--devices", type=int, default=2)
    load.add_argument("--cpu-workers", type=int, default=1)
    lg = svsub.add_parser("loadgen", parents=[par, load],
                          help="run a seeded synthetic load test")
    lg.set_defaults(handler=_cmd_serve_loadgen)
    lg.add_argument("--requests", type=int, default=64)
    lg.add_argument("--think-s", type=float, default=2e-3,
                    help="closed loop: mean think time (simulated s)")
    lg.add_argument("--sizes", type=_comma_list(int),
                    default="32,48,64,96,128",
                    help="comma-separated grid extents to draw from")
    lg.add_argument("--workloads", type=_comma_list(), default="jacobi",
                    help="comma-separated workload kinds to mix "
                         "(jacobi,matmul,fft,stencil9; default jacobi "
                         "only — sizes snap to each kind's constraint)")
    lg.add_argument("--iterations", type=int, default=32)
    lg.add_argument("--cpu-fraction", type=float, default=0.25)
    lg.add_argument("--deadline-fraction", type=float, default=0.25)
    lg.add_argument("--hangs", type=int, default=0,
                    help="arm this many seeded device hangs")
    lg.add_argument("--chaos-intensity", type=float, default=0.0,
                    help="inject a full seeded chaos plan at this "
                         "intensity (0 = off; see docs/chaos_serving.md)")
    lg.add_argument("--chaos-seed", type=int, default=None,
                    help="chaos plan seed (default: --seed)")
    lg.add_argument("--max-batch", type=int, default=4)
    lg.add_argument("--queue-capacity", type=int, default=64)
    lg.add_argument("--no-solve", action="store_true",
                    help="skip the functional solve post-pass")
    lg.add_argument("--out", default=None,
                    help="write the JSON report (schema repro-serve/2)")
    lg.add_argument("--record", default=None,
                    help="record the request trace to this JSONL file")
    rp = svsub.add_parser("replay", parents=[par],
                          help="replay a recorded request trace")
    rp.set_defaults(handler=_cmd_serve_replay)
    rp.add_argument("trace", help="trace file written by loadgen --record")
    rp.add_argument("--no-solve", action="store_true",
                    help="skip the functional solve post-pass")
    rp.add_argument("--out", default=None,
                    help="write the JSON report (schema repro-serve/2)")
    ch = svsub.add_parser(
        "chaos", parents=[par, load],
        help="run a seeded chaos campaign against the service",
        description="Sweep seeded fault intensities (NoC delay/drop, ECC "
                    "scrubs, kernel hangs, in-flight SDC, mid-launch core "
                    "failures) over one serve configuration through "
                    "repro.parallel, and assert the zero-silent-anything "
                    "invariants: every SDC detected, every shed typed, "
                    "every request terminally accounted, p99 inflation "
                    "bounded.  Exits 1 on any violation.")
    ch.set_defaults(handler=_cmd_serve_chaos)
    ch.add_argument("--requests", type=int, default=48)
    ch.add_argument("--intensities", type=_comma_list(float),
                    default="0.5,1,2",
                    help="comma-separated fault-intensity multipliers; a "
                         "fault-free baseline always runs first")
    ch.add_argument("--p99-inflation-limit", type=float, default=50.0,
                    help="max allowed p99(total latency) / baseline p99")
    ch.add_argument("--out", default=None,
                    help="write the campaign JSON "
                         "(schema repro-serve-chaos/1)")
    ch.add_argument("--replay-check", action="store_true",
                    help="run the campaign twice (cache off) and require "
                         "byte-identical documents")

    cl = sub.add_parser(
        "cluster",
        help="multi-card solver with host-staged halo exchange",
        description="Partition the global grid over N simulated e150s, "
                    "exchange halos between iterations through the host "
                    "(PCIe readback, host memcpy, PCIe writeback), and "
                    "verify the stitched answer is bit-identical to the "
                    "single-card reference.  See docs/cluster.md.")
    clsub = cl.add_subparsers(dest="cluster_command", required=True)
    cs = clsub.add_parser("solve", parents=[par],
                          help="run one multi-card configuration")
    cs.set_defaults(handler=_cmd_cluster_solve)
    cs.add_argument("--nx", type=int, default=64)
    cs.add_argument("--ny", type=int, default=64)
    cs.add_argument("--iterations", type=int, default=16)
    cs.add_argument("--cards", type=_core_grid, default="2x1",
                    metavar="CYxCX",
                    help="card decomposition grid (default 2x1)")
    cs.add_argument("--cores", type=_core_grid, default="1x1",
                    metavar="CYxCX",
                    help="per-card core grid used for timing")
    cs.add_argument("--timing", default="model", choices=["model", "des"],
                    help="Tier-2 analytic model or per-card DES launches")
    cs.add_argument("--exchange", default="staged",
                    choices=["staged", "none"],
                    help="host-staged halo exchange, or the paper's "
                         "frozen-halo multi-card mode")
    cs.add_argument("--checkpoint-every", type=int, default=0,
                    help="host checkpoint cadence for card-failure "
                         "restart (0 = disabled)")
    cs.add_argument("--check", action="store_true",
                    help="verify bit-identity against the single-card "
                         "reference; exit 1 on mismatch")
    cw = clsub.add_parser("sweep", parents=[par],
                          help="weak/strong scaling over card counts")
    cw.set_defaults(handler=_cmd_cluster_sweep)
    cw.add_argument("--mode", default="weak", choices=["weak", "strong"])
    cw.add_argument("--cards", type=_comma_list(int), default="1,2,4,8,16",
                    help="comma-separated card counts")
    cw.add_argument("--nx", type=int, default=64,
                    help="per-card (weak) or global (strong) width")
    cw.add_argument("--ny", type=int, default=64,
                    help="per-card (weak) or global (strong) height")
    cw.add_argument("--iterations", type=int, default=8)
    cw.add_argument("--split", default="1d", choices=["1d", "2d"],
                    help="Y-only cuts or near-square 2D card grids")
    cw.add_argument("--timing", default="model", choices=["model", "des"])
    cw.add_argument("--exchange", default="staged",
                    choices=["staged", "none"])
    cw.add_argument("--out", default=None,
                    help="write the JSON report (schema repro-cluster/1)")

    op = sub.add_parser(
        "ops",
        help="the repro.ops workload library: run one op, or sweep them",
        description="Differential-checked device executions of the "
                    "registered ops (blocked SRAM matmul, radix-2 FFT "
                    "pencils, 9-point stencil) next to their calibrated "
                    "roofline estimates.  stdout is byte-identical "
                    "across repeat runs.  See docs/ops.md.")
    opsub = op.add_subparsers(dest="ops_command", required=True)
    orn = opsub.add_parser("run", help="run one op once and check it")
    orn.set_defaults(handler=_cmd_ops_run)
    orn.add_argument("--op", default="matmul", choices=sorted(opslib.OPS))
    orn.add_argument("--size", type=int, default=64,
                     help="problem extent (matmul m=k=n, fft pencil "
                          "length, stencil9 interior width)")
    orn.add_argument("--cores", type=_core_grid, default="1x1",
                     metavar="CYxCX",
                     help="core grid of the launch (default 1x1)")
    orn.add_argument("--seed", type=int, default=0)
    orn.add_argument("--batch", type=int, default=None,
                     help="fft: pencils per batch (default 16)")
    orn.add_argument("--ny", type=int, default=None,
                     help="stencil9: interior height (default --size)")
    orn.add_argument("--iters", type=int, default=None,
                     help="stencil9: relaxation sweeps (default 2)")
    orn.add_argument("--no-check", action="store_true",
                     help="skip the host-reference differential check")
    osw = opsub.add_parser("sweep",
                           help="run every registered op over core grids")
    osw.set_defaults(handler=_cmd_ops_sweep)
    osw.add_argument("--only", type=_comma_list(), default=None,
                     help="comma-separated op names (default: all)")
    osw.add_argument("--sizes", type=_comma_list(int), default="64",
                     help="comma-separated extents (fft needs powers of "
                          "two, stencil9 multiples of 32; invalid "
                          "combinations are skipped with a note)")
    osw.add_argument("--cores", type=_comma_list(_core_grid),
                     default="1x1,2x2",
                     help="comma-separated core grids (default 1x1,2x2)")
    osw.add_argument("--seed", type=int, default=0)
    osw.add_argument("--out", default=None,
                     help="write the JSON report (schema repro-ops/1)")
    return p


def _add_parallel_args(p: argparse.ArgumentParser, top_level: bool) -> None:
    """The global sweep-engine flags (see docs/parallel_sweeps.md)."""
    d = None if top_level else argparse.SUPPRESS
    p.add_argument("-j", "--jobs", type=int, default=d, metavar="N",
                   help="worker processes for sweep points (default 1 = "
                        "sequential; 0 = all cores; output is byte-"
                        "identical at any -j)")
    p.add_argument("--no-cache", action="store_true",
                   default=False if top_level else argparse.SUPPRESS,
                   help="disable the content-addressed sweep result "
                        "cache (REPRO_SWEEP_CACHE=0 does the same)")


def _parallel_opts(args) -> tuple:
    """(jobs, cache) for sweep-producing handlers."""
    return args.jobs, not args.no_cache


def _progress(message: str) -> None:
    """Status lines go to stderr so stdout stays byte-comparable."""
    print(message, file=sys.stderr)


def _run_sweep(args, specs, render: Callable[[list], str]) -> list:
    """Run ``specs`` through :mod:`repro.parallel` and print
    ``render(outcomes)``.

    The engine's summary line (cache hits, failures, wall time) goes to
    stderr; ``--report`` appends the per-job observability table.
    Returns the outcomes in submission order.
    """
    from repro.parallel import render_job_report, run_jobs, summary_line

    jobs, cache = _parallel_opts(args)
    t0 = time.perf_counter()
    outcomes = run_jobs(specs, jobs=jobs, cache=cache, progress=_progress)
    wall = time.perf_counter() - t0
    print(render(outcomes))
    print(summary_line(outcomes, wall, jobs), file=sys.stderr)
    if getattr(args, "report", False):
        print()
        print(render_job_report(outcomes))
    return outcomes


def _cmd_solve(args) -> int:
    from repro.core.grid import LaplaceProblem
    solver = JacobiSolver(backend=args.backend, variant=args.variant,
                          cores=args.cores, n_cards=args.cards,
                          n_threads=args.threads)
    problem = LaplaceProblem(nx=args.nx, ny=args.ny)
    try:
        res = solver.solve(problem, args.iterations,
                           sim_iterations=args.sim_iterations)
    except ValueError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 2
    print(f"backend={res.backend} variant={res.variant} "
          f"cores={res.cores} cards={res.n_cards}")
    print(f"time    {res.time_s:.6g} s")
    print(f"rate    {res.gpts:.4f} GPt/s")
    print(f"energy  {res.energy_j:.4g} J")
    if res.grid_f32 is not None:
        interior = res.interior
        print(f"answer  interior range [{interior.min():.4g}, "
              f"{interior.max():.4g}]")
    return 0


def _cmd_table(args) -> int:
    jobs, cache = _parallel_opts(args)
    print(run_table(args.number, quick=args.quick, jobs=jobs,
                    cache=cache).render())
    return 0


def _cmd_sweep(args) -> int:
    """Run one streaming sweep plan through the parallel engine.

    stdout carries only deterministic content (configuration labels,
    simulated runtimes, event counts, sim_now) so `-j N` output diffs
    clean against `-j 1`; cache/worker/wall statistics go to stderr, and
    ``--report`` opts into the per-job observability table.
    """
    from repro.analysis.report import Table
    from repro.parallel import JobSpec
    from repro.streaming import StreamConfig
    from repro.streaming.sweep import (PAPER_BATCH_SIZES,
                                       batch_sweep_configs,
                                       multicore_sweep_configs,
                                       page_sweep_configs,
                                       replication_sweep_configs)

    base = StreamConfig(rows=args.rows, row_elems=args.row_elems)
    if args.kind == "batch":
        sizes = [b for b in PAPER_BATCH_SIZES
                 if base.row_bytes % b == 0 and b <= base.row_bytes]
        plan = batch_sweep_configs(base, sizes,
                                   contiguous=not args.noncontiguous)
    elif args.kind == "replication":
        plan = replication_sweep_configs(base, (1, 2, 4, 8, 16, 32))
    elif args.kind == "pages":
        plan = page_sweep_configs(base, None, (0, 8, 16, 32))
    else:
        plan = multicore_sweep_configs(base, None, (1, 2, 4, 8))

    def render(outcomes) -> str:
        table = Table(
            f"sweep {args.kind}: {args.rows}x{args.row_elems} int32, "
            f"{len(plan)} points",
            ["configuration", "runtime s", "events", "sim_now"])
        for (label, _cfg), out in zip(plan, outcomes):
            r = out.record
            if r.ok:
                table.add_row(label, f"{out.result.runtime_s:.9g}",
                              r.obs.get("events", "-"),
                              f"{r.obs.get('sim_now', 0.0):.9g}")
            else:
                table.add_row(label, "FAILED", "-", "-")
        return table.render()

    outcomes = _run_sweep(args, [JobSpec("stream", cfg) for _, cfg in plan],
                          render)
    return 1 if any(not o.record.ok for o in outcomes) else 0


def _cmd_figures(_args) -> int:
    from repro.experiments.figures import all_figures
    for fig_id, text in all_figures().items():
        print(f"--- {fig_id} " + "-" * 50)
        print(text)
        print()
    return 0


def _cmd_stream(args) -> int:
    from repro.streaming import StreamConfig, run_streaming
    cfg = StreamConfig(
        rows=args.rows, row_elems=args.row_elems,
        read_batch=args.read_batch, write_batch=args.write_batch,
        sync_read=args.sync_read, sync_write=args.sync_write,
        contiguous=not args.noncontiguous,
        replication=args.replication, page_size=args.page_size,
        n_cores=args.cores)
    res = run_streaming(cfg)
    print(f"moved {cfg.total_bytes >> 20} MiB in {res.runtime_s:.6f} s "
          f"({res.read_bw / 1e9:.2f} GB/s read, "
          f"{res.write_bw / 1e9:.2f} GB/s write)")
    print(f"requests: {res.read_requests} reads, "
          f"{res.write_requests} writes")
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis.profile import profile_device
    from repro.arch.device import GrayskullDevice
    from repro.core.grid import LaplaceProblem
    dev = GrayskullDevice(dram_bank_capacity=64 << 20)
    problem = LaplaceProblem(nx=args.nx, ny=args.ny)
    JacobiSolver(variant=args.variant).des_runner(dev, problem).run(
        args.iterations, read_back=False)
    print(profile_device(dev).render())
    return 0


def _cmd_faults(args) -> int:
    from dataclasses import replace

    from repro.faults import (CampaignConfig, render_campaign_sweep,
                              run_campaign, run_hang_demo)
    if args.hang_demo:
        err = run_hang_demo(seed=args.seed)
        print("watchdog fired:")
        print(err)
        return 0
    cfg = CampaignConfig(
        seed=args.seed, nx=args.nx, ny=args.ny,
        iterations=args.iterations, cores=args.cores,
        dram_flips=args.dram_flips, noc_faults=args.noc_faults,
        pcie_corruptions=args.pcie_corruptions,
        solver_flips=args.solver_flips, core_failures=args.core_failures,
        checkpoint_every=args.checkpoint_every, ecc=not args.no_ecc)

    if args.seeds is not None:
        # One campaign per seed; a crashed worker isolates only its own
        # campaign (reported in the fault plane's sweep.job vocabulary).
        from repro.parallel import JobSpec

        specs = [JobSpec("campaign", replace(cfg, seed=s), seed=s)
                 for s in args.seeds]
        outcomes = _run_sweep(args, specs, render_campaign_sweep)
        return 1 if any(not o.record.ok for o in outcomes) else 0

    report = run_campaign(cfg)
    if args.replay_check:
        replay = run_campaign(cfg)
        if replay.trace.to_text() != report.trace.to_text():
            print("REPLAY MISMATCH: traces differ between identical runs")
            return 1
        print(f"replay check: {len(report.trace)} trace events, "
              "byte-identical")
    print(report.render())
    if args.trace_out:
        report.trace.write(args.trace_out)
        # status, not report content: keep stdout byte-comparable across
        # runs that write their traces to different paths
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.trace_json:
        report.trace.write_json(args.trace_json)
        print(f"trace JSON written to {args.trace_json}", file=sys.stderr)
    return 0


def _emit_lint_report(report, args, ok_line: str) -> int:
    """Render one lint report in the chosen format and exit-code it: 0 on
    clean or warnings-only, 1 on errors (or on any finding with strict)."""
    from repro.lint.export import report_to_json, to_json_text

    code = 1 if report.errors or (args.strict and report) else 0
    if args.format == "json":
        sys.stdout.write(to_json_text(report_to_json(report)))
        return code
    if report:
        print(report.render())
        print(f"{'FAILED' if code else 'OK'}: {len(report.errors)} "
              f"error(s), {len(report.warnings)} warning(s)")
    else:
        print(ok_line)
    return code


def _cmd_lint_py(args) -> int:
    """Audit src/repro for wall-clock imports and unseeded RNG use."""
    import json

    from repro.lint.pysource import WALL_CLOCK_WAIVERS, audit_repro

    found = audit_repro()
    if args.format == "json":
        doc = {"schema": "repro-lint-py/1", "violations": found,
               "wall_clock_waivers": dict(sorted(WALL_CLOCK_WAIVERS.items()))}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return 1 if found else 0
    for v in found:
        print(v)
    if found:
        print(f"FAILED: {len(found)} determinism violation(s) in src/repro")
        return 1
    print("OK: src/repro is wall-clock/RNG clean "
          f"({len(WALL_CLOCK_WAIVERS)} documented wall-clock waiver(s))")
    return 0


def _cmd_lint_witness(args) -> int:
    """Lint the corpus and dynamically replay every R3xx witness."""
    from repro import lint
    from repro.lint import corpus_concurrency as corpus

    failures = 0
    for rule_id, builder in corpus.CORPUS.items():
        _dev, prog = builder()
        report = lint.lint_program(prog)
        if report.rule_ids() != [rule_id]:
            print(f"{rule_id}: corpus program flagged "
                  f"{report.rule_ids() or 'nothing'} instead of [{rule_id}]")
            failures += 1
            continue
        for finding in report.findings:
            res = lint.replay_witness(builder, finding.witness)
            verdict = "confirmed" if res.confirmed else "UNCONFIRMED"
            print(f"{rule_id}: witness {finding.witness.digest()} -> "
                  f"{verdict} ({res.detail})")
            if not res.confirmed:
                failures += 1
    if failures:
        print(f"FAILED: {failures} witness(es) did not confirm")
        return 1
    print("OK: every corpus finding's counterexample schedule confirmed "
          "dynamically")
    return 0


def _cmd_lint(args) -> int:
    """Statically lint every shipped kernel/program and the examples.

    Builds each shipped program exactly as the runners do (the
    ``lint.capture()`` context collects findings instead of warning) —
    the CI gate promised in ``docs/lint_rules.md``.  Exit code: 0 when
    clean or warnings-only, 1 on any error-severity finding (or on any
    finding at all with ``--strict``).
    """
    from repro import lint

    if args.list_rules:
        for rule in lint.all_rules():
            sev = "E" if rule.severity == lint.Severity.ERROR else "W"
            print(f"{sev} {rule.rule_id} {rule.name:<28} {rule.summary}")
        return 0
    if args.py:
        return _cmd_lint_py(args)
    if args.witness:
        return _cmd_lint_witness(args)
    if args.corpus:
        from repro.lint import corpus_concurrency as corpus
        try:
            _dev, prog = corpus.build(args.corpus)
        except KeyError as exc:
            print(f"lint --corpus: {exc.args[0]}", file=sys.stderr)
            return 2
        report = lint.lint_program(prog)
        return _emit_lint_report(
            report, args, f"OK: no findings in corpus {args.corpus}")

    with lint.capture() as report:
        for _name, run in lint_sweep():
            run()
        if not args.skip_examples:
            _lint_examples()
    n_programs = "shipped kernels and examples" if not args.skip_examples \
        else "shipped kernels"
    return _emit_lint_report(report, args,
                             f"OK: no findings across {n_programs}")


def lint_sweep() -> List[Tuple[str, Callable[[], object]]]:
    """The shipped launches ``repro lint`` sweeps, as ``(name, run)`` pairs.

    Each ``run`` builds its program on a fresh device and launches it.
    """
    from repro.arch.device import GrayskullDevice
    from repro.core.grid import LaplaceProblem
    from repro.streaming import StreamConfig, run_streaming

    problem = LaplaceProblem(nx=64, ny=64)

    def jacobi(solver):
        def run():
            dev = GrayskullDevice(dram_bank_capacity=64 << 20)
            return solver.des_runner(dev, problem).run(2, read_back=False)
        return run

    def op(spec, cores):
        return lambda: spec.run(spec.make_problem(64, 0), cores=cores)

    # every Jacobi generation on one core, plus the optimised 2x2 launch
    sweep = [(f"jacobi-{v}", jacobi(JacobiSolver(variant=v)))
             for v in JacobiSolver.VARIANTS]
    sweep.append(("jacobi-2x2", jacobi(JacobiSolver(cores=(2, 2)))))
    for spec in opslib.list_ops():
        sweep += [(f"{spec.name}-{n}x{n}", op(spec, (n, n))) for n in (1, 2)]
    sweep.append(("stream", lambda: run_streaming(
        StreamConfig(rows=64, row_elems=1024))))
    sweep.append(("stream-sync-replicated", lambda: run_streaming(
        StreamConfig(rows=64, row_elems=1024, sync_read=True,
                     sync_write=True, contiguous=False, replication=2,
                     page_size=2048))))
    return sweep


def _lint_examples() -> None:
    """Run the examples/ scripts so their programs reach the linter."""
    import contextlib
    import importlib.util
    import io
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    for path in sorted((root / "examples").glob("*.py")):
        spec = importlib.util.spec_from_file_location(
            f"_lint_example_{path.stem}", path)
        if spec is None or spec.loader is None:  # pragma: no cover
            continue
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if hasattr(module, "main"):
            with contextlib.redirect_stdout(io.StringIO()):
                module.main()


def _cmd_bench(args) -> int:
    import json
    import os

    from repro import bench

    jobs, cache = _parallel_opts(args)
    print(f"running {'smoke' if args.smoke else 'full'} benchmark suite "
          f"({args.reps} rep(s) each)...")
    doc = bench.run_benchmarks(smoke=args.smoke, reps=args.reps,
                               only=args.only, log=print, jobs=jobs,
                               cache=cache)
    out = args.out or bench.default_report_path()
    bench.write_report(doc, out)
    print(bench.render(doc))
    print(f"report written to {out}")
    if not args.check:
        return 0
    baseline_path = args.baseline or bench.SMOKE_BASELINE
    if not os.path.exists(baseline_path):
        print(f"FAILED: baseline {baseline_path} not found")
        return 1
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    notes: list = []
    failures = bench.compare(doc, baseline, tolerance=args.tolerance,
                             notes=notes)
    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"FAILED: {len(failures)} regression(s) vs {baseline_path}:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"OK: no regressions vs {baseline_path} "
          f"(tolerance {args.tolerance * 100:.0f}%)")
    return 0


def _cmd_serve_loadgen(args) -> int:
    """Run a seeded synthetic load test against the solve service."""
    from repro.serve import (ChaosConfig, LoadGenConfig, PoolConfig,
                             SchedulerConfig, run_loadgen, write_trace)

    jobs, cache = _parallel_opts(args)
    cfg = LoadGenConfig(
        mode=args.mode, seed=args.seed, n_requests=args.requests,
        arrival_rate_rps=args.rate, n_clients=args.clients,
        think_s=args.think_s, sizes=args.sizes, workloads=args.workloads,
        iterations=args.iterations, cpu_fraction=args.cpu_fraction,
        deadline_fraction=args.deadline_fraction)
    chaos = None
    if args.chaos_intensity > 0:
        seed = args.seed if args.chaos_seed is None else args.chaos_seed
        chaos = ChaosConfig(seed=seed, intensity=args.chaos_intensity)
    report = run_loadgen(
        cfg,
        scheduler=SchedulerConfig(max_batch=args.max_batch,
                                  queue_capacity=args.queue_capacity),
        pool=PoolConfig(n_devices=args.devices,
                        n_cpu_workers=args.cpu_workers),
        n_hangs=args.hangs, chaos=chaos, solve=not args.no_solve,
        jobs=jobs, cache=cache, progress=_progress)
    if args.record:
        write_trace(report, args.record)
        print(f"trace written to {args.record}", file=sys.stderr)
    return _emit_serve_report(report, args.out)


def _cmd_serve_replay(args) -> int:
    """Replay a recorded request trace through the solve service."""
    from repro.serve import replay_trace

    jobs, cache = _parallel_opts(args)
    try:
        report = replay_trace(args.trace, solve=not args.no_solve,
                              jobs=jobs, cache=cache, progress=_progress)
    except (OSError, ValueError) as exc:
        print(f"serve replay: {exc}", file=sys.stderr)
        return 2
    return _emit_serve_report(report, args.out)


def _emit_serve_report(report, out: Optional[str]) -> int:
    """Print a serve report and optionally write its JSON.

    stdout carries only deterministic simulated-time content (the serve
    report tables; the --out JSON likewise) so repeat runs and `-j N`
    runs diff clean; cache statistics and file-path status lines go to
    stderr.
    """
    from repro.serve import render_serve_report

    print(render_serve_report(report))
    if out:
        report.write(out)
        print(f"report written to {out}", file=sys.stderr)
    return 0


def _cmd_serve_chaos(args) -> int:
    """Seeded chaos campaign: fault intensities swept over the service.

    stdout (the campaign table and the --out JSON) is byte-identical
    across repeat runs and -j settings; exits 1 if any run violates the
    zero-silent-corruption / typed-shed / bounded-p99 invariants.
    """
    import json

    from repro.serve import (ChaosConfig, LoadGenConfig, PoolConfig,
                             render_chaos_campaign, run_chaos_campaign)

    jobs, cache = _parallel_opts(args)
    if args.replay_check:
        cache = False  # a cache hit would make the repeat-run check vacuous

    def campaign() -> dict:
        return run_chaos_campaign(
            LoadGenConfig(mode=args.mode, seed=args.seed,
                          n_requests=args.requests,
                          arrival_rate_rps=args.rate,
                          n_clients=args.clients),
            pool=PoolConfig(n_devices=args.devices,
                            n_cpu_workers=args.cpu_workers),
            chaos=ChaosConfig(seed=args.seed),
            intensities=args.intensities,
            p99_inflation_limit=args.p99_inflation_limit,
            jobs=jobs, cache=cache, progress=_progress)

    doc = campaign()
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if args.replay_check:
        if json.dumps(campaign(), sort_keys=True, indent=1) + "\n" != text:
            print("REPLAY MISMATCH: campaign documents differ between "
                  "identical runs")
            return 1
        print(f"replay check: {1 + len(args.intensities)} run(s), "
              "byte-identical")
    print(render_chaos_campaign(doc))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"campaign written to {args.out}", file=sys.stderr)
    return 1 if doc["violations_total"] else 0


def _cmd_ops_run(args) -> int:
    """Run one repro.ops workload once on the simulated device.

    The execution is differentially checked against its host NumPy
    reference at readback unless --no-check; exit 1 on a mismatch.
    stdout carries only deterministic simulated-time content.
    """
    from repro.perfmodel.calibration import DEFAULT_COSTS

    spec = opslib.get_op(args.op)
    kw = {k: getattr(args, k) for k in ("batch", "ny", "iters")
          if getattr(args, k) is not None}
    cores = args.cores
    try:
        problem = spec.make_problem(args.size, args.seed, **kw)
        res = spec.run(problem, cores=cores, check=not args.no_check)
    except ValueError as exc:
        print(f"ops run: {exc}", file=sys.stderr)
        return 2
    except opslib.OpCheckError as exc:
        print(f"CHECK FAILED: {exc}")
        return 1
    est = spec.estimate(problem, cores, DEFAULT_COSTS)
    params = " ".join(f"{k}={v}" for k, v in sorted(res.params.items()))
    achieved = problem.flops() / res.kernel_time_s / 1e9 \
        if res.kernel_time_s else 0.0
    print(f"op={res.op} cores={cores[0]}x{cores[1]} {params}")
    print(f"kernel   {res.kernel_time_s:.6g} s simulated "
          f"({achieved:.4g} GFLOP/s)")
    print(f"transfer {res.transfer_time_s:.6g} s PCIe")
    print(f"model    {est.time_s:.6g} s ({est.gflops:.4g} GFLOP/s, "
          f"{100 * est.roofline_frac:.1f}% of roofline)")
    print(f"energy   {res.energy_j:.4g} J device "
          f"(model {est.energy_j:.4g} J)")
    print(f"check    {res.check_detail}, sha {res.output_sha}")
    return 0


def _cmd_ops_sweep(args) -> int:
    """Run every selected op over sizes and core grids, each checked."""
    import json

    from repro.analysis.report import Table
    from repro.perfmodel.calibration import DEFAULT_COSTS

    names = args.only or sorted(opslib.OPS)
    table = Table(
        f"ops sweep: {len(names)} op(s), sizes "
        f"{','.join(map(str, args.sizes))}, seed {args.seed} "
        "(differential check on every run)",
        ["op", "params", "cores", "kernel s", "model s", "GFLOP/s",
         "% roofline", "energy J", "check"])
    rows, failures = [], 0
    for name in names:
        spec = opslib.get_op(name)
        for size in args.sizes:
            try:
                problem = spec.make_problem(size, args.seed)
            except ValueError as exc:
                print(f"skip {name} size={size}: {exc}", file=sys.stderr)
                continue
            for cores in args.cores:
                try:
                    res = spec.run(problem, cores=cores)
                except opslib.OpCheckError as exc:
                    failures += 1
                    print(f"CHECK FAILED {name} size={size} "
                          f"cores={cores[0]}x{cores[1]}: {exc}")
                    continue
                except ValueError as exc:
                    print(f"skip {name} size={size} "
                          f"cores={cores[0]}x{cores[1]}: {exc}",
                          file=sys.stderr)
                    continue
                est = spec.estimate(problem, cores, DEFAULT_COSTS)
                achieved = problem.flops() / res.kernel_time_s / 1e9 \
                    if res.kernel_time_s else 0.0
                pct = 100 * achieved / est.roofline_gflops \
                    if est.roofline_gflops else 0.0
                params = ",".join(f"{k}={v}" for k, v
                                  in sorted(res.params.items()))
                table.add_row(name, params, f"{cores[0]}x{cores[1]}",
                              f"{res.kernel_time_s:.6g}",
                              f"{est.time_s:.6g}", f"{achieved:.4g}",
                              f"{pct:.1f}", f"{res.energy_j:.4g}",
                              res.check_detail)
                rows.append({**res.to_row(), "model": est.to_row()})
    print(table.render())
    if args.out:
        doc = {"schema": "repro-ops/1", "seed": args.seed, "rows": rows}
        with open(args.out, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_cluster_solve(args) -> int:
    import numpy as np

    from repro.cluster import ClusterConfig, ClusterSolver

    (cards_y, cards_x), (cores_y, cores_x) = args.cards, args.cores
    cfg = ClusterConfig(
        nx=args.nx, ny=args.ny, iterations=args.iterations,
        cards_y=cards_y, cards_x=cards_x,
        cores_y=cores_y, cores_x=cores_x,
        timing=args.timing, exchange=args.exchange,
        checkpoint_every=args.checkpoint_every)
    res = ClusterSolver(cfg).solve()
    print(f"cards   {cfg.cards_y}x{cfg.cards_x} ({cfg.n_cards} card(s)), "
          f"cores {cfg.cores_y}x{cfg.cores_x}/card, "
          f"timing {cfg.timing}, exchange {cfg.exchange}")
    print(f"wall    {res.wall_time_s:.6g} s")
    print(f"rate    {res.gpts:.4f} GPt/s")
    print(f"energy  {res.energy_j:.4g} J")
    print(f"stall   {sum(res.stall_s):.6g} s summed over cards "
          f"(host staging {res.host_stage_s:.6g} s)")
    ex = res.exchange
    print(f"halo    {ex.n_strips} strip(s), {ex.bytes_moved} B staged: "
          f"readback {ex.readback_s:.6g} s, memcpy {ex.memcpy_s:.6g} s, "
          f"writeback {ex.writeback_s:.6g} s")
    if res.restarts:
        print(f"faults  {res.restarts} restart(s), failed cards "
              f"{list(res.failed_cards)}")
    if args.check:
        from repro.core.grid import LaplaceProblem
        from repro.cpu.jacobi import jacobi_solve_bf16

        ref = jacobi_solve_bf16(
            LaplaceProblem(nx=cfg.nx, ny=cfg.ny).initial_grid_bf16(),
            cfg.iterations)
        ok = bool(np.array_equal(res.grid_bits, ref))
        print(f"check   multi-card vs single-card reference: "
              f"{'bit-identical' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


def _cmd_cluster_sweep(args) -> int:
    from repro.cluster import (cluster_sweep_configs, doc_to_json,
                               render_cluster_report, sweep_to_doc)
    from repro.parallel import JobSpec, SweepJobError

    configs = cluster_sweep_configs(
        args.mode, args.cards, base_nx=args.nx, base_ny=args.ny,
        iterations=args.iterations, split=args.split, timing=args.timing,
        exchange=args.exchange)

    def points(outcomes) -> list:
        failures = [o for o in outcomes if not o.record.ok]
        if failures:
            raise SweepJobError(failures)
        return [o.result for o in outcomes]

    outcomes = _run_sweep(
        args, [JobSpec("cluster", cfg) for cfg in configs],
        lambda outs: render_cluster_report(args.mode, points(outs)))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc_to_json(sweep_to_doc(args.mode, points(outcomes))))
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs is not None:
        # Session default so library code reached without an explicit
        # jobs= argument (e.g. nested sweeps) resolves to the same -j.
        from repro.parallel import set_default_jobs
        set_default_jobs(args.jobs)
    try:
        return args.handler(args)
    finally:
        if args.jobs is not None:
            set_default_jobs(None)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

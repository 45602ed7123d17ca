"""Measure one workload in this process; ``run.py`` runs it as a child.

The harness only calls public ``repro`` functions and classes.  It sees
inside the library in three ways, all from outside:

* counters the library already keeps (``Simulator.events_processed``,
  ``Noc.stats``, DRAM bank and FPU counters, the PCIe server, serve
  counters);
* thin wrappers it installs on a few public entry points
  (:class:`Probe`), which time calls and count what passes through;
* in a traced run, ``cProfile`` around each repetition, with self time
  summed by the ``repro.<pkg>.<mod>`` module that defines each function.

Child usage (one JSON document on stdout)::

    python benchmarks/e2e/harness.py --workload NAME --seed N \\
        --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import bisect
import cProfile
import gc
import hashlib
import heapq
import json
import math
import os
import pstats
import resource
import signal
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SCHEMA = "repro-e2e/1"

#: every timed run makes at least this many repetitions, so the
#: cross-rep invariant check always has something to compare
MIN_REPS = 2

#: end-to-end metrics measured in the workload's child, name -> unit
#: (``setup_s`` is timed by the parent)
END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "requests_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics of a traced run, name -> unit
PER_LAYER = {
    "engine.events": "count", "engine.self_s": "s",
    "engine.events_per_s": "1/s", "engine.share": "ratio",
    "kernel_api.calls": "count", "kernel_api.self_s": "s",
    "cb.pages_pushed": "count", "cb.self_s": "s",
    "bf16.calls": "count", "bf16.elems": "count",
    "bf16.elems_per_call": "count", "bf16.self_s": "s",
    "host.launches": "count", "host.launch_s": "s",
    "host.buffer_io_s": "s", "host.pcie_bytes": "B",
    "lint.programs": "count", "lint.kernels": "count", "lint.s": "s",
    "lint.repeat_frac": "ratio", "lint.share": "ratio",
    "cluster.halo_bytes": "B", "cluster.halo_s": "s",
    "noc.read_bytes": "B", "noc.write_bytes": "B", "noc.requests": "count",
    "noc.self_s": "s",
    "dram.reads": "count", "dram.writes": "count",
    "dram.unaligned_writes": "count",
    "fpu.ops": "count", "fpu.self_s": "s", "sram.self_s": "s",
    "ops.ref_s": "s",
    "serve.batches": "count", "serve.batches_multi": "count",
    "serve.retries": "count", "serve.shed": "count", "serve.sim_s": "s",
    "serve.postpass_s": "s", "serve.postpass_solves": "count",
    "cpu.ref_s": "s",
    "trace.overhead": "ratio",
}

#: (module, function) entry points whose inclusive time a traced run reads
_ENQUEUE = ("repro.ttmetal.host", "EnqueueProgram")
_BUFFER_IO = (("repro.ttmetal.host", "EnqueueWriteBuffer"),
              ("repro.ttmetal.host", "EnqueueReadBuffer"))
_LINT = ("repro.lint", "lint_program")
_HALO = ("repro.cluster.topology", "apply_exchange")
_OP_REFS = (("repro.ops.matmul", "matmul_reference_bits"),
            ("repro.ops.fft", "fft_reference_bits"),
            ("repro.ops.stencil9", "stencil9_reference_bits"))
_LOADGEN = ("repro.serve.loadgen", "run_loadgen")
_POSTPASS = ("repro.serve.jobs", "run_solve_postpass")
_CPU_REFS = (("repro.cpu.jacobi", "jacobi_solve_bf16"),
             ("repro.cpu.jacobi", "jacobi_solve_f32"),
             ("repro.cpu.jacobi", "residual_f32"))
_NAMED = {_ENQUEUE, _LINT, _HALO, _LOADGEN, _POSTPASS,
          *_BUFFER_IO, *_OP_REFS, *_CPU_REFS}


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"e2e: no repro sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"e2e: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def config_hash(name: str, params: dict, seed: int) -> str:
    doc = {"schema": SCHEMA, "workload": name, "params": params,
           "seed": seed}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * q / 100) - 1)]


# --------------------------------------------------------------------------
# host speed
# --------------------------------------------------------------------------

#: the calibration loop's duration on the reference host: host times are
#: reported as the seconds they would take on a host running at that speed
REF_CAL_S = 2.2e-4
#: wall-clock period at which a measured repetition samples the host speed
SAMPLE_PERIOD_S = 0.02


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of the simulator's kind of work: a
    tiny event loop over generator processes with small NumPy updates."""
    t0 = perf_counter()
    bufs = [np.zeros(512, dtype=np.float32) for _ in range(8)]

    def proc(k):
        for i in range(40):
            if i % 8 == 0:
                bufs[k] = (bufs[k] + np.float32(0.25)).astype(np.float32)
            yield (i % 5 + 1) * 1e-9

    queue = [(0.0, k, proc(k)) for k in range(8)]
    seq = len(queue)
    while queue:
        now, _, gen = heapq.heappop(queue)
        for dt in gen:
            heapq.heappush(queue, (now + dt, seq, gen))
            seq += 1
            break
    return perf_counter() - t0


def host_speed(n: int = 25) -> float:
    """Speed of the host right now, relative to the reference host."""
    return REF_CAL_S / statistics.median(calibration_loop() for _ in range(n))


class SpeedSampler:
    """Samples the host speed while a measured region runs.

    A shared host's speed can drift by tens of percent over minutes and
    halve for seconds at a time.  Every
    ``SAMPLE_PERIOD_S`` of wall time a SIGALRM handler times the
    calibration loop, so :meth:`seconds` can convert any interval of the
    region into seconds on the reference host.
    """

    def __enter__(self):
        self.ticks: List[tuple] = []   #: (start, seconds) of each sample
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def _tick(self, _signum, _frame):
        self.ticks.append((perf_counter(), calibration_loop()))

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)          # a region shorter than a period
        self._starts = [t for t, _ in self.ticks]
        return False

    def _between(self, t0: float, t1: float) -> List[tuple]:
        return self.ticks[bisect.bisect_left(self._starts, t0):
                          bisect.bisect_left(self._starts, t1)]

    def spent(self, t0: float, t1: float) -> float:
        """Wall seconds the samples took inside ``[t0, t1]``."""
        return sum(dt for _, dt in self._between(t0, t1))

    def seconds(self, t0: float, t1: float) -> float:
        """Duration of ``[t0, t1]`` at reference host speed: the samples
        taken inside it are subtracted, and the speed is the mean of
        ``REF_CAL_S / sample`` within one period either side."""
        near = self._between(t0 - SAMPLE_PERIOD_S,
                             t1 + SAMPLE_PERIOD_S) or self.ticks
        speed = statistics.fmean(REF_CAL_S / dt for _, dt in near)
        return (t1 - t0 - self.spent(t0, t1)) * speed


# --------------------------------------------------------------------------
# instrumentation
# --------------------------------------------------------------------------

class Probe:
    """Wrappers on public entry points, plus the state they record.

    ``install`` adds what every run needs: events per simulator and the
    host time of each ``OptimizedJacobiRunner.run``.  ``install_trace``
    adds the counting wrappers of a traced repetition; ``uninstall``
    restores every original.
    """

    def __init__(self):
        self.epoch = perf_counter()
        self.tracing = False
        self.spans: List[list] = []   #: [name, start_us, dur_us, id, parent]
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.calls: List[tuple] = []       #: (start, end) of each call
        self.events = 0
        self._running: set = set()         #: ids of simulators inside run()
        #: per-layer counts: harvested from devices, or added by workloads
        self.counts: Dict[str, int] = defaultdict(int)
        self.lint_shapes: set = set()
        self.lint_calls = self.lint_repeats = self.lint_kernels = 0
        self.bf16_calls = self.bf16_elems = 0
        self.cb_pages = 0

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        t0 = perf_counter()
        self.spans.append([name, 0, 0, sid, parent])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            t1 = perf_counter()
            self.spans[sid][1] = round((t0 - self.epoch) * 1e6, 1)
            self.spans[sid][2] = round((t1 - t0) * 1e6, 1)

    def call(self, name: str, fn, *args, **kwargs):
        """Run one top-level library call, timed (and spanned if tracing)."""
        t0 = perf_counter()
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        finally:
            self.calls.append((t0, perf_counter()))

    def harvest(self, devices) -> None:
        """Add the traffic and work counters of finished devices."""
        c = self.counts
        for d in devices:
            for noc in (d.noc0.stats, d.noc1.stats):
                c["noc.read_bytes"] += noc.read_bytes
                c["noc.write_bytes"] += noc.write_bytes
                c["noc.requests"] += noc.read_requests + noc.write_requests
            for bank in d.dram.banks:
                c["dram.reads"] += bank.reads
                c["dram.writes"] += bank.writes
                c["dram.unaligned_writes"] += bank.unaligned_writes
            c["fpu.ops"] += sum(core.fpu.ops for core in d.workers)
            c["host.pcie_bytes"] += d.pcie.bytes_served

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        from repro.core.jacobi_optimized import OptimizedJacobiRunner
        from repro.sim import Simulator

        probe = self

        def wrap_sim_run(orig):
            def run(sim, *args, **kwargs):
                if id(sim) in probe._running:    # re-entrant: counted outside
                    return orig(sim, *args, **kwargs)
                probe._running.add(id(sim))
                before = sim.events_processed
                try:
                    return orig(sim, *args, **kwargs)
                finally:
                    probe._running.discard(id(sim))
                    probe.events += sim.events_processed - before
            return run

        def wrap_runner_run(orig):
            def run(runner, *args, **kwargs):
                return probe.call(
                    f"launch_{runner.cores_y}x{runner.cores_x}",
                    orig, runner, *args, **kwargs)
            return run

        self._patch(Simulator, "run", wrap_sim_run)
        self._patch(OptimizedJacobiRunner, "run", wrap_runner_run)

    def install_trace(self) -> None:
        import repro.lint
        from repro.arch.cb import CircularBuffer
        from repro.dtypes import bf16

        probe = self

        def wrap_lint(orig):
            def lint_program(program):
                shape = _program_shape(program)
                probe.lint_calls += 1
                probe.lint_kernels += len(program.kernels)
                probe.lint_repeats += shape in probe.lint_shapes
                probe.lint_shapes.add(shape)
                with probe.span("lint"):
                    return orig(program)
            return lint_program

        def wrap_push(orig):
            def push_back(cb, n=1):
                probe.cb_pages += n
                return orig(cb, n)
            return push_back

        orig_pack = bf16.f32_to_bits

        def f32_to_bits(x):
            probe.bf16_calls += 1
            probe.bf16_elems += int(np.size(x))
            return orig_pack(x)

        self._patch(repro.lint, "lint_program", wrap_lint)
        self._patch(CircularBuffer, "push_back", wrap_push)
        # modules bind the BF16 pack by name: rebind it in each of them
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, "f32_to_bits", None) is orig_pack:
                self._patch(mod, "f32_to_bits", lambda _orig: f32_to_bits)

    def uninstall(self, keep: int = 0) -> None:
        while len(self._patches) > keep:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def _program_shape(program) -> tuple:
    """Kernel functions, CB/semaphore configs and runtime-arg shapes."""
    kernels = tuple(
        (k.fn.__module__, k.fn.__qualname__, k.core.coord, k.slot,
         tuple(sorted((a, type(v).__name__, getattr(v, "shape", None))
                      for a, v in k.args.items())))
        for k in program.kernels)
    cbs = tuple((c.core.coord, c.cb_id, c.page_size, c.n_pages, c.dtype)
                for c in program.circular_buffers)
    sems = tuple((s.core.coord, s.sem_id, s.initial)
                 for s in program.semaphores)
    return kernels, cbs, sems


# --------------------------------------------------------------------------
# profile attribution
# --------------------------------------------------------------------------

_MODULE_CACHE: Dict[str, str] = {}


def module_of(filename: str) -> str:
    """``repro.<pkg>.<mod>`` defining a profiled function, else ``ext``."""
    mod = _MODULE_CACHE.get(filename)
    if mod is None:
        path = os.path.abspath(filename)
        mod = "ext"
        if path.startswith(os.path.join(SRC, "repro") + os.sep) and \
                path.endswith(".py"):
            mod = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            mod = mod[:-len(".__init__")] if mod.endswith(".__init__") \
                else mod
        _MODULE_CACHE[filename] = mod
    return mod


def _attribute(prof: cProfile.Profile):
    """(self seconds by module, calls by module, (calls, cumtime) by name)."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    named: Dict[tuple, list] = defaultdict(lambda: [0, 0.0])
    for (fname, _line, func), (_cc, nc, tt, ct, _callers) in \
            pstats.Stats(prof).stats.items():
        mod = module_of(fname)
        self_s[mod] += tt
        calls[mod] += nc
        if (mod, func) in _NAMED:
            named[(mod, func)][0] += nc
            named[(mod, func)][1] += ct
    return self_s, calls, named


#: per-layer metrics computed against the untraced repetition
_AGAINST_UNTRACED = ("trace.overhead", "engine.events_per_s")


def _layer_metrics(prof, probe: Probe, wall: float) -> tuple:
    """Per-layer metrics of one traced repetition (``trace.overhead`` and
    ``engine.events_per_s`` are filled in against the untraced rep)."""
    self_s, calls, named = _attribute(prof)

    def cum(*keys):
        return sum(named[k][1] for k in keys)

    lint_s = cum(_LINT)
    m = {
        "engine.events": probe.events,
        "engine.self_s": self_s["repro.sim.engine"],
        "engine.share": self_s["repro.sim.engine"] / wall,
        "kernel_api.calls": calls["repro.ttmetal.kernel_api"],
        "kernel_api.self_s": self_s["repro.ttmetal.kernel_api"],
        "cb.pages_pushed": probe.cb_pages,
        "cb.self_s": self_s["repro.arch.cb"],
        "bf16.calls": probe.bf16_calls,
        "bf16.elems": probe.bf16_elems,
        "bf16.elems_per_call": (probe.bf16_elems / probe.bf16_calls
                                if probe.bf16_calls else 0.0),
        "bf16.self_s": self_s["repro.dtypes.bf16"],
        "host.launches": named[_ENQUEUE][0],
        "host.launch_s": cum(_ENQUEUE),
        "host.buffer_io_s": cum(*_BUFFER_IO),
        "lint.programs": probe.lint_calls,
        "lint.kernels": probe.lint_kernels,
        "lint.s": lint_s,
        "lint.repeat_frac": (probe.lint_repeats / probe.lint_calls
                             if probe.lint_calls else 0.0),
        "lint.share": lint_s / wall,
        "cluster.halo_s": cum(_HALO),
        "noc.self_s": self_s["repro.arch.noc"],
        "fpu.self_s": self_s["repro.arch.fpu"],
        "sram.self_s": self_s["repro.arch.sram"],
        "ops.ref_s": cum(*_OP_REFS),
        "serve.sim_s": cum(_LOADGEN) - cum(_POSTPASS),
        "serve.postpass_s": cum(_POSTPASS),
        "cpu.ref_s": cum(*_CPU_REFS),
    }
    for key in PER_LAYER:
        if key not in m and key not in _AGAINST_UNTRACED:
            m[key] = probe.counts[key]
    return m, dict(self_s)


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

@dataclass
class Rep:
    raw: float               #: wall seconds (less the speed samples' time)
    wall: float              #: seconds at reference host speed (traced: raw)
    call_ms: List[float]     #: each call, at reference host speed
    out: object
    invariants: dict
    layers: Optional[dict] = None
    modules: Optional[dict] = None


def _one_rep(probe: Probe, wl, traced: bool) -> Rep:
    """One repetition: speed-sampled when untraced, profiled when traced."""
    gc.collect()
    probe.reset()
    if traced:
        keep = len(probe._patches)
        probe.install_trace()
        probe.tracing = True
        prof = cProfile.Profile()
        try:
            t0 = perf_counter()
            with probe.span("rep"):
                prof.enable()
                out = wl.rep(probe)
                prof.disable()
            raw = wall = perf_counter() - t0
        finally:
            probe.tracing = False
            probe.uninstall(keep)
        call_ms = [(b - a) * 1e3 for a, b in probe.calls]
    else:
        with SpeedSampler() as sampler:
            t0 = perf_counter()
            out = wl.rep(probe)
            t1 = perf_counter()
        raw = t1 - t0 - sampler.spent(t0, t1)
        wall = sampler.seconds(t0, t1)
        call_ms = [sampler.seconds(a, b) * 1e3 for a, b in probe.calls]
    inv = dict(out.invariants, events=probe.events)
    inv.update({f"sim.{k}": v for k, (v, _unit) in out.sim.items()})
    rep = Rep(raw=raw, wall=wall, call_ms=call_ms, out=out, invariants=inv)
    if traced:
        rep.layers, rep.modules = _layer_metrics(prof, probe, raw)
    return rep


def _metric(samples: List[float], unit: str, value=None) -> dict:
    """A metric: its value (default: the median of the per-rep samples)."""
    return {"value": statistics.median(samples) if value is None else value,
            "unit": unit, "samples": samples}


def _diff(a: dict, b: dict) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(f"{k}: {a.get(k)!r} -> {b.get(k)!r}" for k in keys)


def measure(name: str, seed: int, seconds: float, trace: bool,
            params: Optional[dict] = None) -> dict:
    """Warm up, then time repetitions of one workload for ``seconds``.

    Untraced, the result carries the end-to-end metrics (except
    ``setup_s``).  Traced, it times one untraced repetition, then runs
    the timed repetitions under ``cProfile`` and carries the per-layer
    metrics.  Invariants must repeat across every repetition; the
    off-the-clock checks run on the last one.
    """
    cls, full, _tiny = WORKLOADS[name]
    params = full if params is None else params
    wl = cls(params, seed)
    probe = Probe()
    probe.install()
    try:
        _one_rep(probe, wl, traced=False)      # warm-up: caches, lazy imports
        base = _one_rep(probe, wl, traced=False) if trace else None
        reps: List[Rep] = []
        t0 = perf_counter()
        while len(reps) < MIN_REPS or perf_counter() - t0 < seconds:
            if reps:   # only the last rep's outputs are checked
                reps[-1].out.result = None
            reps.append(_one_rep(probe, wl, traced=trace))
    finally:
        probe.uninstall()

    ref = (base or reps[0]).invariants
    errors = [f"rep {i} invariants differ: {_diff(ref, r.invariants)}"
              for i, r in enumerate(reps) if r.invariants != ref]
    errors += wl.check(reps[-1].out)
    # operations, plus one invariant check per rep and the output check
    attempted = sum(r.out.ops for r in reps) + len(reps) + 1
    failed = sum(r.out.failed for r in reps) + len(errors)

    metrics: Dict[str, dict] = {}
    if trace:
        for key, unit in PER_LAYER.items():
            if key == "trace.overhead":
                samples = [r.raw / base.raw for r in reps]
            elif key == "engine.events_per_s":
                samples = [r.layers["engine.events"] / base.raw
                           for r in reps]
            else:
                samples = [float(r.layers[key]) for r in reps]
            metrics[key] = _metric(samples, unit)
    else:
        metrics["wall_s"] = _metric([r.wall for r in reps], "s")
        metrics["points_per_s"] = _metric(
            [r.out.points / r.wall for r in reps], "1/s")
        metrics["requests_per_s"] = _metric(
            [(r.out.ops - r.out.failed) / r.wall for r in reps], "1/s")
        calls = [ms for r in reps for ms in r.call_ms]
        for q in (50, 99):
            metrics[f"call_ms_p{q}"] = _metric(
                [percentile(r.call_ms, q) for r in reps], "ms",
                value=percentile(calls, q))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = _metric([rss], "MB")

    doc = {
        "workload": name,
        "config": params,
        "config_hash": config_hash(name, params, seed),
        "seed": seed,
        "trace": bool(trace),
        "reps": len(reps),
        "calls_per_rep": len(reps[0].call_ms),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "invariants": ref,
        "sim": {k: list(v) for k, v in reps[0].out.sim.items()},
        "metrics": metrics,
    }
    if not trace:
        # the measurements behind the speed-normalised host times
        doc["raw_wall_s"] = [r.raw for r in reps]
        doc["host_speed"] = [r.wall / r.raw for r in reps]
    else:
        doc["untraced_wall_s"] = base.raw
        mods = sorted({m for r in reps for m in r.modules})
        doc["modules_self_s"] = {
            m: statistics.median(r.modules.get(m, 0.0) for r in reps)
            for m in mods}
        doc["spans"] = probe.spans
    return doc


def _jsonable(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit")
    args = ap.parse_args(argv)
    use_checkout_src()
    if args.setup_only:
        cls, full, _tiny = WORKLOADS[args.workload]
        cls(full, args.seed)
        return 0
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    json.dump(doc, sys.stdout, default=_jsonable)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workload table.

Each workload is a class built from ``(params, seed)`` — the build is the
input set-up that ``setup_s`` times — with two methods:

* ``rep(probe)`` runs one repetition through public ``repro`` entry
  points and returns a :class:`RepOut`;
* ``check(out)`` runs the off-the-clock output checks on the last
  repetition and returns one message per failed check.

``WORKLOADS`` maps a name to ``(class, full params, tiny params)``.  The
full params are the benchmark of record; the tiny ones exist so the
smoke test drives the same code in seconds.  Why each workload exists is
in README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np


@dataclass
class RepOut:
    """What one repetition did, as seen from outside the library."""

    ops: int                 #: operations attempted (launches, op runs, requests)
    failed: int              #: operations shed or failed
    points: int              #: simulated grid-point (element) updates
    invariants: Dict[str, Any]   #: must repeat exactly across reps and traces
    #: simulated results, name -> (value, unit); also invariant
    sim: Dict[str, tuple] = field(default_factory=dict)
    result: Any = None       #: what ``check`` needs from the last rep


def sha16(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class Jacobi108:
    """Table VIII's headline: one 108-core launch of the Section-VI kernel."""

    def __init__(self, p: dict, seed: int):
        from repro.arch.device import GrayskullDevice
        from repro.core.grid import LaplaceProblem
        from repro.core.jacobi_optimized import OptimizedJacobiRunner
        from repro.experiments.reference import TABLE8_ROWS

        self.p = p
        self.device_cls = GrayskullDevice
        self.runner_cls = OptimizedJacobiRunner
        self.problem = LaplaceProblem(nx=p["nx"], ny=p["ny"])
        # the paper's single-card rate for this core grid, when it has one
        self.paper_gpts = next(
            (row[5] for row in TABLE8_ROWS if row[0] == "e150"
             and (row[2], row[3]) == (p["cores_y"], p["cores_x"])), None)

    def rep(self, probe) -> RepOut:
        p = self.p
        dev = self.device_cls(dram_bank_capacity=32 << 20)
        runner = self.runner_cls(dev, self.problem, cores_y=p["cores_y"],
                                 cores_x=p["cores_x"])
        res = runner.run(p["iterations"])
        probe.harvest([dev])
        points = p["nx"] * p["ny"] * p["iterations"]
        gpts = points / res.kernel_time_s / 1e9
        sim = {"sim_gpts": (gpts, "GPt/s")}
        if self.paper_gpts:
            sim["paper_err_pct"] = ((gpts / self.paper_gpts - 1) * 100, "%")
        return RepOut(ops=1, failed=0, points=points,
                      invariants={"grid_sha": sha16(res.grid_bits),
                                  "kernel_time_s": res.kernel_time_s},
                      sim=sim, result=res.grid_bits)

    def check(self, out: RepOut) -> List[str]:
        from repro.cpu.jacobi import jacobi_solve_bf16

        ref = jacobi_solve_bf16(self.problem.initial_grid_bf16(),
                                self.p["iterations"])
        if np.array_equal(ref, out.result):
            return []
        return [f"jacobi grid: {int(np.count_nonzero(ref != out.result))} "
                "points differ from jacobi_solve_bf16"]


class ClusterLaunches:
    """Many small per-card launches with a host halo exchange between them."""

    def __init__(self, p: dict, seed: int):
        from repro.cluster import ClusterConfig, ClusterSolver
        from repro.core.grid import LaplaceProblem

        self.p = p
        self.solver_cls = ClusterSolver
        self.config = ClusterConfig(
            nx=p["nx"], ny=p["ny"], iterations=p["iterations"],
            cards_y=p["cards_y"], cards_x=p["cards_x"],
            cores_y=p["cores_y"], cores_x=p["cores_x"], timing="des")
        self.problem = LaplaceProblem(nx=p["nx"], ny=p["ny"])

    def rep(self, probe) -> RepOut:
        cfg = self.config
        solver = self.solver_cls(cfg)
        res = solver.solve(self.problem)
        probe.harvest(solver.last_des_cluster.cards)
        probe.counts["cluster.halo_bytes"] += res.exchange.bytes_moved
        return RepOut(
            ops=cfg.n_cards * cfg.iterations, failed=0,
            points=cfg.nx * cfg.ny * cfg.iterations,
            invariants={"grid_sha": sha16(res.grid_bits),
                        "wall_time_s": res.wall_time_s,
                        "energy_j": res.energy_j},
            sim={"sim_gpts": (res.gpts, "GPt/s")}, result=res.grid_bits)

    def check(self, out: RepOut) -> List[str]:
        from repro.cpu.jacobi import jacobi_solve_bf16

        ref = jacobi_solve_bf16(self.problem.initial_grid_bf16(),
                                self.config.iterations)
        if np.array_equal(ref, out.result):
            return []
        return [f"cluster grid: {int(np.count_nonzero(ref != out.result))} "
                "points differ from jacobi_solve_bf16"]


class KernelMix:
    """Every registered op on three core grids, then three streaming runs."""

    def __init__(self, p: dict, seed: int):
        from repro import ops
        from repro.arch.device import GrayskullDevice
        from repro.streaming import StreamConfig, run_streaming

        self.p = p
        self.device_cls = GrayskullDevice
        self.run_streaming = run_streaming
        self.problems = [(spec, spec.make_problem(p["op_size"], seed))
                         for spec in ops.list_ops()]
        rows, elems, batch = p["stream_rows"], 1024, 1024
        self.streams = [
            ("batched", StreamConfig(rows=rows, row_elems=elems,
                                     read_batch=batch)),
            ("noncontig", StreamConfig(rows=rows, row_elems=elems,
                                       read_batch=batch, write_batch=batch,
                                       contiguous=False)),
            ("replicated", StreamConfig(rows=rows, row_elems=elems,
                                        replication=2, verify=True)),
        ]

    def _on_device(self, probe, tag, fn, *args, **kwargs):
        """One timed call on a fresh card, released as soon as it returns."""
        dev = self.device_cls(dram_bank_capacity=16 << 20)
        res = probe.call(tag, fn, *args, device=dev, **kwargs)
        probe.harvest([dev])
        return res

    def rep(self, probe) -> RepOut:
        inv: Dict[str, Any] = {}
        sim: Dict[str, tuple] = {}
        checked = []
        points = 0
        for spec, problem in self.problems:
            for cy, cx in self.p["cores"]:
                tag = f"{spec.name}_{cy}x{cx}"
                res = self._on_device(probe, tag, spec.run, problem,
                                      cores=(cy, cx), check=True)
                checked.append((tag, res.checked))
                points += res.output.size * getattr(problem, "iters", 1)
                inv[tag] = [res.output_sha, res.fpu_ops]
                sim[f"{tag}.kernel_us"] = (res.kernel_time_s * 1e6, "us")
        for label, cfg in self.streams:
            res = self._on_device(probe, f"stream_{label}",
                                  self.run_streaming, cfg)
            if cfg.verify:
                checked.append((f"stream_{label}", res.verified))
            points += cfg.rows * cfg.row_elems
            inv[f"stream_{label}"] = [res.read_requests, res.write_requests]
            sim[f"stream_{label}.read_gbps"] = (res.read_bw / 1e9, "GB/s")
        return RepOut(ops=len(self.problems) * len(self.p["cores"])
                      + len(self.streams), failed=0, points=points,
                      invariants=inv, sim=sim, result=checked)

    def check(self, out: RepOut) -> List[str]:
        return [f"{tag}: output not checked against its reference"
                for tag, ok in out.result if ok is not True]


class ServeOpen:
    """Open-loop mixed serving under chaos at three fixed arrival rates."""

    def __init__(self, p: dict, seed: int):
        from repro.serve import (ChaosConfig, LoadGenConfig, run_loadgen,
                                 verify_chaos_report)

        self.p = p
        self.run_loadgen = run_loadgen
        self.verify = verify_chaos_report
        # No request carries a deadline, so under this load every request
        # is resolved (completed or degraded to the CPU) and none is shed;
        # latency is judged on the simulated p99 instead.
        self.configs = [
            (rate, LoadGenConfig(mode="open", seed=seed,
                                 n_requests=p["requests"],
                                 arrival_rate_rps=float(rate),
                                 workloads=("jacobi", "matmul", "fft",
                                            "stencil9"),
                                 deadline_fraction=0.0))
            for rate in p["rates"]]
        self.chaos = ChaosConfig(seed=seed, intensity=1.0)

    def rep(self, probe) -> RepOut:
        inv: Dict[str, Any] = {}
        sim: Dict[str, tuple] = {}
        counts = probe.counts
        reports = []
        ops = failed = points = 0
        for rate, cfg in self.configs:
            # jobs=1 / cache=False: the functional post-pass runs in this
            # process and is recomputed on every rep.
            report = probe.call(f"loadgen_r{rate}", self.run_loadgen, cfg,
                                chaos=self.chaos, solve=True, jobs=1,
                                cache=False)
            reports.append((rate, report))
            c = report.metrics.counters
            for o in report.outcomes:
                ops += 1
                if o.status in ("completed", "degraded"):
                    r = o.request
                    points += r.nx * r.ny * r.effective_iterations
                else:
                    failed += 1
            counts["serve.batches"] += (c.get("launches.device", 0)
                                        + c.get("launches.cpu", 0))
            counts["serve.batches_multi"] += c.get("batches.multi", 0)
            counts["serve.retries"] += c.get("retries", 0)
            counts["serve.shed"] += c.get("shed", 0)
            counts["serve.postpass_solves"] += len(report.solves)
            inv[f"r{rate}"] = [
                hashlib.sha256(report.to_json_text().encode()).hexdigest()[:16],
                report.duration_s]
            p99 = report.latencies()["total_s"].get("p99", 0.0)
            sim[f"serve.p99_ms.r{rate}"] = (p99 * 1e3, "ms")
        return RepOut(ops=ops, failed=failed, points=points, invariants=inv,
                      sim=sim, result=reports)

    def check(self, out: RepOut) -> List[str]:
        return [f"r{rate}: {v}" for rate, report in out.result
                for v in self.verify(report)]


WORKLOADS = {
    "jacobi_108": (
        Jacobi108,
        # Table VIII's grid and its full 12x9 core grid
        dict(nx=9216, ny=1024, cores_y=12, cores_x=9, iterations=2),
        dict(nx=192, ny=24, cores_y=2, cores_x=3, iterations=2)),
    "cluster_launches": (
        ClusterLaunches,
        # 4 cards x 96 iterations = 384 launches.  4x2 cores keeps every
        # core's 16-element column on a 32-byte DRAM word; 2x4 would
        # split it into 8-element columns whose unaligned writes corrupt
        # the grid.
        dict(nx=128, ny=16, iterations=96, cards_y=1, cards_x=4,
             cores_y=4, cores_x=2),
        dict(nx=64, ny=16, iterations=3, cards_y=1, cards_x=2,
             cores_y=2, cores_x=1)),
    "kernel_mix": (
        KernelMix,
        dict(op_size=256, cores=[[1, 1], [2, 2], [4, 4]], stream_rows=1024),
        dict(op_size=64, cores=[[1, 1], [2, 2]], stream_rows=32)),
    "serve_open": (
        ServeOpen,
        dict(rates=[250, 500, 1000], requests=4096),
        dict(rates=[250, 500, 1000], requests=48)),
}

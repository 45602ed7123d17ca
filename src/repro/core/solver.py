"""The public solver facade: one entry point for every configuration.

:class:`JacobiSolver` routes a :class:`~repro.core.grid.LaplaceProblem`
to the right execution engine:

=============== ==================================== =========================
backend          functional answer                    timing / energy
=============== ==================================== =========================
``cpu``          NumPy FP32 sweep                     calibrated Xeon model
``e150``         discrete-event simulation (bytes     emergent from the DES
                 through DRAM/NoC/CB/FPU)
``e150-model``   vectorised global BF16 sweep         Tier-2 scaling model
=============== ==================================== =========================

``backend="auto"`` picks the DES for small core counts and the scaling
model beyond (per-request simulation of 108 cores is possible but
pointless).  Results carry the answer, wall time, GPt/s and Joules so the
experiment drivers can print the paper's tables directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.resilience import FaultTrace
from repro.arch.device import GrayskullDevice
from repro.core.decomposition import remap_failed, split_domain
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_initial import InitialConfig, InitialJacobiRunner
from repro.core.jacobi_optimized import OptimizedConfig, OptimizedJacobiRunner
from repro.core.multicore import run_multicard_functional
from repro.cpu.jacobi import jacobi_solve_bf16, jacobi_step_bf16, residual_f32
from repro.cpu.openmp import CpuJacobiRunner
from repro.dtypes.bf16 import bits_to_f32
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.perfmodel.scaling import JacobiScalingModel

__all__ = ["JacobiSolver", "JacobiResult", "ResilienceConfig",
           "ResilientJacobiResult", "solve_resilient"]

#: DES is used up to this many cores under ``backend="auto"``, and per
#: card in DES-timed cluster solves (beyond it the Tier-2 model is the
#: tool).
DES_CORE_LIMIT = 8


@dataclass(frozen=True)
class JacobiResult:
    """Uniform result: answer + performance, whatever the engine."""

    grid_f32: Optional[np.ndarray]   #: final halo grid as float32 (None if not computed)
    backend: str
    variant: str
    cores: tuple[int, int]
    n_cards: int
    iterations: int
    time_s: float
    gpts: float                      #: billion points per second
    energy_j: float

    @property
    def interior(self) -> np.ndarray:
        if self.grid_f32 is None:
            raise ValueError("this run did not produce a functional answer")
        return self.grid_f32[1:-1, 1:-1]


class JacobiSolver:
    """Solve Laplace's equation the way the paper does, on your choice of
    engine.

    Examples
    --------
    >>> from repro.core import JacobiSolver, LaplaceProblem
    >>> problem = LaplaceProblem(nx=64, ny=64)
    >>> result = JacobiSolver(backend="e150").solve(problem, iterations=20)
    >>> result.gpts > 0
    True
    """

    VARIANTS = ("initial", "write_opt", "double_buffered", "optimized",
                "sram")
    BACKENDS = ("auto", "cpu", "e150", "e150-model")

    def __init__(self, backend: str = "auto", variant: str = "optimized",
                 cores: tuple[int, int] = (1, 1), n_cards: int = 1,
                 n_threads: int = 1,
                 costs: CostModel = DEFAULT_COSTS):
        if variant not in self.VARIANTS:
            raise ValueError(f"variant must be one of {self.VARIANTS}")
        if backend not in self.BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if n_cards > 1 and variant != "optimized":
            raise ValueError("multi-card runs require the optimised variant")
        if variant == "sram" and cores[1] != 1:
            raise ValueError("the SRAM-resident variant decomposes in Y "
                             "only (cores=(cy, 1))")
        if variant not in ("optimized", "sram") and cores != (1, 1):
            raise ValueError("the Section-IV variants run on a single core")
        self.backend = backend
        self.variant = variant
        self.cores = cores
        self.n_cards = n_cards
        self.n_threads = n_threads
        self.costs = costs

    # -- routing -----------------------------------------------------------
    def _effective_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        if self.variant == "sram":
            return "e150"  # SRAM residence only exists as real kernels
        n = self.cores[0] * self.cores[1]
        if self.n_cards > 1 or n > DES_CORE_LIMIT:
            return "e150-model"
        return "e150"

    def solve(self, problem: LaplaceProblem, iterations: int, *,
              sim_iterations: Optional[int] = None,
              device: Optional[GrayskullDevice] = None,
              compute_answer: bool = True) -> JacobiResult:
        """Run ``iterations`` Jacobi sweeps.

        ``sim_iterations`` (DES backends only) limits how many iterations
        are simulated per-event; timing is extrapolated to ``iterations``
        and no functional answer is read back unless all iterations ran.
        ``compute_answer=False`` skips the functional sweep on modelled
        backends (useful for huge Table-VIII configurations).
        """
        backend = self._effective_backend()
        if backend == "cpu":
            return self._solve_cpu(problem, iterations, compute_answer)
        if backend == "e150":
            return self._solve_des(problem, iterations, sim_iterations, device)
        if self.variant == "sram":
            raise ValueError(
                "the SRAM-resident variant has no analytic model; use "
                "backend='e150' (or 'auto')")
        return self._solve_model(problem, iterations, compute_answer)

    def des_runner(self, device: GrayskullDevice, problem: LaplaceProblem):
        """The DES runner of this solver's variant and core grid, built on
        ``device`` (call its ``run`` to launch)."""
        if self.variant == "sram":
            from repro.core.jacobi_sram import SramJacobiRunner
            return SramJacobiRunner(device, problem, cores_y=self.cores[0])
        if self.variant == "optimized":
            return OptimizedJacobiRunner(
                device, problem, OptimizedConfig(),
                cores_y=self.cores[0], cores_x=self.cores[1])
        cfg = {"initial": InitialConfig.initial,
               "write_opt": InitialConfig.write_optimised,
               "double_buffered": InitialConfig.double_buffered_cfg,
               }[self.variant]()
        return InitialJacobiRunner(device, problem, cfg)

    # -- engines ------------------------------------------------------------
    def _solve_cpu(self, problem: LaplaceProblem, iterations: int,
                   compute_answer: bool) -> JacobiResult:
        from repro.perfmodel.cpumodel import XeonModel
        if compute_answer:
            res = CpuJacobiRunner().run(problem.initial_grid_f32(),
                                        iterations, n_threads=self.n_threads)
            grid, time_s = res.grid, res.time_s
            gpts, energy = res.gpts, res.energy_j
        else:
            # timing/energy only (huge Table-VIII style sweeps)
            model = XeonModel()
            points = problem.nx * problem.ny
            grid = None
            time_s = model.solve_time_s(points, iterations, self.n_threads)
            gpts = points * iterations / time_s / 1e9
            energy = model.energy_j(points, iterations, self.n_threads)
        return JacobiResult(
            grid_f32=grid, backend="cpu", variant="listing1-fp32",
            cores=(1, self.n_threads), n_cards=0, iterations=iterations,
            time_s=time_s, gpts=gpts, energy_j=energy)

    def _solve_des(self, problem: LaplaceProblem, iterations: int,
                   sim_iterations: Optional[int],
                   device: Optional[GrayskullDevice]) -> JacobiResult:
        runner = self.des_runner(device or GrayskullDevice(self.costs),
                                 problem)
        res = runner.run(iterations, sim_iterations=sim_iterations)
        grid = bits_to_f32(res.grid_bits) if res.grid_bits is not None else None
        return JacobiResult(
            grid_f32=grid, backend="e150", variant=self.variant,
            cores=self.cores, n_cards=1, iterations=iterations,
            time_s=res.total_time_s,
            gpts=res.gpts,
            energy_j=res.energy_j)

    def _solve_model(self, problem: LaplaceProblem, iterations: int,
                     compute_answer: bool) -> JacobiResult:
        # ``cores`` is the decomposition over all cards (the paper's 48×9
        # on four cards): each card runs cores_y / n_cards rows of it.
        cy, cx = self.cores
        if cy % self.n_cards:
            raise ValueError("cores_y must divide evenly across cards")
        perf = JacobiScalingModel(self.costs).run(
            problem.nx, problem.ny, iterations, cy // self.n_cards, cx,
            self.n_cards)
        grid = None
        if compute_answer:
            bits = problem.initial_grid_bf16()
            if self.n_cards > 1:
                bits = run_multicard_functional(bits, iterations, self.n_cards)
            else:
                bits = jacobi_solve_bf16(bits, iterations)
            grid = bits_to_f32(bits)
        return JacobiResult(
            grid_f32=grid, backend="e150-model", variant=self.variant,
            cores=self.cores, n_cards=self.n_cards, iterations=iterations,
            time_s=perf.solve_time_s, gpts=perf.gpts, energy_j=perf.energy_j)


# -- resilient execution: SDC detection, checkpoint/restart, remap ----------

@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for :func:`solve_resilient`."""

    checkpoint_every: int = 16      #: iterations between state snapshots
    residual_jump_factor: float = 8.0  #: residual growth that flags SDC
    range_slack: float = 1e-6       #: tolerance on the max-principle bounds
    max_restarts: int = 8           #: give up after this many rollbacks

    def __post_init__(self):
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.residual_jump_factor <= 1.0:
            raise ValueError("residual_jump_factor must exceed 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")


@dataclass(frozen=True)
class ResilientJacobiResult:
    """Outcome of a fault-tolerant solve."""

    grid_f32: np.ndarray
    cores: tuple[int, int]
    iterations: int                 #: useful sweeps delivered
    executed_sweeps: int            #: total sweeps incl. rollback replays
    weighted_sweeps: float          #: sweeps scaled by degraded-mode load
    restarts: int
    detected_sdc: int
    failed_cores: tuple             #: decomposition coords that died
    degraded_factor: float          #: final per-iteration slowdown (>= 1)
    residual: float
    time_s: float
    trace: FaultTrace

    @property
    def interior(self) -> np.ndarray:
        return self.grid_f32[1:-1, 1:-1]


def _degraded_factor(grid, failed, assignment) -> float:
    """Per-iteration slowdown: busiest survivor vs. the healthy maximum."""
    owners = {(s.iy, s.ix): s for row in grid for s in row}
    base = max(s.ny * s.nx for s in owners.values())
    load = {k: s.ny * s.nx for k, s in owners.items() if k not in failed}
    for f, survivor in assignment.items():
        load[survivor] += owners[f].ny * owners[f].nx
    return max(load.values()) / base


def solve_resilient(problem: LaplaceProblem, iterations: int, *,
                    cores: tuple[int, int] = (1, 1),
                    faults=None,
                    config: Optional[ResilienceConfig] = None,
                    trace: Optional[FaultTrace] = None,
                    costs: CostModel = DEFAULT_COSTS) -> ResilientJacobiResult:
    """Jacobi with silent-data-corruption detection and checkpoint/restart.

    Runs the bit-exact BF16 sweep (the device-functional model) while a
    :class:`~repro.faults.plan.FaultPlan` — or any object with ``solver``
    (:class:`SolverBitFlip`) and ``core_failures`` (:class:`CoreFailure`)
    sequences — injects state corruption and core deaths at iteration
    granularity:

    * After every sweep, two detectors run: the discrete-maximum-principle
      **range check** (any interior value outside the boundary extrema is
      impossible for a correct Jacobi iterate) and a **residual-jump
      check** (the residual growing by ``residual_jump_factor`` over its
      best-seen value).  A detection rolls the state back to the last
      checkpoint; the rewrite scrubs the corruption, so each injected flip
      is consumed exactly once and the replayed sweeps run clean.
    * A core failure permanently removes a decomposition cell; its
      sub-domain is remapped onto the least-loaded survivor
      (:func:`repro.core.decomposition.remap_failed`) and every later
      sweep pays the degraded load factor.  The functional answer is
      unchanged (the survivor computes the same block); only timing
      degrades.

    Timing comes from the Tier-2 scaling model, scaled by the *weighted*
    sweep count (replays + degradation), so the reported solve time
    reflects the cost of resilience, deterministically.
    """
    cfg = config or ResilienceConfig()
    log = trace if trace is not None else FaultTrace()
    cy, cx = cores
    nx, ny = problem.nx, problem.ny
    flips: dict[int, list] = {}
    failures: dict[int, list] = {}
    for flip in getattr(faults, "solver", ()) or ():
        if not (0 <= flip.row < ny and 0 <= flip.col < nx):
            raise ValueError(f"flip target ({flip.row},{flip.col}) outside "
                             f"the {ny}x{nx} interior")
        flips.setdefault(flip.iteration, []).append(flip)
    for death in getattr(faults, "core_failures", ()) or ():
        failures.setdefault(death.iteration, []).append(death)

    grid = split_domain(nx, ny, cy, cx)
    failed: set[tuple[int, int]] = set()
    factor = 1.0

    bits = problem.initial_grid_bf16()
    lo, hi = problem.boundary_extrema()
    eps = cfg.range_slack * max(1.0, abs(lo), abs(hi))
    best_res = residual_f32(bits_to_f32(bits))
    ckpt_it, ckpt_bits = 0, bits.copy()
    it = 0
    executed = 0
    weighted = 0.0
    restarts = 0
    detected = 0

    while it < iterations:
        # Core deaths fire once (dead cores stay dead through rollbacks).
        for death in failures.pop(it, []):
            failed.add((death.iy, death.ix))
            log.record(-1.0, "core.failure",
                       f"iter{it}.core({death.iy},{death.ix})", "injected")
            assignment = remap_failed(grid, failed)
            factor = _degraded_factor(grid, failed, assignment)
            log.record(-1.0, "core.failure",
                       f"iter{it}.core({death.iy},{death.ix})", "remapped",
                       f"to({assignment[(death.iy, death.ix)][0]},"
                       f"{assignment[(death.iy, death.ix)][1]})."
                       f"load={factor:.9g}")

        bits = jacobi_step_bf16(bits)
        executed += 1
        weighted += factor

        # One-shot corruption: the post-rollback replay runs clean because
        # the checkpoint rewrite scrubbed the flipped bits.
        for flip in flips.pop(it, []):
            bits[1 + flip.row, 1 + flip.col] ^= np.uint16(1 << flip.bit)
            log.record(-1.0, "solver.bitflip",
                       f"iter{it}.({flip.row},{flip.col}).bit{flip.bit}",
                       "injected")
        it += 1

        u = bits_to_f32(bits)
        interior = u[1:-1, 1:-1]
        res = residual_f32(u)
        bad_range = (not np.isfinite(interior).all()
                     or bool((interior < lo - eps).any())
                     or bool((interior > hi + eps).any()))
        jumped = res > best_res * cfg.residual_jump_factor + 1e-30
        if bad_range or jumped:
            detected += 1
            why = "range" if bad_range else "residual"
            log.record(-1.0, "solver.sdc", f"iter{it - 1}", "detected", why)
            restarts += 1
            if restarts > cfg.max_restarts:
                raise RuntimeError(
                    f"solver gave up after {restarts} restarts "
                    f"({detected} corruption(s) detected)")
            bits = ckpt_bits.copy()
            it = ckpt_it
            log.record(-1.0, "solver.sdc", f"iter{ckpt_it}", "rolled-back")
            continue
        best_res = min(best_res, res)
        if it % cfg.checkpoint_every == 0 and it < iterations:
            ckpt_it, ckpt_bits = it, bits.copy()
            log.record(-1.0, "solver.checkpoint", f"iter{it}", "saved")

    perf = JacobiScalingModel(costs).run(nx, ny, iterations, cy, cx)
    time_s = perf.solve_time_s * (weighted / iterations)
    final = bits_to_f32(bits)
    return ResilientJacobiResult(
        grid_f32=final, cores=cores, iterations=iterations,
        executed_sweeps=executed, weighted_sweeps=weighted,
        restarts=restarts, detected_sdc=detected,
        failed_cores=tuple(sorted(failed)), degraded_factor=factor,
        residual=residual_f32(final), time_s=time_s, trace=log)

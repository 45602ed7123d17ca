"""Multi-card Jacobi with real halo exchange: bit-identical, accounted.

:class:`ClusterSolver` partitions the global grid over a
``cards_y × cards_x`` grid of simulated e150s, steps every card's private
block with the bit-exact BF16 kernel, and refreshes the cut halos between
iterations through the host-staged PCIe model
(:mod:`repro.cluster.halo`).  Because the exchange runs every iteration,
each block step reads exactly the previous global iterate at its cuts —
so the stitched multi-card answer is **bit-identical to the single-card
reference** (:func:`jacobi_solve_bf16`), for every decomposition shape.
``exchange="none"`` reproduces the paper's stale-halo multi-card runs
instead (equal to :func:`run_multicard_functional` for a 1D Y split).

Timing comes in two modes:

* ``timing="model"`` — per-block iteration times from the Tier-2
  :class:`JacobiScalingModel`; scales to dozens of cards.
* ``timing="des"`` — every card is a full discrete-event simulation: one
  :class:`OptimizedJacobiRunner` launch per card per iteration, the
  block (with refreshed ring) re-uploaded each time, so the PCIe legs of
  the exchange are simulated on-card and only the host memcpy leg is
  charged between iterations.

Accounting: every iteration ends at a barrier.  Cards that finish early
stall until the slowest card arrives, then the whole cluster idles
through the host staging round — stalled cards draw
``card_power_idle_w``.  The ledger is explicit
(:attr:`ClusterResult.busy_s` / :attr:`ClusterResult.stall_s`) and the
energy identity

    ``energy_j == Σ busy_energy_i + Σ stall_i · idle_w``

holds exactly by construction (pinned by ``tests/cluster/test_accounting``).

Card failures (``FaultPlan.card_failures``) follow the solver-level
resilience pattern: with ``checkpoint_every`` set the solve rolls back to
the last host-held checkpoint, remaps the dead card's block onto a
survivor (:func:`remap_failed` at card granularity) and recomputes —
still bit-identical, just slower; without checkpoints it sheds loudly
with the typed :class:`CardFailedError`.  Never a silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.halo import HaloCosts, HaloExchangeModel
from repro.cluster.topology import (
    apply_exchange,
    exchange_strips,
    extract_block,
    plan_cards,
    reassemble,
)
from repro.core.decomposition import remap_failed
from repro.core.grid import LaplaceProblem
from repro.core.solver import DES_CORE_LIMIT
from repro.cpu.jacobi import jacobi_step_bf16
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel

__all__ = [
    "CardFailedError",
    "ClusterConfig",
    "ClusterError",
    "ClusterResult",
    "ClusterSolver",
]

_DES_ALIGN = 32  # AlignedDomain: per-card interior width must be 32-aligned


class ClusterError(RuntimeError):
    """A cluster solve could not produce a trustworthy answer."""


class CardFailedError(ClusterError):
    """A card died mid-solve and no checkpoint/remap path was enabled.

    Carries the failed card coordinate and the iteration it died at, so
    the shed is attributable — the loud alternative to a silent wrong
    answer.
    """

    def __init__(self, card: Tuple[int, int], iteration: int):
        self.card = card
        self.iteration = iteration
        super().__init__(
            f"card {card} failed at iteration {iteration} and "
            f"checkpointing is disabled (checkpoint_every=0); enable "
            f"checkpoints to remap onto a survivor")


@dataclass(frozen=True)
class ClusterConfig:
    """One multi-card solve configuration (JSON-canonical, cacheable)."""

    nx: int
    ny: int
    iterations: int
    cards_y: int = 1
    cards_x: int = 1
    cores_y: int = 1            #: per-card core grid (timing only)
    cores_x: int = 1
    timing: str = "model"       #: "model" (Tier-2) or "des" (per-card DES)
    exchange: str = "staged"    #: "staged" (correct) or "none" (paper mode)
    checkpoint_every: int = 0   #: host checkpoint cadence; 0 disables

    def __post_init__(self):
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError("domain dimensions must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.cards_y <= 0 or self.cards_x <= 0:
            raise ValueError("card grid dimensions must be positive")
        if self.timing not in ("model", "des"):
            raise ValueError(f"timing must be 'model' or 'des', "
                             f"got {self.timing!r}")
        if self.exchange not in ("staged", "none"):
            raise ValueError(f"exchange must be 'staged' or 'none', "
                             f"got {self.exchange!r}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")

    @property
    def n_cards(self) -> int:
        return self.cards_y * self.cards_x


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster solve, with the full time/energy ledger."""

    config: ClusterConfig
    grid_bits: np.ndarray          #: stitched global halo grid (BF16 bits)
    wall_time_s: float
    energy_j: float
    gpts: float
    busy_s: Tuple[float, ...]      #: per-card computing time
    stall_s: Tuple[float, ...]     #: per-card barrier + staging idle time
    busy_energy_j: Tuple[float, ...]
    host_stage_s: float            #: scatter + gather + all exchange rounds
    exchange: HaloCosts            #: summed over all rounds
    power_active_w: float          #: per-card power while computing
    power_idle_w: float            #: per-card power while stalled
    restarts: int = 0
    failed_cards: Tuple[Tuple[int, int], ...] = ()
    remap: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...] = ()

    @property
    def n_cards(self) -> int:
        return self.config.n_cards

    def energy_identity_j(self) -> float:
        """The accounting identity, recomputed from the ledger fields.

        ``tests/cluster/test_accounting.py`` pins
        ``energy_j == energy_identity_j()`` exactly: all stall time —
        barrier waits, host staging, post-failure idling — is charged at
        idle power, nothing more, nothing less.
        """
        total = 0.0
        for busy_e, stall in zip(self.busy_energy_j, self.stall_s):
            total += busy_e + stall * self.power_idle_w
        return total


class ClusterSolver:
    """Domain-decomposed Jacobi over N simulated cards (see module doc)."""

    def __init__(self, config: ClusterConfig,
                 costs: CostModel = DEFAULT_COSTS):
        self.config = config
        self.costs = costs
        self.halo = HaloExchangeModel(costs)
        #: the arch-level Cluster whose cards ran the last DES-timed solve
        self.last_des_cluster = None
        cfg = config
        if cfg.cores_y * cfg.cores_x > costs.n_worker_cores:
            raise ClusterError(
                f"per-card core grid {cfg.cores_y}x{cfg.cores_x} exceeds "
                f"{costs.n_worker_cores} worker cores")
        if cfg.timing == "des":
            if cfg.cores_y * cfg.cores_x > DES_CORE_LIMIT:
                raise ClusterError(
                    f"DES timing is limited to {DES_CORE_LIMIT} cores per "
                    f"card; use timing='model' for "
                    f"{cfg.cores_y}x{cfg.cores_x}")
        try:
            self.cards = plan_cards(cfg.nx, cfg.ny, cfg.cards_y, cfg.cards_x)
        except ValueError as e:
            raise ClusterError(str(e)) from None
        if cfg.timing == "des":
            for row in self.cards:
                for sub in row:
                    if sub.nx % _DES_ALIGN:
                        raise ClusterError(
                            f"DES timing needs every card block width to be "
                            f"a multiple of {_DES_ALIGN} (Fig.-5 aligned "
                            f"layout); card {(sub.iy, sub.ix)} got {sub.nx}")

    # -- timing helpers ----------------------------------------------------
    def _model_block_times(self) -> Dict[Tuple[int, int], float]:
        """Per-iteration compute time of each card's own block (Tier-2)."""
        from repro.perfmodel.scaling import JacobiScalingModel

        model = JacobiScalingModel(self.costs)
        cfg = self.config
        by_shape: Dict[Tuple[int, int], float] = {}
        times: Dict[Tuple[int, int], float] = {}
        for row in self.cards:
            for sub in row:
                shape = (sub.ny, sub.nx)
                if shape not in by_shape:
                    by_shape[shape] = model.run(
                        sub.nx, sub.ny, 1, cfg.cores_y,
                        cfg.cores_x).solve_time_s
                times[(sub.iy, sub.ix)] = by_shape[shape]
        return times

    # -- the solve ---------------------------------------------------------
    def solve(self, problem: Optional[LaplaceProblem] = None,
              plan=None) -> ClusterResult:
        """Run the decomposed solve; ``plan`` may carry ``card_failures``.

        ``problem`` defaults to the standard left-hot Laplace problem on
        the configured dimensions; when given, its interior must match
        the config.
        """
        cfg = self.config
        if problem is None:
            problem = LaplaceProblem(nx=cfg.nx, ny=cfg.ny)
        if (problem.nx, problem.ny) != (cfg.nx, cfg.ny):
            raise ClusterError(
                f"problem interior {problem.ny}x{problem.nx} does not match "
                f"config {cfg.ny}x{cfg.nx}")
        failures = _failures_by_iteration(plan, cfg)

        grid0 = problem.initial_grid_bf16()
        coords = [(s.iy, s.ix) for row in self.cards for s in row]
        subs = {(s.iy, s.ix): s for row in self.cards for s in row}
        blocks = {c: extract_block(grid0, subs[c]) for c in coords}
        #: which card computes which blocks (remap rewrites this)
        owners: Dict[Tuple[int, int], List[Tuple[int, int]]] = {
            c: [c] for c in coords}
        alive = set(coords)
        failed: List[Tuple[int, int]] = []
        remap_pairs: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
        restarts = 0

        ledger = _Ledger(coords)
        strips = exchange_strips(self.cards)
        block_elems = [(s.ny + 2) * (s.nx + 2) for s in subs.values()]

        des = _DesBackend(self, subs, problem) if cfg.timing == "des" else None
        model_times = self._model_block_times() if des is None else None

        # Initial scatter: host → cards, everyone idle while it streams.
        scatter_s = self.halo.block_transfer_s(block_elems)
        ledger.host_stage(scatter_s)

        # Host-held checkpoint: (iteration, deep-copied blocks).
        ckpt_it = 0
        ckpt_blocks = {c: b.copy() for c, b in blocks.items()}

        exchange_total = HaloCosts(0.0, 0.0, 0.0, 0, 0)
        it = 0
        while it < cfg.iterations:
            # Cards scheduled to die at this iteration fail before
            # producing it.
            if it in failures:
                for coord in failures.pop(it):
                    if coord not in alive:
                        continue
                    if cfg.checkpoint_every <= 0:
                        raise CardFailedError(coord, it)
                    alive.discard(coord)
                    failed.append(coord)
                try:
                    assignment = remap_failed(
                        self.cards, [c for c in coords if c not in alive])
                except ValueError as e:
                    raise ClusterError(
                        f"no surviving cards to remap onto at iteration "
                        f"{it}: {e}") from None
                owners = {c: [c] for c in sorted(alive)}
                for dead, survivor in sorted(assignment.items()):
                    owners[survivor].append(dead)
                # Roll back to the host checkpoint and re-stage the
                # remapped blocks down to their new owners.
                it = ckpt_it
                blocks = {c: b.copy() for c, b in ckpt_blocks.items()}
                restarts += 1
                remap_pairs = sorted(assignment.items())
                restage = [(subs[d].ny + 2) * (subs[d].nx + 2)
                           for d in assignment]
                ledger.host_stage(self.halo.block_transfer_s(restage))

            # One iteration: every card steps its owned blocks serially.
            arrivals = {}
            for card, owned in owners.items():
                if des is not None:
                    t = des.step_blocks(card, owned, blocks)
                else:
                    t = 0.0
                    for b in owned:
                        blocks[b] = jacobi_step_bf16(blocks[b])
                        t += model_times[b]
                arrivals[card] = t
            ledger.barrier(arrivals)

            # Halo exchange through the host (all cards idle).
            if cfg.exchange == "staged":
                apply_exchange(self.cards, blocks)
                phases = (("memcpy",) if des is not None
                          else ("readback", "memcpy", "writeback"))
                round_cost = self.halo.round_cost(strips, phases=phases)
                exchange_total = _add_costs(exchange_total, round_cost)
                ledger.host_stage(round_cost.total_s)

            it += 1
            if cfg.checkpoint_every > 0 and it % cfg.checkpoint_every == 0:
                ckpt_it = it
                ckpt_blocks = {c: b.copy() for c, b in blocks.items()}

        # Final gather: cards → host.
        ledger.host_stage(self.halo.block_transfer_s(block_elems))

        grid = reassemble(grid0, self.cards, blocks)
        return self._finish(ledger, grid, exchange_total, des,
                            restarts, failed, remap_pairs)

    # -- result assembly ---------------------------------------------------
    def _finish(self, ledger: "_Ledger", grid: np.ndarray,
                exchange_total: HaloCosts, des, restarts: int,
                failed: List[Tuple[int, int]],
                remap_pairs) -> ClusterResult:
        cfg = self.config
        c = self.costs
        wall = ledger.wall()
        busy = ledger.busy_tuple()
        stall = tuple(wall - b for b in busy)
        p_active = c.card_power_w(cfg.cores_y * cfg.cores_x)
        if des is not None:
            busy_energy = des.busy_energy(ledger.coords)
            self.last_des_cluster = des.cluster
        else:
            busy_energy = tuple(b * p_active for b in busy)
        energy = 0.0
        for be, st in zip(busy_energy, stall):
            energy += be + st * c.card_power_idle_w
        points = cfg.nx * cfg.ny
        gpts = points * cfg.iterations / wall / 1e9 if wall > 0 else 0.0
        return ClusterResult(
            config=cfg, grid_bits=grid, wall_time_s=wall, energy_j=energy,
            gpts=gpts, busy_s=busy, stall_s=stall,
            busy_energy_j=busy_energy, host_stage_s=ledger.host_s,
            exchange=exchange_total, power_active_w=p_active,
            power_idle_w=c.card_power_idle_w, restarts=restarts,
            failed_cards=tuple(failed), remap=tuple(remap_pairs))


# --------------------------------------------------------------------------
# ledger
# --------------------------------------------------------------------------

class _Ledger:
    """Wall/busy/stall bookkeeping around the per-iteration barrier."""

    def __init__(self, coords):
        self.coords = list(coords)
        self.busy = {c: 0.0 for c in coords}
        self.host_s = 0.0
        self._wall = 0.0

    def barrier(self, arrivals: Dict[Tuple[int, int], float]) -> None:
        """Advance the wall to the slowest card's arrival."""
        top = max(arrivals.values())
        for card, t in arrivals.items():
            self.busy[card] += t
        self._wall += top

    def host_stage(self, dt: float) -> None:
        """Host-serialised staging: every card idles for ``dt``."""
        self.host_s += dt
        self._wall += dt

    def wall(self) -> float:
        return self._wall

    def busy_tuple(self) -> Tuple[float, ...]:
        return tuple(self.busy[c] for c in self.coords)


def _add_costs(a: HaloCosts, b: HaloCosts) -> HaloCosts:
    return HaloCosts(
        readback_s=a.readback_s + b.readback_s,
        memcpy_s=a.memcpy_s + b.memcpy_s,
        writeback_s=a.writeback_s + b.writeback_s,
        bytes_moved=a.bytes_moved + b.bytes_moved,
        n_strips=a.n_strips + b.n_strips)


def _failures_by_iteration(plan, cfg: ClusterConfig
                           ) -> Dict[int, List[Tuple[int, int]]]:
    """Index a FaultPlan's ``card_failures`` by trigger iteration."""
    out: Dict[int, List[Tuple[int, int]]] = {}
    for f in getattr(plan, "card_failures", ()) or ():
        if not (0 <= f.iy < cfg.cards_y and 0 <= f.ix < cfg.cards_x):
            raise ClusterError(
                f"card failure target ({f.iy},{f.ix}) outside the "
                f"{cfg.cards_y}x{cfg.cards_x} card grid")
        out.setdefault(min(f.iteration, cfg.iterations - 1),
                       []).append((f.iy, f.ix))
    for lst in out.values():
        lst.sort()
    return out


# --------------------------------------------------------------------------
# DES timing backend
# --------------------------------------------------------------------------

class _DesBackend:
    """Per-card discrete-event launches behind the cluster solve.

    Each physical card is a persistent :class:`GrayskullDevice` whose
    simulated clock accumulates across the per-iteration launches; block
    step times are clock deltas, so transfer and kernel time are both
    on-card.  Barrier stalls and host staging live only in the solve's
    ledger (:class:`ClusterResult`); the card clocks never see them.
    """

    def __init__(self, solver: ClusterSolver, subs, problem: LaplaceProblem):
        from repro.arch.cluster import Cluster

        self.solver = solver
        self.subs = subs
        self.problem = problem
        self.cluster = Cluster(len(subs), costs=solver.costs)
        self.card_index = {c: i for i, c in enumerate(sorted(subs))}
        self._runners: Dict[Tuple[Tuple[int, int], Tuple[int, int]], object] = {}

    def _runner(self, card: Tuple[int, int], block: Tuple[int, int]):
        from repro.core.jacobi_optimized import OptimizedJacobiRunner

        key = (card, block)
        if key not in self._runners:
            cfg = self.solver.config
            sub = self.subs[block]
            p = self.problem
            sub_problem = LaplaceProblem(
                nx=sub.nx, ny=sub.ny, left=p.left, right=p.right,
                top=p.top, bottom=p.bottom, initial=p.initial)
            device = self.cluster[self.card_index[card]]
            self._runners[key] = OptimizedJacobiRunner(
                device, sub_problem, cores_y=cfg.cores_y,
                cores_x=cfg.cores_x)
        return self._runners[key]

    def step_blocks(self, card: Tuple[int, int],
                    owned: List[Tuple[int, int]], blocks) -> float:
        """One launch per owned block; returns the card's clock delta."""
        device = self.cluster[self.card_index[card]]
        before = device.sim.now
        for b in owned:
            # One launch per block per iteration on a persistent device:
            # tear down the previous program's CBs/buffers first.
            device.release_launch_state()
            res = self._runner(card, b).run(1, initial_grid=blocks[b])
            blocks[b] = res.grid_bits
        return device.sim.now - before

    def busy_energy(self, coords) -> Tuple[float, ...]:
        return tuple(self.cluster[self.card_index[c]].energy.energy_j
                     for c in coords)

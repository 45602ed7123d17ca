"""Tier-2 analytic scaling model for the Section-VI stencil family.

Used for the many-core rows of Table VIII where per-request discrete-event
simulation would be wasteful, and for every ``stencil9`` request serve
prices.  The model composes the same calibrated per-request/per-op costs
as the DES, for any :class:`~repro.core.stencil.StencilSpec` (Listing 2
by default):

1. **Per-core pipeline.**  Each core sweeps its sub-domain in 1024-element
   row chunks (Fig. 6).  The reader, compute and writer baby cores form a
   3-stage pipeline, so the solo iteration time is
   ``max(stages) + overlap_loss · (sum(stages) − max(stages))`` — the
   second term is the CB-stall imperfection calibrated against the paper's
   1.06 GPt/s single-core measurement.  The compute stage issues the
   spec's :meth:`~repro.core.stencil.StencilSpec.tile_ops` per chunk.
2. **Contention.**  Each core's DRAM traffic is one of ``per_col``
   identical flows over its shared physical grid-column uplink and the
   column's fair share of the DRAM banks, so demand-bounded max-min
   fairness has a closed form: each flow gets the smaller of its demand
   and the tighter resource's equal share.
3. **Cards.**  The domain is split in Y across cards and power sums per
   card.  A halo row travels each way per iteration only over a card
   link (``CostModel.card_link_bw``).  The e150 has none (no remote
   memory — the paper notes the multi-card runs skip inter-card halos),
   so its multi-card throughput is additive; the Wormhole projection
   (:data:`repro.perfmodel.wormhole.WORMHOLE_COSTS`) has Ethernet.

Geometry note: the paper places the larger decomposition dimension along
the physical 12-wide grid axis (its "12 cores in Y" exceeds the 10-row
grid height, so Y must map to the width).  We reproduce that rule in
:func:`columns_used`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List

from repro.dtypes.tiles import TILE_ELEMS
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel

__all__ = [
    "KernelPhases",
    "MulticoreResult",
    "JacobiScalingModel",
    "chunk_widths",
    "columns_used",
]

_BF16 = 2  # bytes per element


def chunk_widths(width: int, chunk: int = TILE_ELEMS) -> List[int]:
    """Split a row of ``width`` elements into ≤``chunk``-element batches.

    The optimised kernel (Section VI) works in 1024-element chunks; a
    narrower sub-domain produces one ragged tail chunk, which still costs a
    full FPU tile pass — the source of the X-split inefficiency visible in
    Table VIII.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    full, rem = divmod(width, chunk)
    return [chunk] * full + ([rem] if rem else [])


@functools.lru_cache(maxsize=None)
def _listing2():
    """Listing 2's spec, the one the model prices by default.  Imported
    on first use: :mod:`repro.core` imports this package."""
    from repro.core.stencil import StencilSpec
    return StencilSpec.jacobi()


@dataclass(frozen=True)
class KernelPhases:
    """Per-iteration stage times (seconds) for one core's sub-domain."""

    read: float
    compute: float
    write: float
    read_bytes: int
    write_bytes: int
    points: int

    @property
    def stages(self) -> tuple[float, float, float]:
        return (self.read, self.compute, self.write)

    def solo_iteration_time(self, costs: CostModel) -> float:
        s = self.stages
        top = max(s)
        return top + costs.overlap_loss * (sum(s) - top)

    @property
    def traffic_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


def optimized_kernel_phases(width: int, height: int,
                            costs: CostModel = DEFAULT_COSTS,
                            elem_bytes: int = _BF16,
                            chunk_elems: int = TILE_ELEMS,
                            spec=None) -> KernelPhases:
    """Stage times for the Section-VI kernel on a ``width``×``height`` block.

    Per row the reader fetches each chunk plus its two X halos in one
    contiguous read; the compute core runs ``spec``'s generated pipeline
    (Listing 2's by default: 4 math + 4 pack tile ops) per chunk; the
    writer stores each chunk contiguously (alignment guaranteed by the
    Fig.-5 padding).

    ``elem_bytes``/``chunk_elems`` generalise the datatype: the Grayskull
    runs BF16 (2 B, 1024-element tiles); the Wormhole projection runs
    FP32 (4 B, 512-element tiles — the same 16384-bit FPU width).
    """
    chunks = chunk_widths(width, chunk_elems)
    tile_ops = (spec or _listing2()).tile_ops()
    read_t = compute_t = write_t = 0.0
    read_b = write_b = 0
    for w in chunks:
        rb = (w + 2) * elem_bytes  # chunk + left/right halo elements
        wb = w * elem_bytes
        read_t += costs.core_loop_batch + costs.read_request_time(
            rb, contiguous=True, interleaved=True)
        # the same tile ops regardless of chunk width: a ragged chunk
        # still runs full FPU passes.
        n_tiles = max(1, math.ceil(w / chunk_elems))
        compute_t += costs.core_loop_batch \
            + tile_ops * costs.fpu_op * n_tiles
        write_t += costs.core_loop_batch + costs.write_request_time(
            wb, contiguous=True, interleaved=True)
        read_b += rb
        write_b += wb
    # The rotating 4-batch local buffer re-reads nothing, but the sweep
    # needs the upper and lower halo rows once per column of batches.
    halo_rows = 2
    return KernelPhases(
        read=read_t * (height + halo_rows),
        compute=compute_t * height,
        write=write_t * height,
        read_bytes=read_b * (height + halo_rows),
        write_bytes=write_b * height,
        points=width * height,
    )


def columns_used(cores_y: int, cores_x: int, costs: CostModel) -> int:
    """Physical grid columns occupied by a (cores_y × cores_x) placement.

    The larger decomposition dimension is laid along the 12-wide grid axis
    (required whenever it exceeds the 10-row height, and what the paper's
    geometries imply).
    """
    major, minor = max(cores_y, cores_x), min(cores_y, cores_x)
    if major > costs.grid_height and major > costs.grid_width:
        raise ValueError(
            f"placement {cores_y}x{cores_x} does not fit the "
            f"{costs.grid_width}x{costs.grid_height} grid")
    if cores_x > costs.grid_width or cores_y > costs.grid_height:
        # forced swap: decomposition Y along grid width
        return min(max(cores_y, cores_x), costs.grid_width)
    return cores_x


@dataclass(frozen=True)
class MulticoreResult:
    """Outcome of a modelled multi-core / multi-card stencil run."""

    total_cores: int
    cores_y: int
    cores_x: int
    n_cards: int
    iteration_time_s: float
    solve_time_s: float
    gpts: float
    energy_j: float
    power_w: float
    column_bound: bool


class JacobiScalingModel:
    """Analytic performance/energy model of the Section-VI stencil family
    (Table VIII configurations and ``stencil9``)."""

    def __init__(self, costs: CostModel = DEFAULT_COSTS):
        self.costs = costs

    def _split(self, n: int, parts: int) -> int:
        """Largest share when ``n`` is split as evenly as possible."""
        return math.ceil(n / parts)

    def run(self, width: int, height: int, iterations: int,
            cores_y: int, cores_x: int, n_cards: int = 1,
            dtype: str = "bf16", spec=None) -> MulticoreResult:
        """Model a stencil solve decomposed over a core grid and cards.

        ``width``/``height`` are the global domain in elements;
        ``cores_y``/``cores_x`` is the core grid of one card.  With
        ``n_cards > 1`` the domain is split in Y across cards, exactly
        like the paper's four-card experiment; each iteration then
        exchanges one halo row each way over the card link, if the cost
        model has one.  ``dtype`` (``"bf16"`` or ``"fp32"``) sets the
        element size and the FPU tile width, as ``StencilRunner(dtype=)``
        does in the DES.  ``spec`` is the
        :class:`~repro.core.stencil.StencilSpec` swept (default Listing
        2's Jacobi).
        """
        c = self.costs
        if dtype not in ("bf16", "fp32"):
            raise ValueError("dtype must be 'bf16' or 'fp32'")
        if cores_y * cores_x > c.n_worker_cores:
            raise ValueError(
                f"{cores_y}x{cores_x} exceeds {c.n_worker_cores} worker cores")
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        elem_bytes = _BF16 if dtype == "bf16" else 4
        # one FPU tile: 1024 BF16 or 512 FP32 elements (16384 bits)
        chunk = TILE_ELEMS * _BF16 // elem_bytes

        card_height = self._split(height, n_cards)
        wx = self._split(width, cores_x)
        wy = self._split(card_height, cores_y)
        phases = optimized_kernel_phases(wx, wy, c, elem_bytes=elem_bytes,
                                         chunk_elems=chunk, spec=spec)
        solo_iter = phases.solo_iteration_time(c)
        demand = phases.traffic_bytes / solo_iter  # bytes/s per core

        n_cols = columns_used(cores_y, cores_x, c)
        total = cores_y * cores_x
        per_col = self._split(total, n_cols)

        # The column's cores are per_col identical flows over its uplink
        # and its fair share of the banks: max-min fairness gives each the
        # smaller of its demand and the tighter resource's equal share.
        rate = min(demand,
                   min(c.noc_column_bw, c.noc_aggregate_bw / n_cols) / per_col)
        column_bound = rate < demand * (1 - 1e-9)

        iter_time = phases.traffic_bytes / rate if column_bound else solo_iter
        if n_cards > 1 and c.card_link_bw:
            # One halo row each way per iteration over the card link,
            # overlapping nothing (conservative).
            halo_bytes = 2 * width * elem_bytes
            iter_time += halo_bytes / c.card_link_bw + 2 * c.card_link_latency
        # One global iteration completes when the slowest core finishes.
        solve_time = iter_time * iterations
        points = width * height
        gpts = points * iterations / solve_time / 1e9
        power = c.card_power_w(total) * n_cards
        energy = solve_time * power
        return MulticoreResult(
            total_cores=total * n_cards,
            cores_y=cores_y,
            cores_x=cores_x,
            n_cards=n_cards,
            iteration_time_s=iter_time,
            solve_time_s=solve_time,
            gpts=gpts,
            energy_j=energy,
            power_w=power,
            column_bound=column_bound,
        )

"""Calibrated roofline/energy estimates for the :mod:`repro.ops` library.

Each op gets a closed-form estimate built from the same
:class:`~repro.perfmodel.calibration.CostModel` constants that drive the
simulator: FPU throughput from ``fpu_op`` (75 ns per tile operation),
memory movement from the NoC/DRAM request model, and energy from the
measured card power curve.  The matmul and FFT estimates mirror the
structure of :class:`~repro.perfmodel.scaling.JacobiScalingModel` — a
compute term and a memory term joined by the overlap-loss factor — so
per-op ``% of roofline`` numbers in the README table are comparable.
``stencil9`` runs on the stencil family, so its estimate *is* that
model, priced for its spec.

Each estimator is registered as its op's ``OpSpec.estimate``
(:mod:`repro.ops.registry`), which is how ``repro.serve`` prices the
device service time of a non-Jacobi request.  This module does not
import :mod:`repro.ops`, so the op modules can import it at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.perfmodel.scaling import JacobiScalingModel, optimized_kernel_phases

__all__ = [
    "OpEstimate",
    "matmul_estimate",
    "fft_estimate",
    "stencil_estimate",
]

#: elements along one tile edge; one FPU tile op touches a 32x32 tile.
TILE_DIM = 32


@dataclass(frozen=True)
class OpEstimate:
    """Roofline decomposition of one op execution."""

    op: str
    cores: Tuple[int, int]
    flops: float            #: floating point operations (padded work)
    bytes_in: int           #: DRAM -> L1 traffic
    bytes_out: int          #: L1 -> DRAM traffic
    compute_s: float        #: FPU-bound time at calibrated tile-op rate
    memory_s: float         #: data-movement time (requests + bandwidth)
    time_s: float           #: modelled wall time (overlap-loss combined)
    roofline_s: float       #: max(compute, memory) — the ideal bound
    gflops: float           #: flops / time_s / 1e9
    roofline_gflops: float  #: flops / roofline_s / 1e9
    roofline_frac: float    #: roofline_s / time_s
    power_w: float          #: card power at this core count
    energy_j: float         #: power_w * time_s

    def to_row(self) -> dict:
        return {
            "op": self.op, "cores": list(self.cores),
            "flops": self.flops, "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out, "compute_s": self.compute_s,
            "memory_s": self.memory_s, "time_s": self.time_s,
            "gflops": self.gflops, "roofline_gflops": self.roofline_gflops,
            "roofline_frac": self.roofline_frac, "energy_j": self.energy_j,
        }


def _finish(op: str, cores: Tuple[int, int], flops: float, bytes_in: int,
            bytes_out: int, compute_s: float, memory_s: float,
            costs: CostModel, time_s: Optional[float] = None) -> OpEstimate:
    """Combine the two phases the way the scaling model does, unless the
    modelled ``time_s`` is given."""
    roofline_s = max(compute_s, memory_s)
    if time_s is None:
        time_s = roofline_s + costs.overlap_loss * min(compute_s, memory_s)
    n_cores = cores[0] * cores[1]
    power = costs.card_power_w(n_cores)
    return OpEstimate(
        op=op, cores=cores, flops=flops, bytes_in=bytes_in,
        bytes_out=bytes_out, compute_s=compute_s, memory_s=memory_s,
        time_s=time_s, roofline_s=roofline_s,
        gflops=flops / time_s / 1e9 if time_s else 0.0,
        roofline_gflops=flops / roofline_s / 1e9 if roofline_s else 0.0,
        roofline_frac=roofline_s / time_s if time_s else 1.0,
        power_w=power, energy_j=power * time_s)


def _move_time(nbytes: int, pages: int, costs: CostModel,
               read: bool) -> float:
    """Request-issue plus bandwidth time for one core's DRAM traffic."""
    if read:
        issue = pages * (costs.read_issue + costs.page_overhead_read) \
            + costs.read_latency
    else:
        issue = pages * (costs.write_issue + costs.page_overhead_write) \
            + costs.write_latency
    return issue + nbytes / costs.noc_link_bw_interleaved


def matmul_estimate(problem, cores: Tuple[int, int],
                    costs: CostModel = DEFAULT_COSTS) -> OpEstimate:
    """Blocked SRAM matmul: one ``matmul_tiles`` per (i,j,k) tile triple."""
    cy, cx = cores
    mt, kt, nt = problem.mt, problem.kt, problem.nt
    tile_b = TILE_DIM * TILE_DIM * 2
    # slowest core bounds the program: ceil shares of the output grid
    my = -(-mt // cy)
    nx = -(-nt // cx)
    tile_ops = my * nx * kt + my * nx            # matmuls + packs
    compute_s = tile_ops * costs.fpu_op
    in_pages = my * kt + kt * nx
    out_pages = my * nx
    memory_s = _move_time(in_pages * tile_b, in_pages, costs, read=True) \
        + _move_time(out_pages * tile_b, out_pages, costs, read=False)
    flops = problem.flops()
    return _finish("matmul", cores, flops,
                   (mt * kt + kt * nt) * tile_b, mt * nt * tile_b,
                   compute_s, memory_s, costs)


def fft_estimate(problem, cores: Tuple[int, int],
                 costs: CostModel = DEFAULT_COSTS) -> OpEstimate:
    """Radix-2 pencils: 10 elementwise tile ops (and packs) per butterfly."""
    import numpy as np
    cy, cx = cores
    n, batch = problem.n, problem.batch
    n_cores = cy * cx
    bc = -(-batch // n_cores)                    # slowest core's share
    stages = int(np.log2(n))
    butterflies = (n // 2) * stages
    tile_ops = butterflies * 10 * 2              # op + lossless fp32 pack
    compute_s = tile_ops * costs.fpu_op
    rb = bc * 4
    in_rows, out_rows = 3 * n, 2 * n             # x + twiddles in, x out
    memory_s = _move_time(in_rows * rb, in_rows, costs, read=True) \
        + _move_time(out_rows * rb, out_rows, costs, read=False)
    flops = problem.flops()
    plane = n * batch * 4
    return _finish("fft", cores, flops, 3 * plane, 2 * plane,
                   compute_s, memory_s, costs)


def stencil_estimate(problem, cores: Tuple[int, int],
                     costs: CostModel = DEFAULT_COSTS) -> OpEstimate:
    """``stencil9``: ``problem.iters`` sweeps of ``problem.spec`` over an
    ``ny x nx`` interior, priced by the stencil family's one closed form.

    Time is :meth:`JacobiScalingModel.run`'s.  Compute and memory are the
    slowest core's FPU stage and its slower data mover, whose larger is
    the pipeline's ideal bound; the bytes count every core.
    """
    cy, cx = cores
    spec, iters = problem.spec, problem.iters
    ph = optimized_kernel_phases(-(-problem.nx // cx), -(-problem.ny // cy),
                                 costs, spec=spec)
    time_s = JacobiScalingModel(costs).run(problem.nx, problem.ny, iters,
                                           cy, cx, spec=spec).solve_time_s
    n = cy * cx * iters
    return _finish("stencil9", cores, problem.flops(), ph.read_bytes * n,
                   ph.write_bytes * n, ph.compute * iters,
                   max(ph.read, ph.write) * iters, costs, time_s)

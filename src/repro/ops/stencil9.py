"""9-point stencil on the Jacobi decomposition machinery.

The update is the 9-point relaxation

``u' = 0.2*(N + S + E + W) + 0.05*(NW + NE + SW + SE)``

(axial weight 1/5, diagonal 1/20, both exactly representable in BF16;
the weights sum to 1 so boundary-driven steady states are preserved,
like the paper's 5-point Jacobi).  The DRAM image is the same
:class:`~repro.core.grid.AlignedDomain` padded layout as the Jacobi
kernels, ping-ponged between two buffers across iterations, and the
interior is carved over cores with
:func:`~repro.core.decomposition.split_domain` — including genuine 2D
decompositions, which the 5-point SRAM kernel never exercised.

Determinism: every intermediate of the 9-term chain passes through a
BF16 pack, so the device arithmetic is a fixed elementwise sequence of
float32 adds and multiplies, each rounded to BF16.
:func:`stencil9_reference_bits` replays that sequence vectorised over
the whole grid; because the sequence is elementwise, the readback is
**bit-identical for every decomposition** — the property the
differential tests pin across 1D row, 1D column and 2D tilings.

DRAM-alignment rule: with ``cores_x > 1`` several cores write segments
of the same padded row concurrently, and the simulated controller
corrupts non-contiguous unaligned writes (paper Section IV).  Each
core's column offset must therefore start on a 32-byte boundary —
``run_stencil9`` validates that the x-split lands on 16-element
multiples and says so if it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.sram import SramExhausted
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.core.decomposition import split_domain
from repro.core.grid import AlignedDomain, LaplaceProblem
from repro.dtypes.bf16 import (
    bf16_round,
    bf16_round_inplace,
    bits_to_f32,
    f32_to_bits,
)
from repro.ops.registry import (
    OpCheckError,
    OpRunResult,
    OpSpec,
    register,
    sha16,
)
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.perfmodel.ops import stencil9_estimate
from repro.sim.resources import Semaphore
from repro.ttmetal import (
    CreateCircularBuffer,
    CreateKernel,
    EnqueueProgram,
    EnqueueReadBuffer,
    EnqueueWriteBuffer,
    Finish,
    Program,
    create_buffer,
)

__all__ = [
    "Stencil9Problem",
    "AXIAL_W",
    "DIAG_W",
    "stencil9_reference_bits",
    "run_stencil9",
]

AXIAL_W = 0.2     #: N/S/E/W weight (exact in BF16)
DIAG_W = 0.05     #: corner weight (exact in BF16)

CB_A, CB_B = 0, 1          #: operand aliases into the L1 row slab
CB_C1, CB_C2 = 4, 5        #: scalar CBs holding the two weights
CB_OUT0 = 16               #: compute -> writer row pipeline
CB_I = 24                  #: alias used to pack intermediates in place

BF16_BYTES = 2


@dataclass(frozen=True)
class Stencil9Problem:
    """``iters`` sweeps of the 9-point update over a seeded interior."""

    nx: int
    ny: int
    iters: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.nx % 32:
            raise ValueError(
                f"nx must be a multiple of 32 (tile width), got {self.nx}")
        if self.ny < 1 or self.iters < 1:
            raise ValueError("ny and iters must be >= 1")

    def flops(self) -> float:
        """9 elementwise tile-op lanes per point per sweep."""
        return 9.0 * self.nx * self.ny * self.iters

    def laplace(self) -> LaplaceProblem:
        return LaplaceProblem(nx=self.nx, ny=self.ny)

    def halo_grid_bits(self) -> np.ndarray:
        """Initial ``(ny+2, nx+2)`` halo grid: Laplace boundary values
        around a seeded random BF16 interior."""
        g = self.laplace().initial_grid_bf16().copy()
        rng = np.random.default_rng(self.seed)
        g[1:-1, 1:-1] = f32_to_bits(
            rng.random((self.ny, self.nx)).astype(np.float32))
        return g


# -- host reference ----------------------------------------------------------

def stencil9_reference_bits(halo_bits: np.ndarray, iters: int) -> np.ndarray:
    """Replay the device's BF16 op sequence over the whole halo grid.

    Bit-identical to the device readback for every core decomposition
    (the chain is elementwise, so tiling cannot change any value).  The
    grid stays in float32 between packs: each op rounds in place where
    the device packs, with the device's operand order, and the interior
    is packed once at the end.
    """
    g = np.asarray(halo_bits, dtype=np.uint16).copy()
    if iters <= 0:
        return g
    u = bits_to_f32(g)
    w, e = u[1:-1, :-2], u[1:-1, 2:]
    n, s = u[:-2, 1:-1], u[2:, 1:-1]
    nw, ne = u[:-2, :-2], u[:-2, 2:]
    sw, se = u[2:, :-2], u[2:, 2:]
    c1 = bf16_round(np.float32(AXIAL_W))
    c2 = bf16_round(np.float32(DIAG_W))
    ax, dg = np.empty_like(w), np.empty_like(w)
    out = u[1:-1, 1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            bf16_round_inplace(np.add(w, e, out=ax))
            bf16_round_inplace(np.add(ax, n, out=ax))
            bf16_round_inplace(np.add(ax, s, out=ax))
            bf16_round_inplace(np.add(nw, ne, out=dg))
            bf16_round_inplace(np.add(dg, sw, out=dg))
            bf16_round_inplace(np.add(dg, se, out=dg))
            bf16_round_inplace(np.multiply(ax, c1, out=ax))
            bf16_round_inplace(np.multiply(dg, c2, out=dg))
            bf16_round_inplace(np.add(ax, dg, out=out))
    g[1:-1, 1:-1] = f32_to_bits(out)
    return g


def _interior_reference(problem: Stencil9Problem) -> np.ndarray:
    """The reference sweep's interior: what the device reads back."""
    return stencil9_reference_bits(problem.halo_grid_bits(),
                                   problem.iters)[1:-1, 1:-1]


# -- device kernels ----------------------------------------------------------

def _s9_reader(ctx):
    """dm0: per sweep, load the (sub_ny+2) x (sub_nx+2) input block."""
    plan = ctx.arg("plan")
    layout = ctx.arg("layout")
    bufs = (ctx.arg("buf0"), ctx.arg("buf1"))
    iters = ctx.arg("iters")
    n_cores = ctx.arg("n_cores")
    irb = (plan["nx"] + 2) * BF16_BYTES
    for k in range(1, iters + 1):
        if k > 1:
            # all writers finished sweep k-1 ...
            yield from ctx.semaphore_wait(ctx.arg("done_barrier"),
                                          n_cores * (k - 1))
            # ... and our compute no longer needs the previous block
            yield from ctx.semaphore_wait(ctx.arg("consumed"), k - 1)
        src = bufs[(k - 1) % 2]
        for r in range(plan["ny"] + 2):
            off = layout.stencil_row_offset(plan["y0"] + r, plan["x0"])
            slack = off % 32      # DRAM reads must be 32-byte aligned
            yield from ctx.noc_read_buffer(src, off - slack,
                                           plan["scratch"], irb + slack)
            yield from ctx.noc_async_read_barrier()
            yield from ctx.memcpy(plan["slab"] + r * irb,
                                  plan["scratch"] + slack, irb)
        yield from ctx.semaphore_inc(ctx.arg("loaded"), 1)
        yield from ctx.semaphore_inc(ctx.arg("load_barrier"), 1)


def _s9_compute(ctx):
    """Nine elementwise tile ops per output row, all through BF16."""
    plan = ctx.arg("plan")
    iters = ctx.arg("iters")
    nx = plan["nx"]
    irb = (nx + 2) * BF16_BYTES
    s_row, d_row = plan["scr"], plan["scr"] + nx * BF16_BYTES
    for cb, w in ((CB_C1, AXIAL_W), (CB_C2, DIAG_W)):
        yield from ctx.cb_reserve_back(cb, 1)
        yield from ctx.l1_store_u16(
            ctx.cb_write_ptr(cb),
            np.full(nx, f32_to_bits(np.float32(w)), dtype=np.uint16))
        yield from ctx.cb_push_back(cb, 1)
        yield from ctx.cb_wait_front(cb, 1)

    def binop(op, a, b, out):
        yield from ctx.cb_set_rd_ptrs((CB_A, a), (CB_B, b))
        yield from op(CB_A, CB_B, 0, 0, 0)
        yield from ctx.cb_set_wr_ptr(CB_I, out)
        yield from ctx.pack_tile(0, CB_I)

    for k in range(1, iters + 1):
        yield from ctx.semaphore_wait(ctx.arg("loaded"), k)
        yield from ctx.tile_regs_acquire()
        for i in range(plan["ny"]):
            up = plan["slab"] + i * irb
            mid, dn = up + irb, up + 2 * irb
            yield from binop(ctx.add_tiles, mid, mid + 4, s_row)
            yield from binop(ctx.add_tiles, s_row, up + 2, s_row)
            yield from binop(ctx.add_tiles, s_row, dn + 2, s_row)
            yield from binop(ctx.add_tiles, up, up + 4, d_row)
            yield from binop(ctx.add_tiles, d_row, dn, d_row)
            yield from binop(ctx.add_tiles, d_row, dn + 4, d_row)
            yield from ctx.cb_set_rd_ptr(CB_A, s_row)
            yield from ctx.mul_tiles(CB_A, CB_C1, 0, 0, 0)
            yield from ctx.cb_set_wr_ptr(CB_I, s_row)
            yield from ctx.pack_tile(0, CB_I)
            yield from ctx.cb_set_rd_ptr(CB_A, d_row)
            yield from ctx.mul_tiles(CB_A, CB_C2, 0, 0, 0)
            yield from ctx.cb_set_wr_ptr(CB_I, d_row)
            yield from ctx.pack_tile(0, CB_I)
            yield from ctx.cb_set_rd_ptrs((CB_A, s_row), (CB_B, d_row))
            yield from ctx.add_tiles(CB_A, CB_B, 0, 0, 0)
            yield from ctx.cb_reserve_back(CB_OUT0, 1)
            yield from ctx.pack_tile(0, CB_OUT0)
            yield from ctx.cb_push_back(CB_OUT0, 1)
        yield from ctx.tile_regs_release()
        yield from ctx.semaphore_inc(ctx.arg("consumed"), 1)


def _s9_writer(ctx):
    """dm1: stream finished rows to the sweep's destination buffer."""
    plan = ctx.arg("plan")
    layout = ctx.arg("layout")
    bufs = (ctx.arg("buf0"), ctx.arg("buf1"))
    iters = ctx.arg("iters")
    n_cores = ctx.arg("n_cores")
    nxb = plan["nx"] * BF16_BYTES
    for k in range(1, iters + 1):
        # the destination buffer is the sweep-(k-1) readers' source;
        # wait until every core has loaded before overwriting it
        yield from ctx.semaphore_wait(ctx.arg("load_barrier"),
                                      n_cores * (k - 1))
        dst = bufs[k % 2]
        for i in range(plan["ny"]):
            yield from ctx.cb_wait_front(CB_OUT0, 1)
            off = layout.elem_offset(plan["y0"] + i + 1, plan["x0"])
            yield from ctx.noc_write_buffer(dst, off,
                                            ctx.cb_read_ptr(CB_OUT0), nxb)
            yield from ctx.noc_async_write_barrier()
            yield from ctx.cb_pop_front(CB_OUT0, 1)
        yield from ctx.semaphore_inc(ctx.arg("done_barrier"), 1)


# -- host driver -------------------------------------------------------------

def run_stencil9(problem: Stencil9Problem, cores: Tuple[int, int] = (1, 1),
                 device: Optional[GrayskullDevice] = None,
                 check: bool = True,
                 costs: CostModel = DEFAULT_COSTS) -> OpRunResult:
    """Execute the stencil on the simulated e150 and check readback."""
    cy, cx = cores
    n_cores = cy * cx
    dev = device or GrayskullDevice(costs, dram_bank_capacity=64 << 20)

    layout = AlignedDomain(problem.laplace())
    img = layout.pack(problem.halo_grid_bits())
    buf0 = create_buffer(dev, layout.nbytes, interleaved=True,
                         page_size=32 << 10)
    buf1 = create_buffer(dev, layout.nbytes, interleaved=True,
                         page_size=32 << 10)
    # both buffers carry the boundary rows/pads the writers never touch
    t_in = EnqueueWriteBuffer(dev, buf0, img)
    t_in += EnqueueWriteBuffer(dev, buf1, img)

    shares = split_domain(nx=problem.nx, ny=problem.ny, cores_y=cy,
                          cores_x=cx)
    for row in shares:
        for sub in row:
            if sub.x0 % 16:
                raise ValueError(
                    f"core ({sub.iy},{sub.ix}) x-offset {sub.x0} is not a "
                    "multiple of 16 elements: concurrent writes would "
                    "share a 32-byte DRAM word and corrupt — pick cores_x "
                    f"so {problem.nx} splits on 16-element boundaries")

    grid = dev.worker_grid(cy, cx)
    budget = dev.costs.sram_bytes - 96 * 1024
    prog = Program(dev)
    done_barrier = Semaphore(dev.sim, 0, name="s9_done_barrier")
    load_barrier = Semaphore(dev.sim, 0, name="s9_load_barrier")
    for iy in range(cy):
        for ix in range(cx):
            core = grid[iy][ix]
            sub = shares[iy][ix]
            irb = (sub.nx + 2) * BF16_BYTES
            need = (sub.ny + 2) * irb + 2 * sub.nx * BF16_BYTES \
                + irb + 32 + 4 * sub.nx * BF16_BYTES
            if need > budget:
                raise SramExhausted(
                    f"core ({iy},{ix}) needs {need} B of L1 for its "
                    f"{sub.ny}x{sub.nx} block; only ~{budget} B available "
                    "— use more cores or a smaller interior")
            plan = {
                "y0": sub.y0, "x0": sub.x0, "ny": sub.ny, "nx": sub.nx,
                "slab": core.allocate_l1((sub.ny + 2) * irb, align=32),
                "scr": core.allocate_l1(2 * sub.nx * BF16_BYTES, align=32),
                "scratch": core.allocate_l1(irb + 32, align=32),
            }
            nxb = sub.nx * BF16_BYTES
            for cb in (CB_A, CB_B, CB_C1, CB_C2, CB_I):
                CreateCircularBuffer(prog, core, cb, nxb, 1)
            CreateCircularBuffer(prog, core, CB_OUT0, nxb, 2)
            common = dict(
                buf0=buf0, buf1=buf1, plan=plan, layout=layout,
                iters=problem.iters, n_cores=n_cores,
                done_barrier=done_barrier, load_barrier=load_barrier,
                loaded=Semaphore(dev.sim, 0, name=f"s9_loaded_{iy}_{ix}"),
                consumed=Semaphore(dev.sim, 0,
                                   name=f"s9_consumed_{iy}_{ix}"))
            CreateKernel(prog, _s9_reader, core, DATA_MOVER_0, common)
            CreateKernel(prog, _s9_compute, core, COMPUTE, common)
            CreateKernel(prog, _s9_writer, core, DATA_MOVER_1, common)

    EnqueueProgram(dev, prog)
    kernel_time = Finish(dev)
    fpu_ops = sum(grid[iy][ix].fpu.ops for iy in range(cy)
                  for ix in range(cx))

    t0 = dev.sim.now
    raw = EnqueueReadBuffer(dev, buf0 if problem.iters % 2 == 0 else buf1)
    t_out = dev.sim.now - t0
    out_bits = layout.unpack(raw.view("<u2"))[1:-1, 1:-1]

    detail = "unchecked"
    if check:
        ref = _interior_reference(problem)
        if not np.array_equal(out_bits, ref):
            bad = int(np.count_nonzero(out_bits != ref))
            raise OpCheckError(
                f"stencil9 {problem.ny}x{problem.nx} iters={problem.iters} "
                f"on {cy}x{cx} cores: {bad} of {ref.size} interior points "
                "differ from the BF16 reference")
        detail = "bit-exact"

    return OpRunResult(
        op="stencil9", cores=(cy, cx),
        params={"nx": problem.nx, "ny": problem.ny,
                "iters": problem.iters, "seed": problem.seed},
        kernel_time_s=kernel_time, transfer_time_s=t_in + t_out,
        energy_j=dev.energy.energy_j, checked=check, check_detail=detail,
        output_sha=sha16(out_bits), fpu_ops=fpu_ops, output=out_bits)


def _make_problem(size: int, seed: int = 0, **kw) -> Stencil9Problem:
    return Stencil9Problem(nx=size, ny=kw.get("ny", size),
                           iters=kw.get("iters", 2), seed=seed)


register(OpSpec(
    name="stencil9",
    summary="9-point relaxation on the AlignedDomain ping-pong layout, "
            "bit-identical across 1D and 2D decompositions",
    make_problem=_make_problem,
    run=run_stencil9,
    reference=_interior_reference,
    estimate=stencil9_estimate,
    # an ``ny x nx`` interior relaxed for ``iterations`` sweeps, run once
    serve_problem=lambda nx, ny, iterations: (
        Stencil9Problem(nx=nx, ny=ny, iters=iterations), 1),
    # one padded halo grid in, one out
    pcie_bytes=lambda p: 2 * (p.nx + 2) * (p.ny + 2) * BF16_BYTES,
    # round up to a multiple of the 32-element tile width
    snap_nx=lambda nx: -(-nx // 32) * 32,
))

"""SRAM-resident Jacobi: the paper's sketched next architecture.

Section VIII: "We might also be able to obtain improved scaling across
the Tensix cores by first copying the domain into local SRAM and
operating from there, although this would limit the size of the domain
and require direct neighbour to neighbour communications."

This module builds exactly that:

* each core holds its sub-domain **entirely in L1** as two ping-pong
  slabs (u^k / u^{k+1});
* per iteration the compute core sweeps its slab with the usual
  Listing-2 FPU chain, reading via ``cb_set_rd_ptr`` aliases and packing
  *straight into the other slab* via the ``cb_set_wr_ptr`` alias — the
  CB-aliasing flexibility the paper's conclusions recommend adding to
  tt-metal;
* halo rows travel core-to-core over the NoC (``noc_sram_write``), never
  touching DRAM;
* DRAM is used exactly twice: the initial load and the final write-back.

The domain is decomposed across cores in Y (the configuration the paper
sketches).  Capacity: two slabs of ``(ny_local+2) x (nx+2)`` BF16
elements must fit the 1 MB L1, e.g. 108 cores hold up to ~25 M elements
card-wide.

Synchronisation: a global semaphore counts core milestones (initial load
+ each finished iteration); per-core halo semaphores count deliveries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.sram import SramExhausted
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.core.decomposition import split_extent
from repro.core.grid import AlignedDomain, LaplaceProblem
from repro.core.jacobi_initial import DeviceRunResult, simulated_iterations
from repro.dtypes.bf16 import BF16_BYTES, f32_to_bits
from repro.dtypes.tiles import TILE_ELEMS
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

__all__ = ["SramJacobiRunner"]

CB_IN0, CB_IN1, CB_IN2, CB_IN3 = 0, 1, 2, 3
CB_SCALAR = 4
CB_OUT0 = 16
CB_INTERMED = 24


@dataclass
class _CorePlan:
    """Per-core geometry: slab addresses and neighbour wiring."""

    index: int
    y0: int               #: first interior row (global)
    ny: int               #: interior rows held
    slab: List[int]       #: two slab base addresses
    row_stride: int       #: bytes between slab rows
    halo_sem: Semaphore   #: counts halo deliveries to this core
    up: Optional["_CorePlan"] = None
    down: Optional["_CorePlan"] = None

    @property
    def n_neighbors(self) -> int:
        return (self.up is not None) + (self.down is not None)

    def row_addr(self, k: int, local_halo_row: int) -> int:
        return self.slab[k % 2] + local_halo_row * self.row_stride


def _reader_kernel(ctx):
    """dm0: fill scalar CB, load the slab from DRAM, send halos per iter."""
    layout: AlignedDomain = ctx.arg("layout")
    plan: _CorePlan = ctx.arg("plan")
    src = ctx.arg("src")
    iterations: int = ctx.arg("iterations")
    barrier: Semaphore = ctx.arg("barrier")
    n_cores: int = ctx.arg("n_cores")
    nx: int = ctx.arg("nx")
    align = ctx.costs.dram_alignment
    row_bytes = (nx + 2) * BF16_BYTES

    # 0.25 constant
    yield from ctx.cb_reserve_back(CB_SCALAR, 1)
    page_elems = ctx.core.cbs[CB_SCALAR].page_size // 2
    yield from ctx.l1_store_u16(
        ctx.cb_write_ptr(CB_SCALAR),
        np.full(page_elems, f32_to_bits(0.25), dtype=np.uint16))
    yield from ctx.cb_push_back(CB_SCALAR, 1)

    # Initial load: every halo row of the sub-domain into BOTH slabs (the
    # fixed x-boundary columns and global top/bottom rows must exist in
    # each; interior rows of slab 1 are overwritten by iteration 1).
    scratch = ctx.core.sram.allocate(row_bytes + align, align=32)
    for r in range(plan.ny + 2):
        off = layout.stencil_row_offset(plan.y0 + r, 0)
        slack = off % align
        yield from ctx.noc_read_buffer(src, off - slack, scratch,
                                       row_bytes + slack)
        yield from ctx.noc_async_read_barrier()
        for k in (0, 1):
            yield from ctx.memcpy(plan.row_addr(k, r), scratch + slack,
                                  row_bytes)
    yield from ctx.semaphore_inc(barrier, 1)  # "loaded" milestone

    # Per iteration: once everyone has u^{k-1}, ship edge rows of
    # slab(k-1) into the neighbours' slab(k-1) halo rows.
    for k in range(1, iterations + 1):
        yield from ctx.semaphore_wait(barrier, n_cores * k)
        if plan.up is not None:
            yield from ctx.noc_sram_write(
                ctx.arg("cores")[plan.up.index],
                plan.up.row_addr(k - 1, plan.up.ny + 1),
                plan.row_addr(k - 1, 1), row_bytes)
            yield from ctx.noc_async_write_barrier()
            yield from ctx.semaphore_inc(plan.up.halo_sem, 1)
        if plan.down is not None:
            yield from ctx.noc_sram_write(
                ctx.arg("cores")[plan.down.index],
                plan.down.row_addr(k - 1, 0),
                plan.row_addr(k - 1, plan.ny), row_bytes)
            yield from ctx.noc_async_write_barrier()
            yield from ctx.semaphore_inc(plan.down.halo_sem, 1)


def _compute_kernel(ctx):
    """Sweep the slab with the Listing-2 chain; output via wr-ptr alias."""
    plan: _CorePlan = ctx.arg("plan")
    iterations: int = ctx.arg("iterations")
    barrier: Semaphore = ctx.arg("barrier")
    nx: int = ctx.arg("nx")
    dst0 = 0
    chunks = []
    x = 0
    while x < nx:
        w = min(TILE_ELEMS, nx - x)
        chunks.append((x, w))
        x += w

    n_cores: int = ctx.arg("n_cores")
    yield from ctx.cb_wait_front(CB_SCALAR, 1)
    yield from ctx.tile_regs_acquire()
    for k in range(1, iterations + 1):
        # everyone (including this core's own dm0 load) done with u^{k-1}?
        yield from ctx.semaphore_wait(barrier, n_cores * k)
        # halos of u^{k-1} delivered?
        yield from ctx.semaphore_wait(plan.halo_sem,
                                      plan.n_neighbors * k)
        for r in range(plan.ny):
            prev = plan.row_addr(k - 1, r)
            cur = plan.row_addr(k - 1, r + 1)
            nxt = plan.row_addr(k - 1, r + 2)
            out = plan.row_addr(k, r + 1)
            for x0, w in chunks:
                xb = x0 * BF16_BYTES
                yield from ctx.cb_set_rd_ptr(CB_IN0, cur + xb)          # x-1
                yield from ctx.cb_set_rd_ptr(CB_IN1, cur + xb + 4)      # x+1
                yield from ctx.cb_set_rd_ptr(CB_IN2, prev + xb + 2)     # y-1
                yield from ctx.cb_set_rd_ptr(CB_IN3, nxt + xb + 2)      # y+1
                yield from ctx.cb_set_wr_ptr(CB_OUT0, out + xb + 2)

                yield from ctx.add_tiles(CB_IN0, CB_IN1, 0, 0, dst0)
                yield from ctx.cb_reserve_back(CB_INTERMED, 1)
                yield from ctx.pack_tile(dst0, CB_INTERMED)
                yield from ctx.cb_push_back(CB_INTERMED, 1)
                yield from ctx.cb_wait_front(CB_INTERMED, 1)
                yield from ctx.add_tiles(CB_IN2, CB_INTERMED, 0, 0, dst0)
                yield from ctx.cb_pop_front(CB_INTERMED, 1)
                yield from ctx.cb_reserve_back(CB_INTERMED, 1)
                yield from ctx.pack_tile(dst0, CB_INTERMED)
                yield from ctx.cb_push_back(CB_INTERMED, 1)
                yield from ctx.cb_wait_front(CB_INTERMED, 1)
                yield from ctx.add_tiles(CB_IN3, CB_INTERMED, 0, 0, dst0)
                yield from ctx.cb_pop_front(CB_INTERMED, 1)
                yield from ctx.cb_reserve_back(CB_INTERMED, 1)
                yield from ctx.pack_tile(dst0, CB_INTERMED)
                yield from ctx.cb_push_back(CB_INTERMED, 1)
                yield from ctx.cb_wait_front(CB_INTERMED, 1)
                yield from ctx.mul_tiles(CB_SCALAR, CB_INTERMED, 0, 0, dst0)
                yield from ctx.cb_pop_front(CB_INTERMED, 1)
                yield from ctx.pack_tile(dst0, CB_OUT0)  # straight to slab
        yield from ctx.semaphore_inc(barrier, 1)
    yield from ctx.tile_regs_release()


def _writer_kernel(ctx):
    """dm1: after the last iteration, write the slab interior to DRAM."""
    layout: AlignedDomain = ctx.arg("layout")
    plan: _CorePlan = ctx.arg("plan")
    dst = ctx.arg("dst")
    iterations: int = ctx.arg("iterations")
    barrier: Semaphore = ctx.arg("barrier")
    n_cores: int = ctx.arg("n_cores")
    nx: int = ctx.arg("nx")

    yield from ctx.semaphore_wait(barrier, n_cores * (iterations + 1))
    for r in range(plan.ny):
        src_l1 = plan.row_addr(iterations, r + 1) + 2  # skip x halo
        off = layout.elem_offset(plan.y0 + r + 1, 0)
        yield from ctx.noc_write_buffer(dst, off, src_l1, nx * BF16_BYTES)
    yield from ctx.noc_async_write_barrier()


class SramJacobiRunner:
    """Host driver for the SRAM-resident, neighbour-communicating solver."""

    def __init__(self, device: GrayskullDevice, problem: LaplaceProblem,
                 cores_y: int = 1):
        self.device = device
        self.problem = problem
        self.cores_y = cores_y
        self.layout = AlignedDomain(problem)
        if cores_y <= 0:
            raise ValueError("cores_y must be positive")
        if cores_y > problem.ny:
            raise ValueError("more cores than rows")
        if problem.nx > TILE_ELEMS and problem.nx % TILE_ELEMS:
            raise ValueError(
                f"nx must be <= {TILE_ELEMS} or a multiple of it (ragged "
                "chunks cannot share the fixed CB page size)")
        # capacity check: two slabs must fit beside the CBs
        max_rows = math.ceil(problem.ny / cores_y) + 2
        stride = ((problem.nx + 2) * BF16_BYTES + 31) // 32 * 32
        need = 2 * max_rows * stride
        budget = device.costs.sram_bytes - 96 * 1024  # CBs + reserved
        if need > budget:
            raise SramExhausted(
                f"sub-domain needs {need} B of L1 for two slabs; only "
                f"~{budget} B available — use more cores or a smaller "
                "domain (the limitation the paper predicts)")

    def run(self, iterations: int,
            sim_iterations: Optional[int] = None,
            read_back: bool = True) -> DeviceRunResult:
        sim_iters = simulated_iterations(iterations, sim_iterations)
        dev = self.device
        nx, ny = self.problem.nx, self.problem.ny
        img = self.layout.pack()
        d1 = create_buffer(dev, self.layout.nbytes, interleaved=True,
                           page_size=32 << 10)
        t_in = EnqueueWriteBuffer(dev, d1, img)

        grid = dev.worker_grid(self.cores_y, 1)
        cores = [grid[i][0] for i in range(self.cores_y)]
        stride = ((nx + 2) * BF16_BYTES + 31) // 32 * 32
        barrier = Semaphore(dev.sim, value=0, name="sram_barrier")

        # build plans + wiring
        plans: List[_CorePlan] = []
        for i, (y0, h) in enumerate(split_extent(ny, self.cores_y)):
            core = cores[i]
            slabs = [core.allocate_l1((h + 2) * stride, align=32)
                     for _ in range(2)]
            plans.append(_CorePlan(
                index=i, y0=y0, ny=h, slab=slabs, row_stride=stride,
                halo_sem=Semaphore(dev.sim, 0, name=f"halo{i}")))
        for i, p in enumerate(plans):
            p.up = plans[i - 1] if i > 0 else None
            p.down = plans[i + 1] if i + 1 < len(plans) else None

        page = min(nx, TILE_ELEMS) * BF16_BYTES
        prog = Program(dev)
        for core, plan in zip(cores, plans):
            for cb in (CB_IN0, CB_IN1, CB_IN2, CB_IN3):
                CreateCircularBuffer(prog, core, cb, page, 1)
            CreateCircularBuffer(prog, core, CB_SCALAR, page, 1)
            CreateCircularBuffer(prog, core, CB_INTERMED, page, 2)
            CreateCircularBuffer(prog, core, CB_OUT0, page, 1)
            common = dict(layout=self.layout, plan=plan, src=d1, dst=d1,
                          iterations=sim_iters, barrier=barrier,
                          n_cores=self.cores_y, nx=nx, cores=cores)
            CreateKernel(prog, _reader_kernel, core, DATA_MOVER_0, common)
            CreateKernel(prog, _compute_kernel, core, COMPUTE, common)
            CreateKernel(prog, _writer_kernel, core, DATA_MOVER_1, common)

        # Watch for the end of the one-time load phase so extrapolation
        # scales only the steady-state iteration time.
        marks = {}

        def _watch_load():
            yield barrier.wait_at_least(self.cores_y)
            marks["loaded"] = dev.sim.now

        t0 = dev.sim.now
        dev.sim.process(_watch_load(), name="load_watch")
        EnqueueProgram(dev, prog)
        Finish(dev)
        span = dev.sim.now - t0
        load_time = marks.get("loaded", t0) - t0
        per_iter = (span - load_time) / sim_iters
        full_time = load_time + per_iter * iterations

        grid_bits = None
        t_out = 0.0
        if read_back and sim_iters == iterations:
            t0 = dev.sim.now
            raw = EnqueueReadBuffer(dev, d1)
            t_out = dev.sim.now - t0
            grid_bits = self.layout.unpack(raw.view("<u2"))

        return DeviceRunResult(
            grid_bits=grid_bits,
            iterations=iterations,
            simulated_iterations=sim_iters,
            kernel_time_s=full_time,
            transfer_time_s=t_in + t_out,
            energy_j=dev.energy.energy_j if sim_iters == iterations
            else dev.energy.energy_j * (full_time / (span or 1.0)),
            points=nx * ny,
        )

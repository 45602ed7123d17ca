"""The initial Jacobi port (Section IV): tile batches and 4-CB extraction.

Dataflow per 32×32 batch (the paper's Fig. 3):

* **reader (dm0)** fetches the batch's 34×34 element neighbourhood as 34
  non-contiguous 68-byte row reads, using the Listing-4 aligned-read
  helper (every read is misaligned by 30 bytes because of the x−1 halo),
  then *copies* four shifted 32×32 tiles out of the local buffer into the
  four input CBs — 128 strided 64-byte memcpy calls per batch, the
  bottleneck Table II exposes;
* **compute** runs Listing 2: three ``add_tiles`` + one ``mul_tiles`` by
  the 0.25-constant CB, with a ``pack_tile`` after each op;
* **writer (dm1)** stores the output tile as 32 non-contiguous 64-byte row
  writes (always aligned thanks to the Fig.-5 padding), then bumps the
  iteration semaphore the reader blocks on.

Variants (Table I):

* ``initial`` — a write barrier after *every* row write and the
  Listing-4 read barrier after every read;
* ``write_opt`` — write barrier once per batch;
* ``double_buffered`` — additionally, reads for batch *i+1* are issued
  before the memcpy of batch *i* so transfer and copy overlap.

Component toggles (Table II): ``enable_read`` / ``enable_memcpy`` /
``enable_compute`` / ``enable_write`` switch the work off while keeping
the CB structure and synchronisation intact, exactly as the paper's
retiming experiment does (results are functionally wrong when anything is
disabled — these runs measure time only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1, TensixCore
from repro.core.decomposition import TileBatch, TileBatches
from repro.core.grid import AlignedDomain, LaplaceProblem
from repro.dtypes.bf16 import BF16_BYTES, f32_to_bits
from repro.dtypes.tiles import TILE_DIM, TILE_NBYTES
from repro.ttmetal import (
    CreateCircularBuffer,
    CreateKernel,
    CreateSemaphore,
    EnqueueProgram,
    EnqueueReadBuffer,
    EnqueueWriteBuffer,
    Finish,
    Program,
    create_buffer,
)

__all__ = ["InitialConfig", "InitialJacobiRunner", "DeviceRunResult",
           "simulated_iterations", "run_sweeps",
           "describe_dataflow", "CB_IN0", "CB_IN1", "CB_IN2", "CB_IN3",
           "CB_SCALAR", "CB_INTERMED", "CB_OUT0"]

# CB indices (mirroring tt-metal's c_in0.. / c_intermed0 / c_out0 spaces).
CB_IN0, CB_IN1, CB_IN2, CB_IN3 = 0, 1, 2, 3
CB_SCALAR = 4
CB_OUT0 = 16
CB_INTERMED = 24
SEM_ITER = 0

_HALO = TILE_DIM + 2          # 34-element neighbourhood edge
_ROW_BYTES = _HALO * BF16_BYTES   # 68-byte row read


@dataclass(frozen=True)
class InitialConfig:
    """Which Section-IV variant to run."""

    write_sync_per_batch: bool = False   #: Table I "Data write optimised"
    double_buffered: bool = False        #: Table I "Double buffering"
    aligned_reads: bool = True           #: False demonstrates the corruption
    read_sync_per_request: bool = True   #: Listing 4 barriers every read
    enable_read: bool = True
    enable_memcpy: bool = True
    enable_compute: bool = True
    enable_write: bool = True

    @classmethod
    def initial(cls) -> "InitialConfig":
        return cls()

    @classmethod
    def write_optimised(cls) -> "InitialConfig":
        return cls(write_sync_per_batch=True)

    @classmethod
    def double_buffered_cfg(cls) -> "InitialConfig":
        return cls(write_sync_per_batch=True, double_buffered=True)

    def with_toggles(self, read: bool, memcpy: bool, compute: bool,
                     write: bool) -> "InitialConfig":
        return replace(self, enable_read=read, enable_memcpy=memcpy,
                       enable_compute=compute, enable_write=write)


@dataclass(frozen=True)
class DeviceRunResult:
    """Outcome of a simulated device Jacobi run."""

    grid_bits: Optional[np.ndarray]   #: final halo grid (uint16), if read back
    iterations: int                   #: iterations the result is reported for
    simulated_iterations: int         #: iterations actually simulated
    kernel_time_s: float              #: extrapolated kernel wall time
    transfer_time_s: float            #: PCIe in+out
    energy_j: float
    points: int

    @property
    def total_time_s(self) -> float:
        return self.kernel_time_s + self.transfer_time_s

    @property
    def points_per_s(self) -> float:
        """Points/second including transfer overhead (as the paper reports)."""
        return self.points * self.iterations / self.total_time_s

    @property
    def gpts(self) -> float:
        """Billion points per second — the paper's headline metric."""
        return self.points_per_s / 1e9


def simulated_iterations(iterations: int,
                         sim_iterations: Optional[int]) -> int:
    """How many of ``iterations`` a DES runner simulates.

    ``None`` simulates them all and a larger budget is capped at
    ``iterations``.  A non-positive ``iterations`` or ``sim_iterations``
    raises ``ValueError``: ``0`` never silently means "all".
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if sim_iterations is None:
        return iterations
    if sim_iterations <= 0:
        raise ValueError("sim_iterations must be positive")
    return min(sim_iterations, iterations)


def run_sweeps(dev: GrayskullDevice, program: Program, layout: AlignedDomain,
               iterations: int, sim_iters: int, *, t_in: float, final,
               read_back: bool,
               load_done: Optional[Callable[[], object]] = None
               ) -> DeviceRunResult:
    """The DES runners' one run ledger: launch ``program``, which runs
    ``sim_iters`` sweeps, and report it as ``iterations`` sweeps.

    Time extrapolates as ``load + (span − load) / sim_iters ·
    iterations``.  ``load`` is the one-time phase that ends when the
    event ``load_done()`` fires (charged once, not per sweep), or 0.
    Energy scales by ``full / span``.  The ``final`` buffer is read back
    (timed, unpacked by the layout's element type) only when every sweep
    was simulated.  ``t_in`` is the host-to-device transfer time.
    """
    t0 = dev.sim.now
    loaded = [t0]
    if load_done is not None:
        def _watch_load():
            yield load_done()
            loaded[0] = dev.sim.now
        dev.sim.process(_watch_load(), name="load_watch")
    EnqueueProgram(dev, program)
    span = Finish(dev)
    load = loaded[0] - t0
    full_time = load + (span - load) / sim_iters * iterations

    grid_bits = None
    t_out = 0.0
    if read_back and sim_iters == iterations:
        t_read = dev.sim.now
        raw = EnqueueReadBuffer(dev, final)
        t_out = dev.sim.now - t_read
        grid_bits = layout.unpack(raw.view(layout.bits_dtype))
    # The meter has integrated through the readback, so read it last.
    energy = dev.energy.energy_j
    if sim_iters != iterations:
        energy *= full_time / (span or 1.0)
    return DeviceRunResult(
        grid_bits=grid_bits,
        iterations=iterations,
        simulated_iterations=sim_iters,
        kernel_time_s=full_time,
        transfer_time_s=t_in + t_out,
        energy_j=energy,
        points=layout.nx * layout.ny,
    )


def _aligned_range(offset: int, size: int, alignment: int) -> tuple[int, int, int]:
    """Listing 4: extend ``[offset, offset+size)`` down to an aligned start.

    Returns ``(aligned_offset, read_size, slack)`` where ``slack`` is the
    number of preliminary bytes the caller must skip.
    """
    slack = offset % alignment
    return offset - slack, size + slack, slack


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

def _reader_kernel(ctx):
    layout: AlignedDomain = ctx.arg("layout")
    cfg: InitialConfig = ctx.arg("config")
    buffers = ctx.arg("buffers")          # [d1, d2]
    iterations: int = ctx.arg("iterations")
    batches: List[TileBatch] = ctx.arg("batches")
    align = ctx.costs.dram_alignment

    # Fill the 0.25 scalar CB once at program start (paper: "a CB filled
    # by a data mover core on program initialisation").
    yield from ctx.cb_reserve_back(CB_SCALAR, 1)
    quarter = np.full(TILE_DIM * TILE_DIM, f32_to_bits(0.25), dtype=np.uint16)
    yield from ctx.l1_store(ctx.cb_write_ptr(CB_SCALAR), quarter)
    yield from ctx.cb_push_back(CB_SCALAR, 1)

    # Local neighbourhood buffers (double buffering uses two).
    slack_max = align - 2
    slot_bytes = _HALO * (_ROW_BYTES + slack_max)
    n_bufs = 2 if cfg.double_buffered else 1
    local = [ctx.core.sram.allocate(slot_bytes, align=32) for _ in range(n_bufs)]

    def batch_ranges(batch: TileBatch) -> tuple[list, int]:
        """The 34 row reads of a batch as (offset, size) ranges + slack."""
        ranges = []
        slack0 = None
        for j in range(_HALO):
            off = layout.stencil_row_offset(batch.y0 + j, batch.x0)
            if cfg.aligned_reads:
                aoff, rsize, slack = _aligned_range(off, _ROW_BYTES, align)
            else:
                aoff, rsize, slack = off, _ROW_BYTES, 0
            if slack0 is None:
                slack0 = slack
            elif slack != slack0:
                raise AssertionError("row misalignment varies within a batch")
            ranges.append((aoff, rsize))
        return ranges, slack0

    def do_memcpy(batch_buf: int, slack: int, row_span: int):
        """Extract the four shifted 32x32 tiles into the input CBs."""
        # local row j starts at j*row_span; payload begins after `slack`.
        for cb_id, (row0, col0) in ((CB_IN0, (1, 0)), (CB_IN1, (1, 2)),
                                    (CB_IN2, (0, 1)), (CB_IN3, (2, 1))):
            yield from ctx.cb_reserve_back(cb_id, 1)
            if cfg.enable_memcpy:
                src = batch_buf + row0 * row_span + slack + col0 * BF16_BYTES
                yield from ctx.memcpy_rows(
                    dst_l1=ctx.cb_write_ptr(cb_id),
                    dst_stride=TILE_DIM * BF16_BYTES,
                    src_l1=src,
                    src_stride=row_span,
                    row_bytes=TILE_DIM * BF16_BYTES,
                    rows=TILE_DIM)
            yield from ctx.cb_push_back(cb_id, 1)

    for it in range(iterations):
        # Block on the writer's semaphore before re-reading (Fig. 3).
        yield from ctx.semaphore_wait(SEM_ITER, it)
        src_buf = buffers[it % 2]

        if cfg.double_buffered and cfg.enable_read:
            # Prime the pipeline: fetch batch 0 into buffer 0.
            ranges, slack = batch_ranges(batches[0])
            yield from ctx.noc_read_buffer_burst(src_buf, ranges, local[0])
            row_span = ranges[0][1]
            for i, batch in enumerate(batches):
                yield from ctx.noc_async_read_barrier()
                if i + 1 < len(batches):
                    nxt, nslack = batch_ranges(batches[i + 1])
                    yield from ctx.noc_read_buffer_burst(
                        src_buf, nxt, local[(i + 1) % 2])
                yield from do_memcpy(local[i % 2], slack, row_span)
                slack = nslack if i + 1 < len(batches) else slack
        else:
            for batch in batches:
                slack, row_span = 0, _ROW_BYTES
                if cfg.enable_read:
                    ranges, slack = batch_ranges(batch)
                    row_span = ranges[0][1]
                    # Listing 4 issues a barrier inside every read call;
                    # the Table-II retiming build synchronises per batch.
                    yield from ctx.noc_read_buffer_burst(
                        src_buf, ranges, local[0],
                        sync=cfg.read_sync_per_request)
                    yield from ctx.noc_async_read_barrier()
                yield from do_memcpy(local[0], slack, row_span)


def _compute_kernel(ctx):
    cfg: InitialConfig = ctx.arg("config")
    iterations: int = ctx.arg("iterations")
    n_batches: int = ctx.arg("n_batches")
    dst0 = 0

    yield from ctx.cb_wait_front(CB_SCALAR, 1)
    yield from ctx.tile_regs_acquire()
    for _ in range(iterations):
        for _ in range(n_batches):
            # Listing 2, faithfully.
            yield from ctx.cb_wait_front(CB_IN0, 1)
            yield from ctx.cb_wait_front(CB_IN1, 1)
            if cfg.enable_compute:
                yield from ctx.add_tiles(CB_IN0, CB_IN1, 0, 0, dst0)
            yield from ctx.cb_pop_front(CB_IN1, 1)
            yield from ctx.cb_pop_front(CB_IN0, 1)

            yield from ctx.cb_reserve_back(CB_INTERMED, 1)
            if cfg.enable_compute:
                yield from ctx.pack_tile(dst0, CB_INTERMED)
            yield from ctx.cb_push_back(CB_INTERMED, 1)

            yield from ctx.cb_wait_front(CB_IN2, 1)
            yield from ctx.cb_wait_front(CB_INTERMED, 1)
            if cfg.enable_compute:
                yield from ctx.add_tiles(CB_IN2, CB_INTERMED, 0, 0, dst0)
            yield from ctx.cb_pop_front(CB_INTERMED, 1)
            yield from ctx.cb_pop_front(CB_IN2, 1)

            yield from ctx.cb_reserve_back(CB_INTERMED, 1)
            if cfg.enable_compute:
                yield from ctx.pack_tile(dst0, CB_INTERMED)
            yield from ctx.cb_push_back(CB_INTERMED, 1)

            # "Undertaking the same addition for the third CB"
            yield from ctx.cb_wait_front(CB_IN3, 1)
            yield from ctx.cb_wait_front(CB_INTERMED, 1)
            if cfg.enable_compute:
                yield from ctx.add_tiles(CB_IN3, CB_INTERMED, 0, 0, dst0)
            yield from ctx.cb_pop_front(CB_INTERMED, 1)
            yield from ctx.cb_pop_front(CB_IN3, 1)

            yield from ctx.cb_reserve_back(CB_INTERMED, 1)
            if cfg.enable_compute:
                yield from ctx.pack_tile(dst0, CB_INTERMED)
            yield from ctx.cb_push_back(CB_INTERMED, 1)

            yield from ctx.cb_wait_front(CB_INTERMED, 1)
            if cfg.enable_compute:
                yield from ctx.mul_tiles(CB_SCALAR, CB_INTERMED, 0, 0, dst0)
            yield from ctx.cb_pop_front(CB_INTERMED, 1)

            yield from ctx.cb_reserve_back(CB_OUT0, 1)
            if cfg.enable_compute:
                yield from ctx.pack_tile(dst0, CB_OUT0)
            yield from ctx.cb_push_back(CB_OUT0, 1)
    yield from ctx.tile_regs_release()


def _writer_kernel(ctx):
    layout: AlignedDomain = ctx.arg("layout")
    cfg: InitialConfig = ctx.arg("config")
    buffers = ctx.arg("buffers")
    iterations: int = ctx.arg("iterations")
    batches: List[TileBatch] = ctx.arg("batches")

    for it in range(iterations):
        dst_buf = buffers[(it + 1) % 2]
        for batch in batches:
            yield from ctx.cb_wait_front(CB_OUT0, 1)
            if cfg.enable_write:
                ptr = ctx.cb_read_ptr(CB_OUT0)
                for r in range(TILE_DIM):
                    off = layout.elem_offset(batch.y0 + 1 + r, batch.x0)
                    yield from ctx.noc_write_buffer(
                        dst_buf, off, ptr + r * TILE_DIM * BF16_BYTES,
                        TILE_DIM * BF16_BYTES)
                    if not cfg.write_sync_per_batch:
                        yield from ctx.noc_async_write_barrier()
                if cfg.write_sync_per_batch:
                    yield from ctx.noc_async_write_barrier()
            yield from ctx.cb_pop_front(CB_OUT0, 1)
        # Release the reader into the next iteration.
        yield from ctx.semaphore_inc(SEM_ITER, 1)


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

class InitialJacobiRunner:
    """Host-side driver for the Section-IV kernels on one Tensix core."""

    def __init__(self, device: GrayskullDevice, problem: LaplaceProblem,
                 config: Optional[InitialConfig] = None,
                 core: Optional[TensixCore] = None):
        self.device = device
        self.problem = problem
        self.config = config or InitialConfig()
        self.core = core or device.core(0, 0)
        self.layout = AlignedDomain(problem)
        if problem.ny % TILE_DIM:
            raise ValueError(
                f"the initial kernel needs ny to be a multiple of "
                f"{TILE_DIM}; got {problem.ny}")

    def run(self, iterations: int,
            sim_iterations: Optional[int] = None,
            read_back: bool = True,
            initial_grid: Optional[np.ndarray] = None) -> DeviceRunResult:
        """Execute the solver.

        ``sim_iterations`` (default: ``iterations``) bounds how many
        iterations the DES actually executes; the kernel time is scaled to
        ``iterations`` from the steady-state per-iteration time — the
        standard practice for the paper's 10000-iteration runs.  Functional
        results are only read back when all iterations were simulated.
        ``initial_grid`` (a full ``(ny+2, nx+2)`` BF16 halo grid) overrides
        the problem's default initial state.
        """
        sim_iters = simulated_iterations(iterations, sim_iterations)

        dev = self.device
        img = self.layout.pack(initial_grid)
        # The paper's initial code keeps everything in a single DRAM bank.
        d1 = create_buffer(dev, self.layout.nbytes, bank_id=0)
        d2 = create_buffer(dev, self.layout.nbytes, bank_id=0)
        t_in = EnqueueWriteBuffer(dev, d1, img)
        t_in += EnqueueWriteBuffer(dev, d2, img)

        prog = Program(dev)
        core = self.core
        for cb_id in (CB_IN0, CB_IN1, CB_IN2, CB_IN3):
            CreateCircularBuffer(prog, core, cb_id, TILE_NBYTES, 4)
        CreateCircularBuffer(prog, core, CB_SCALAR, TILE_NBYTES, 1)
        CreateCircularBuffer(prog, core, CB_INTERMED, TILE_NBYTES, 2)
        CreateCircularBuffer(prog, core, CB_OUT0, TILE_NBYTES, 4)
        CreateSemaphore(prog, core, SEM_ITER, 0)

        batches = list(TileBatches(self.problem.nx, self.problem.ny))
        common = dict(layout=self.layout, config=self.config,
                      buffers=[d1, d2], iterations=sim_iters,
                      batches=batches, n_batches=len(batches))
        CreateKernel(prog, _reader_kernel, core, DATA_MOVER_0, common)
        CreateKernel(prog, _compute_kernel, core, COMPUTE, common)
        CreateKernel(prog, _writer_kernel, core, DATA_MOVER_1, common)

        return run_sweeps(dev, prog, self.layout, iterations, sim_iters,
                          t_in=t_in, final=d1 if iterations % 2 == 0 else d2,
                          read_back=read_back)


def describe_dataflow() -> str:
    """Text rendering of the Fig.-3 dataflow design."""
    return "\n".join([
        "Initial design (Fig. 3): one Tensix core",
        "",
        "  DRAM d1/d2  --NoC0-->  [dm0 reader]",
        "      34 x 68B non-contiguous row reads (Listing 3/4, aligned)",
        "      local 34x34 buffer --memcpy--> CB in0..in3 (x-1, x+1, y-1, y+1)",
        "  [compute: unpack -> FPU -> pack]   (Listing 2)",
        "      (in0+in1) -> intermed; (+in2) -> intermed; (+in3) -> intermed;",
        "      (x 0.25 from scalar CB) -> CB out0",
        "  [dm1 writer]  --NoC1-->  DRAM d2/d1",
        "      32 x 64B non-contiguous aligned row writes",
        "  writer --semaphore--> reader  (iteration hand-off; d1/d2 swap)",
    ])

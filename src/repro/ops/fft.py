"""Radix-2 1D FFT pencils with precomputed twiddle tables in L1.

A batch of independent length-``n`` complex pencils (Brown et al.'s
Wormhole FFT layout) is laid out as four float32 planes in DRAM —
``xr``/``xi`` of shape ``(n, batch)`` and twiddle tables ``twr``/``twi``
of shape ``(n/2, batch)`` where twiddle row ``k`` holds
``cos/sin(-2*pi*k/n)`` broadcast across the batch.  Each plane is stored
**core-blocked**: every core's slice of the batch axis is a contiguous
block whose row stride is padded to the 32-byte DRAM alignment, so all
device reads and writes are aligned — concurrent cores never share a
DRAM word, which the simulated controller (faithful to the paper's
Section IV findings) would corrupt.  The host writes ``x`` in
**bit-reversed row order**; the compute kernel then runs the iterative
decimation-in-time butterflies in place over fp32 circular-buffer
aliases, one elementwise tile op per butterfly term (10 FPU ops per
butterfly), leaving natural row order for the writer.

fp32 CBs pack losslessly, so the device arithmetic is a fixed sequence
of float32 elementwise operations.  :func:`fft_reference_bits` replays
exactly that sequence in NumPy — the device readback is **bit-exact**
against it.  Accuracy against ``numpy.fft`` (double precision) is
checked separately per pencil and must stay within
:data:`FFT_ULP_BOUND` ULPs of the pencil's peak magnitude; the bound
was calibrated empirically over n in 16..1024 (observed max ~3 ULP for
uniform [-1,1) inputs) with generous headroom for adversarial inputs.

Multi-core: the batch axis is carved with ``split_extent`` across all
``cores_y * cores_x`` cores; pencils never cross cores, so there is no
inter-core communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.sram import SramExhausted
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.core.decomposition import split_extent
from repro.ops.registry import (
    OpCheckError,
    OpRunResult,
    OpSpec,
    register,
    sha16,
)
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.perfmodel.ops import fft_estimate
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
    "FftProblem",
    "FFT_ULP_BOUND",
    "bit_reverse_indices",
    "twiddle_tables",
    "fft_reference_bits",
    "run_fft",
]

#: Documented accuracy bound vs double-precision ``numpy.fft``, in ULPs
#: of each pencil's peak magnitude (see module docstring).
FFT_ULP_BOUND = 64.0

CB_A, CB_B = 0, 1      #: fp32 operand aliases
CB_O = 16              #: fp32 output alias


@dataclass(frozen=True)
class FftProblem:
    """``batch`` independent complex64 pencils of power-of-two length."""

    n: int
    batch: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"FFT length must be a power of two, got {self.n}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    def flops(self) -> float:
        """10 real FPU lanes per butterfly, (n/2)*log2(n) butterflies."""
        return 10.0 * (self.n // 2) * int(np.log2(self.n)) * self.batch

    def inputs(self) -> np.ndarray:
        """Seeded complex64 input, shape ``(n, batch)``, natural order."""
        rng = np.random.default_rng(self.seed)
        re = (rng.random((self.n, self.batch)) * 2 - 1).astype(np.float32)
        im = (rng.random((self.n, self.batch)) * 2 - 1).astype(np.float32)
        return re + 1j * im


def bit_reverse_indices(n: int) -> np.ndarray:
    """Row permutation applied by the host before the upload."""
    bits = int(np.log2(n))
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def twiddle_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """float32 ``cos``/``sin`` of ``-2*pi*k/n`` for k in [0, n/2)."""
    ang = -2.0 * np.pi * np.arange(n // 2, dtype=np.float64) / n
    return np.cos(ang).astype(np.float32), np.sin(ang).astype(np.float32)


def _complex64(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Assemble complex64 from its two float32 planes, bit for bit.

    ``re + 1j * im`` would compute the real part as ``re + 0·im``: NaN
    wherever ``im`` is ±inf or NaN, and +0.0 for a −0.0.
    """
    z = np.empty(re.shape, np.complex64)
    z.real, z.imag = re, im
    return z


# -- host reference ----------------------------------------------------------

def fft_reference_bits(x: np.ndarray) -> np.ndarray:
    """Replay the device's exact float32 butterfly sequence in NumPy.

    ``x``: complex64 ``(n, batch)`` in natural order.  Returns complex64
    ``(n, batch)`` bit-identical to the device readback.  The butterflies
    of one radix-2 stage touch disjoint rows, so each stage is one
    vectorised pass doing, per element, the device's ten float32 ops in
    its order.
    """
    n = x.shape[0]
    rev = bit_reverse_indices(n)
    xr = np.ascontiguousarray(x.real, dtype=np.float32)[rev]
    xi = np.ascontiguousarray(x.imag, dtype=np.float32)[rev]
    twr, twi = twiddle_tables(n)
    # ±inf inputs make inf−inf and 0·inf NaNs, as on the device
    with np.errstate(over="ignore", invalid="ignore"):
        m = 2
        while m <= n:
            half, step = m // 2, n // m
            # twiddle j*step of butterfly j, against every (group, j) row
            wr = twr[::step, None]
            wi = twi[::step, None]
            # rows base + j (the "1" half) and base + j + half ("2")
            vr = xr.reshape(n // m, m, -1)
            vi = xi.reshape(n // m, m, -1)
            xr1, xr2 = vr[:, :half], vr[:, half:]
            xi1, xi2 = vi[:, :half], vi[:, half:]
            tr = wr * xr2 - wi * xi2
            ti = wr * xi2 + wi * xr2
            np.subtract(xr1, tr, out=xr2)
            np.add(xr1, tr, out=xr1)
            np.subtract(xi1, ti, out=xi2)
            np.add(xi1, ti, out=xi1)
            m *= 2
    return _complex64(xr, xi)


# -- device kernels ----------------------------------------------------------

def _fft_reader(ctx):
    """dm0: gather this core's x block and twiddle block into L1."""
    plan = ctx.arg("plan")
    n = ctx.arg("n")
    rb = plan["bc"] * 4
    stride = plan["stride"]
    loads = [(ctx.arg("xr_buf"), plan["xr"], n, plan["x_off"]),
             (ctx.arg("xi_buf"), plan["xi"], n, plan["x_off"]),
             (ctx.arg("twr_buf"), plan["twr"], n // 2, plan["tw_off"]),
             (ctx.arg("twi_buf"), plan["twi"], n // 2, plan["tw_off"])]
    for buf, slab, rows, base in loads:
        for r in range(rows):
            yield from ctx.noc_read_buffer(buf, base + r * stride,
                                           slab + r * rb, rb)
    yield from ctx.noc_async_read_barrier()
    yield from ctx.semaphore_inc(ctx.arg("loaded"), 1)


def _fft_compute(ctx):
    """In-place iterative radix-2 DIT over fp32 CB aliases."""
    plan = ctx.arg("plan")
    n = ctx.arg("n")
    rb = plan["bc"] * 4
    xr, xi = plan["xr"], plan["xi"]
    twr, twi = plan["twr"], plan["twi"]
    p1, p2, tr, ti = (plan["scr"] + i * rb for i in range(4))
    yield from ctx.semaphore_wait(ctx.arg("loaded"), 1)
    yield from ctx.tile_regs_acquire()

    def binop(op, a, b, out):
        yield from ctx.cb_set_rd_ptr(CB_A, a)
        yield from ctx.cb_set_rd_ptr(CB_B, b)
        yield from op(CB_A, CB_B, 0, 0, 0)
        yield from ctx.cb_set_wr_ptr(CB_O, out)
        yield from ctx.pack_tile(0, CB_O)

    m = 2
    while m <= n:
        half, step = m // 2, n // m
        ctx.fused_begin()
        for base in range(0, n, m):
            for j in range(half):
                wr = twr + (j * step) * rb
                wi = twi + (j * step) * rb
                r1, r2 = base + j, base + j + half
                xr1, xr2 = xr + r1 * rb, xr + r2 * rb
                xi1, xi2 = xi + r1 * rb, xi + r2 * rb
                yield from binop(ctx.mul_tiles, wr, xr2, p1)
                yield from binop(ctx.mul_tiles, wi, xi2, p2)
                yield from binop(ctx.sub_tiles, p1, p2, tr)
                yield from binop(ctx.mul_tiles, wr, xi2, p1)
                yield from binop(ctx.mul_tiles, wi, xr2, p2)
                yield from binop(ctx.add_tiles, p1, p2, ti)
                yield from binop(ctx.sub_tiles, xr1, tr, xr2)
                yield from binop(ctx.add_tiles, xr1, tr, xr1)
                yield from binop(ctx.sub_tiles, xi1, ti, xi2)
                yield from binop(ctx.add_tiles, xi1, ti, xi1)
        yield from ctx.fused_end()
        m *= 2
    yield from ctx.tile_regs_release()
    yield from ctx.semaphore_inc(ctx.arg("done"), 1)


def _fft_writer(ctx):
    """dm1: push the natural-order rows back to this core's DRAM block."""
    plan = ctx.arg("plan")
    n = ctx.arg("n")
    rb = plan["bc"] * 4
    stride = plan["stride"]
    yield from ctx.semaphore_wait(ctx.arg("done"), 1)
    for buf, slab in ((ctx.arg("xr_buf"), plan["xr"]),
                      (ctx.arg("xi_buf"), plan["xi"])):
        for r in range(n):
            # 32-aligned destination: concurrent cores never share a word
            yield from ctx.noc_write_buffer(buf, plan["x_off"] + r * stride,
                                            slab + r * rb, rb)
    yield from ctx.noc_async_write_barrier()


# -- host driver -------------------------------------------------------------

def _block_strides(shares: List[Tuple[int, int]]) -> List[int]:
    """Per-core row stride in bytes, padded to the 32-byte alignment."""
    return [-(-(bc * 4) // 32) * 32 for _, bc in shares]


def _pack_blocked(plane: np.ndarray, shares, strides) -> np.ndarray:
    """(rows, batch) float32 plane -> core-blocked padded byte stream."""
    rows = plane.shape[0]
    parts = []
    for (x0, bc), stride in zip(shares, strides):
        blk = np.zeros((rows, stride // 4), dtype=np.float32)
        blk[:, :bc] = plane[:, x0:x0 + bc]
        parts.append(blk.ravel())
    return np.concatenate(parts)


def _unpack_blocked(flat: np.ndarray, shares, strides, rows: int,
                    batch: int) -> np.ndarray:
    """Inverse of :func:`_pack_blocked`."""
    plane = np.empty((rows, batch), dtype=np.float32)
    pos = 0
    for (x0, bc), stride in zip(shares, strides):
        se = stride // 4
        plane[:, x0:x0 + bc] = flat[pos:pos + rows * se].reshape(
            rows, se)[:, :bc]
        pos += rows * se
    return plane


def run_fft(problem: FftProblem, cores: Tuple[int, int] = (1, 1),
            device: Optional[GrayskullDevice] = None,
            check: bool = True,
            costs: CostModel = DEFAULT_COSTS) -> OpRunResult:
    """Execute the pencil FFT on the simulated e150 and check readback."""
    cy, cx = cores
    n_cores = cy * cx
    n, batch = problem.n, problem.batch
    if n_cores > batch:
        raise ValueError(
            f"{n_cores} cores cannot split a batch of {batch} pencils")
    dev = device or GrayskullDevice(costs, dram_bank_capacity=64 << 20)

    x = problem.inputs()
    rev = bit_reverse_indices(n)
    xr_h = np.ascontiguousarray(x.real, dtype=np.float32)[rev]
    xi_h = np.ascontiguousarray(x.imag, dtype=np.float32)[rev]
    twr, twi = twiddle_tables(n)
    twr_h = np.broadcast_to(twr[:, None], (n // 2, batch)).copy()
    twi_h = np.broadcast_to(twi[:, None], (n // 2, batch)).copy()

    shares = split_extent(batch, n_cores)
    strides = _block_strides(shares)
    x_size = n * sum(strides)
    xr_buf = create_buffer(dev, x_size, interleaved=True, page_size=32 << 10)
    xi_buf = create_buffer(dev, x_size, interleaved=True, page_size=32 << 10)
    twr_buf = create_buffer(dev, x_size // 2, interleaved=True,
                            page_size=32 << 10)
    twi_buf = create_buffer(dev, x_size // 2, interleaved=True,
                            page_size=32 << 10)
    t_in = 0.0
    for buf, host, rows in ((xr_buf, xr_h, n), (xi_buf, xi_h, n),
                            (twr_buf, twr_h, n // 2),
                            (twi_buf, twi_h, n // 2)):
        packed = _pack_blocked(host, shares, strides)
        t_in += EnqueueWriteBuffer(dev, buf, packed.view(np.uint32))

    grid = dev.worker_grid(cy, cx)
    budget = dev.costs.sram_bytes - 96 * 1024
    prog = Program(dev)
    x_off = tw_off = 0
    for rank in range(n_cores):
        core = grid[rank // cx][rank % cx]
        x0, bc = shares[rank]
        rb = bc * 4
        need = (3 * n + 4) * rb
        if need > budget:
            raise SramExhausted(
                f"core {rank} needs {need} B of L1 for {bc} pencils of "
                f"length {n}; only ~{budget} B available — use more cores "
                "or shorter pencils")
        plan = {
            "x0": x0, "bc": bc, "stride": strides[rank],
            "x_off": x_off, "tw_off": tw_off,
            "xr": core.allocate_l1(n * rb, align=32),
            "xi": core.allocate_l1(n * rb, align=32),
            "twr": core.allocate_l1((n // 2) * rb, align=32),
            "twi": core.allocate_l1((n // 2) * rb, align=32),
            "scr": core.allocate_l1(4 * rb, align=32),
        }
        x_off += n * strides[rank]
        tw_off += (n // 2) * strides[rank]
        for cb in (CB_A, CB_B, CB_O):
            CreateCircularBuffer(prog, core, cb, rb, 1, dtype="fp32")
        common = dict(
            xr_buf=xr_buf, xi_buf=xi_buf, twr_buf=twr_buf, twi_buf=twi_buf,
            plan=plan, n=n,
            loaded=Semaphore(dev.sim, 0, name=f"fft_loaded_{rank}"),
            done=Semaphore(dev.sim, 0, name=f"fft_done_{rank}"))
        CreateKernel(prog, _fft_reader, core, DATA_MOVER_0, common)
        CreateKernel(prog, _fft_compute, core, COMPUTE, common)
        CreateKernel(prog, _fft_writer, core, DATA_MOVER_1, common)

    EnqueueProgram(dev, prog)
    kernel_time = Finish(dev)
    fpu_ops = sum(grid[r // cx][r % cx].fpu.ops for r in range(n_cores))

    t0 = dev.sim.now
    yr = _unpack_blocked(EnqueueReadBuffer(dev, xr_buf).view("<f4"),
                         shares, strides, n, batch)
    yi = _unpack_blocked(EnqueueReadBuffer(dev, xi_buf).view("<f4"),
                         shares, strides, n, batch)
    t_out = dev.sim.now - t0
    y = _complex64(yr, yi)

    detail = "unchecked"
    if check:
        mirror = fft_reference_bits(x)
        if not np.array_equal(y.view(np.uint64), mirror.view(np.uint64)):
            bad = int(np.count_nonzero(y.view(np.uint64)
                                       != mirror.view(np.uint64)))
            raise OpCheckError(
                f"fft n={n} batch={batch} on {cy}x{cx} cores: {bad} of "
                f"{mirror.size} outputs differ from the float32 mirror")
        ref = np.fft.fft(x.astype(np.complex128), axis=0)
        scale = np.spacing(np.abs(ref).max(axis=0).astype(np.float32)
                           ).astype(np.float64)
        max_ulp = float((np.abs(y - ref) / scale).max())
        if max_ulp > FFT_ULP_BOUND:
            raise OpCheckError(
                f"fft n={n} batch={batch}: {max_ulp:.1f} ULP from "
                f"numpy.fft exceeds the documented bound {FFT_ULP_BOUND}")
        detail = f"mirror bit-exact; max {max_ulp:.2f} ulp " \
                 f"(bound {FFT_ULP_BOUND:g})"

    return OpRunResult(
        op="fft", cores=(cy, cx),
        params={"n": n, "batch": batch, "seed": problem.seed},
        kernel_time_s=kernel_time, transfer_time_s=t_in + t_out,
        energy_j=dev.energy.energy_j, checked=check, check_detail=detail,
        output_sha=sha16(y), fpu_ops=fpu_ops, output=y)


def _make_problem(size: int, seed: int = 0, **kw) -> FftProblem:
    return FftProblem(n=size, batch=kw.get("batch", 16), seed=seed)


register(OpSpec(
    name="fft",
    summary="radix-2 1D FFT pencils, twiddles resident in L1, float32 "
            "mirror bit-exact and numpy.fft within documented ULP bound",
    make_problem=_make_problem,
    run=run_fft,
    reference=lambda p: fft_reference_bits(p.inputs()),
    estimate=fft_estimate,
    # ``ny`` pencils of length ``nx``, repeated ``iterations`` times
    serve_problem=lambda nx, ny, iterations: (
        FftProblem(n=nx, batch=ny), iterations),
    # float32 planes: xr/xi + twiddles in, xr/xi out
    pcie_bytes=lambda p: 5 * p.n * p.batch * 4,
    # round down to a power of two, at least 4
    snap_nx=lambda nx: 1 << (max(4, nx).bit_length() - 1),
))

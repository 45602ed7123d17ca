"""Blocked matmul held in SRAM: BF16 inputs, deterministic accumulation.

``C = A @ B`` with ``A (m x k)`` and ``B (k x n)`` in BF16.  Both
operands are padded to 32-multiples, **tilized** (each 32x32 tile a
contiguous 2 KiB DRAM page) and loaded whole into each core's L1; the
compute kernel then drives ``matmul_tiles`` over the resident block —
the SRAM-held dataflow of Pizzini Cavagna et al.'s MatMul study, on the
CB-aliasing surface this repository's SRAM Jacobi already uses.

Determinism contract (mirrored exactly by :func:`matmul_reference_bits`):

* operands unpack BF16 -> float32;
* each 32x32 tile product is a float32 ``A_tile @ B_tile``;
* partial products accumulate over K **sequentially, in tile order**,
  as float32 adds (``matmul_tiles(..., accumulate=True)``);
* one BF16 round-to-nearest-even per output tile at ``pack_tile``.

The device result is therefore **bit-exact** against the NumPy
reference for every shape, including non-square and non-multiple-of-32
shapes (zero padding participates in the accumulation on both sides, so
even ``-0.0 + 0.0`` signs agree).

Multi-core: the output tile grid is carved with ``split_domain`` — each
core owns a rectangle of C tiles plus the matching A row-block and
B column-block, with no inter-core communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.sram import SramExhausted
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.core.decomposition import split_domain
from repro.dtypes.bf16 import BF16_BYTES, bits_to_f32, f32_to_bits
from repro.dtypes.tiles import TILE_DIM, domain_to_tiles, tiles_to_domain
from repro.ops.registry import (
    OpCheckError,
    OpRunResult,
    OpSpec,
    register,
    sha16,
)
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.perfmodel.ops import matmul_estimate
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
    "MatmulProblem",
    "matmul_reference_bits",
    "run_matmul",
    "random_bf16_bits",
]

CB_A, CB_B = 0, 1
CB_C = 16

TILE_BYTES = TILE_DIM * TILE_DIM * 2     #: one BF16 tile page (2 KiB)


@dataclass(frozen=True)
class MatmulProblem:
    """``C[m,n] = A[m,k] @ B[k,n]`` in BF16."""

    m: int
    k: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if min(self.m, self.k, self.n) < 1:
            raise ValueError("matmul dimensions must be >= 1")

    @property
    def mt(self) -> int:
        return -(-self.m // TILE_DIM)

    @property
    def kt(self) -> int:
        return -(-self.k // TILE_DIM)

    @property
    def nt(self) -> int:
        return -(-self.n // TILE_DIM)

    def flops(self) -> float:
        """Padded work actually executed (2*M*K*N on tile multiples)."""
        return 2.0 * (self.mt * self.kt * self.nt) * TILE_DIM ** 3

    def inputs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Seeded BF16 operands: A ``(m,k)`` bits, B ``(k,n)`` bits."""
        rng = np.random.default_rng(self.seed)
        a = random_bf16_bits(rng, (self.m, self.k))
        b = random_bf16_bits(rng, (self.k, self.n))
        return a, b


def random_bf16_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform values in [-1, 1) rounded to BF16 bit patterns."""
    return f32_to_bits((rng.random(shape, dtype=np.float64) * 2 - 1
                        ).astype(np.float32))


# -- tilized layout ----------------------------------------------------------

def _pad_to_tiles(bits: np.ndarray) -> np.ndarray:
    r, c = bits.shape
    rp = -(-r // TILE_DIM) * TILE_DIM
    cp = -(-c // TILE_DIM) * TILE_DIM
    if (rp, cp) == (r, c):
        return bits
    out = np.zeros((rp, cp), dtype=np.uint16)
    out[:r, :c] = bits
    return out


# -- host reference ----------------------------------------------------------

def matmul_reference_bits(a_bits: np.ndarray, b_bits: np.ndarray
                          ) -> np.ndarray:
    """The deterministic BF16 blocked-matmul contract, in NumPy.

    Mirrors the device op for op: per-tile float32 products, sequential
    float32 accumulation over K, one BF16 RNE rounding per output tile.
    """
    m, k = a_bits.shape
    k2, n = b_bits.shape
    if k != k2:
        raise ValueError(f"shape mismatch: ({m},{k}) @ ({k2},{n})")
    ap = bits_to_f32(_pad_to_tiles(a_bits))
    bp = bits_to_f32(_pad_to_tiles(b_bits))
    mt, kt, nt = ap.shape[0] // TILE_DIM, ap.shape[1] // TILE_DIM, \
        bp.shape[1] // TILE_DIM
    out = np.empty((mt * TILE_DIM, nt * TILE_DIM), dtype=np.uint16)
    for it in range(mt):
        ar = ap[it * TILE_DIM:(it + 1) * TILE_DIM]
        for jt in range(nt):
            bc = bp[:, jt * TILE_DIM:(jt + 1) * TILE_DIM]
            acc: Optional[np.ndarray] = None
            for ktile in range(kt):
                sl = slice(ktile * TILE_DIM, (ktile + 1) * TILE_DIM)
                prod = (ar[:, sl] @ bc[sl]).astype(np.float32)
                acc = prod if acc is None \
                    else (acc + prod).astype(np.float32)
            out[it * TILE_DIM:(it + 1) * TILE_DIM,
                jt * TILE_DIM:(jt + 1) * TILE_DIM] = f32_to_bits(acc)
    return out[:m, :n]


# -- device kernels ----------------------------------------------------------

def _mm_reader(ctx):
    """dm0: pull this core's A row-block and B column-block into L1."""
    a_buf = ctx.arg("a_buf")
    b_buf = ctx.arg("b_buf")
    plan = ctx.arg("plan")
    kt = ctx.arg("kt")
    nt = ctx.arg("nt")
    for i in range(plan["my"]):
        for kk in range(kt):
            src = ((plan["y0"] + i) * kt + kk) * TILE_BYTES
            yield from ctx.noc_read_buffer(
                a_buf, src, plan["slab_a"] + (i * kt + kk) * TILE_BYTES,
                TILE_BYTES)
    for kk in range(kt):
        for j in range(plan["nx"]):
            src = (kk * nt + plan["x0"] + j) * TILE_BYTES
            yield from ctx.noc_read_buffer(
                b_buf, src,
                plan["slab_b"] + (kk * plan["nx"] + j) * TILE_BYTES,
                TILE_BYTES)
    yield from ctx.noc_async_read_barrier()
    yield from ctx.semaphore_inc(ctx.arg("loaded"), 1)


def _mm_compute(ctx):
    """Blocked multiply over the resident operands via CB aliases."""
    plan = ctx.arg("plan")
    kt = ctx.arg("kt")
    yield from ctx.semaphore_wait(ctx.arg("loaded"), 1)
    yield from ctx.tile_regs_acquire()
    for i in range(plan["my"]):
        for j in range(plan["nx"]):
            ctx.fused_begin()
            for kk in range(kt):
                yield from ctx.cb_set_rd_ptr(
                    CB_A, plan["slab_a"] + (i * kt + kk) * TILE_BYTES)
                yield from ctx.cb_set_rd_ptr(
                    CB_B, plan["slab_b"] + (kk * plan["nx"] + j) * TILE_BYTES)
                yield from ctx.matmul_tiles(CB_A, CB_B, 0, 0, 0,
                                            accumulate=kk > 0)
            yield from ctx.cb_set_wr_ptr(
                CB_C, plan["slab_c"] + (i * plan["nx"] + j) * TILE_BYTES)
            yield from ctx.pack_tile(0, CB_C)
            yield from ctx.fused_end()
    yield from ctx.tile_regs_release()
    yield from ctx.semaphore_inc(ctx.arg("done"), 1)


def _mm_writer(ctx):
    """dm1: push the finished C block back to its DRAM tile pages."""
    c_buf = ctx.arg("c_buf")
    plan = ctx.arg("plan")
    nt = ctx.arg("nt")
    yield from ctx.semaphore_wait(ctx.arg("done"), 1)
    for i in range(plan["my"]):
        for j in range(plan["nx"]):
            dst = ((plan["y0"] + i) * nt + plan["x0"] + j) * TILE_BYTES
            yield from ctx.noc_write_buffer(
                c_buf, dst, plan["slab_c"] + (i * plan["nx"] + j) * TILE_BYTES,
                TILE_BYTES)
    yield from ctx.noc_async_write_barrier()


# -- host driver -------------------------------------------------------------

def run_matmul(problem: MatmulProblem, cores: Tuple[int, int] = (1, 1),
               device: Optional[GrayskullDevice] = None,
               check: bool = True,
               costs: CostModel = DEFAULT_COSTS) -> OpRunResult:
    """Execute the op on the simulated e150 and check it at readback."""
    cy, cx = cores
    mt, kt, nt = problem.mt, problem.kt, problem.nt
    if cy > mt or cx > nt:
        raise ValueError(
            f"{cy}x{cx} cores cannot split a {mt}x{nt} output tile grid")
    dev = device or GrayskullDevice(costs, dram_bank_capacity=64 << 20)

    a_bits, b_bits = problem.inputs()
    a_buf = create_buffer(dev, mt * kt * TILE_BYTES, interleaved=True,
                          page_size=TILE_BYTES)
    b_buf = create_buffer(dev, kt * nt * TILE_BYTES, interleaved=True,
                          page_size=TILE_BYTES)
    c_buf = create_buffer(dev, mt * nt * TILE_BYTES, interleaved=True,
                          page_size=TILE_BYTES)
    # tile (it, jt) of an operand is page it*Ct + jt
    t_in = EnqueueWriteBuffer(dev, a_buf,
                              domain_to_tiles(_pad_to_tiles(a_bits)))
    t_in += EnqueueWriteBuffer(dev, b_buf,
                               domain_to_tiles(_pad_to_tiles(b_bits)))

    grid = dev.worker_grid(cy, cx)
    shares = split_domain(nx=nt, ny=mt, cores_y=cy, cores_x=cx)
    budget = dev.costs.sram_bytes - 96 * 1024
    prog = Program(dev)
    for iy in range(cy):
        for ix in range(cx):
            core = grid[iy][ix]
            sub = shares[iy][ix]
            need = (sub.ny * kt + kt * sub.nx + sub.ny * sub.nx) * TILE_BYTES
            if need > budget:
                raise SramExhausted(
                    f"core ({iy},{ix}) needs {need} B of L1 for its "
                    f"A/B/C blocks; only ~{budget} B available — use more "
                    "cores or smaller operands")
            plan = {
                "y0": sub.y0, "x0": sub.x0, "my": sub.ny, "nx": sub.nx,
                "slab_a": core.allocate_l1(sub.ny * kt * TILE_BYTES,
                                           align=32),
                "slab_b": core.allocate_l1(kt * sub.nx * TILE_BYTES,
                                           align=32),
                "slab_c": core.allocate_l1(sub.ny * sub.nx * TILE_BYTES,
                                           align=32),
            }
            for cb in (CB_A, CB_B, CB_C):
                CreateCircularBuffer(prog, core, cb, TILE_BYTES, 1)
            common = dict(
                a_buf=a_buf, b_buf=b_buf, c_buf=c_buf, plan=plan,
                kt=kt, nt=nt,
                loaded=Semaphore(dev.sim, 0, name=f"mm_loaded_{iy}_{ix}"),
                done=Semaphore(dev.sim, 0, name=f"mm_done_{iy}_{ix}"))
            CreateKernel(prog, _mm_reader, core, DATA_MOVER_0, common)
            CreateKernel(prog, _mm_compute, core, COMPUTE, common)
            CreateKernel(prog, _mm_writer, core, DATA_MOVER_1, common)

    EnqueueProgram(dev, prog)
    kernel_time = Finish(dev)
    fpu_ops = sum(grid[iy][ix].fpu.ops for iy in range(cy)
                  for ix in range(cx))

    t0 = dev.sim.now
    raw = EnqueueReadBuffer(dev, c_buf)
    t_out = dev.sim.now - t0
    c_bits = tiles_to_domain(raw.view("<u2").reshape(
        mt, nt, TILE_DIM, TILE_DIM))[:problem.m, :problem.n]

    detail = "unchecked"
    if check:
        ref = matmul_reference_bits(a_bits, b_bits)
        if not np.array_equal(c_bits, ref):
            bad = int(np.count_nonzero(c_bits != ref))
            raise OpCheckError(
                f"matmul {problem.m}x{problem.k}x{problem.n} on {cy}x{cx} "
                f"cores: {bad} of {ref.size} output elements differ from "
                "the BF16 reference")
        detail = "bit-exact"

    return OpRunResult(
        op="matmul", cores=(cy, cx),
        params={"m": problem.m, "k": problem.k, "n": problem.n,
                "seed": problem.seed},
        kernel_time_s=kernel_time, transfer_time_s=t_in + t_out,
        energy_j=dev.energy.energy_j, checked=check, check_detail=detail,
        output_sha=sha16(c_bits), fpu_ops=fpu_ops, output=c_bits)


def _make_problem(size: int, seed: int = 0, **kw) -> MatmulProblem:
    return MatmulProblem(m=kw.get("m", size), k=kw.get("k", size),
                         n=kw.get("n", size), seed=seed)


register(OpSpec(
    name="matmul",
    summary="blocked BF16 matmul held in SRAM, deterministic K-order "
            "accumulation, bit-exact vs NumPy",
    make_problem=_make_problem,
    run=run_matmul,
    reference=lambda p: matmul_reference_bits(*p.inputs()),
    estimate=matmul_estimate,
    # C[ny,nx] = A[ny,nx] @ B[nx,nx], repeated ``iterations`` times
    serve_problem=lambda nx, ny, iterations: (
        MatmulProblem(m=ny, k=nx, n=nx), iterations),
    # A and B in, C out
    pcie_bytes=lambda p: (p.m * p.k + p.k * p.n + p.m * p.n) * BF16_BYTES,
))

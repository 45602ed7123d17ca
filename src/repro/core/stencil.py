"""Spec-driven 3×3 stencils on the Section-VI dataflow.

One kernel family serves every stencil in the package: the paper's
Listing-2 Jacobi (:class:`~repro.core.jacobi_optimized.OptimizedJacobiRunner`
is a thin façade over :class:`StencilRunner`), explicit diffusion, and
first-order upwind advection — the paper's future work: "We are now
looking at more complex stencil algorithms, such as atmospheric
advection, on the Grayskull."

A :class:`StencilSpec` is an ordered tuple of ``(scale, taps)`` groups.
A tap is a ``(dy, dx)`` offset within the 3×3 neighbourhood (the
constants :data:`C`, :data:`W`, :data:`E`, :data:`N`, :data:`S` and the
diagonals).  The spec fixes the evaluation order exactly::

    gₖ  = scaleₖ · (t₀ + t₁ + …)     taps summed left to right, then scaled
    out = g₀ + g₁ + … (+ rhs)        groups added in order, the RHS last

and its ``rounding`` says where that chain rounds.  ``"pack"`` rounds
every op to the element type, as each ``pack_tile`` to a CB does
(Listing 2); ``"dst"`` accumulates one group in the FP32 destination
register and rounds once (the paper's rejected ``accumulate_in_dst``
ablation).  Listing 2 is ``((0.25, (W, E, N, S)),)``: add first, then
scale.  Weighted stencils ``Σ cₖ·uₖ`` are one singleton group per
non-zero coefficient in C, W, E, N, S order: multiply first, then add.

Both the device program and the host reference come from the spec, so
they agree bit for bit in BF16 and in FP32 (the Wormhole-precision
mode): :func:`stencil_solve_bf16` / :func:`stencil_solve_fp32` replay the
chain through one evaluator, which keeps the grid in FP32 and rounds in
place where the device packs.

The dataflow never changes: contiguous row reads into a rotating 4-row
buffer, and ``cb_set_rd_ptr`` zero-copy aliases — every tap is one
input CB pointed into the buffer at its row and element offset.  The
compute kernel's FPU program is generated from the groups.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.core.decomposition import SubDomain, split_domain
from repro.core.grid import AlignedDomain, LaplaceProblem
from repro.core.jacobi_initial import (
    DeviceRunResult,
    run_sweeps,
    simulated_iterations,
)
from repro.dtypes.bf16 import (
    bf16_round,
    bf16_round_inplace,
    bits_to_f32,
    f32_to_bits,
)
from repro.dtypes.tiles import TILE_ELEMS
from repro.sim.resources import Semaphore
from repro.ttmetal import (
    CreateCircularBuffer,
    CreateKernel,
    CreateSemaphore,
    EnqueueWriteBuffer,
    Program,
    create_buffer,
)

__all__ = ["StencilSpec", "StencilRunner", "stencil_step_bf16",
           "stencil_solve_bf16", "stencil_step_fp32", "stencil_solve_fp32",
           "C", "W", "E", "N", "S", "NW", "NE", "SW", "SE"]

Tap = Tuple[int, int]

#: taps: ``(dy, dx)`` offsets within the 3×3 neighbourhood
C, W, E, N, S = (0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)
NW, NE, SW, SE = (-1, -1), (-1, 1), (1, -1), (1, 1)
_NEIGHBOURHOOD = frozenset((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1))

# Fixed CB ids: output 16, intermediates 24-25.  Inputs (one per tap),
# scale constants (one per group) and the RHS field take the free ids
# from 0 upward, in that order.
CB_OUT0 = 16
CB_INTERMED, CB_INTERMED2 = 24, 25
#: compute increments this after finishing each chunk column; the reader
#: waits on it before priming the next column's rows into the rotating
#: buffer (otherwise the prime could overwrite slots the consumer is
#: still aliasing on the previous column's final rows).
SEM_COLUMN = 1
#: rotating local-buffer depth (the paper allocates four batches).
N_SLOTS = 4
#: in-CB pages: 2 ⇒ the reader prefetches one row ahead of the consumer,
#: which is exactly the slot-reuse safety margin of the 4-deep buffer.
IN_PAGES = 2
_N_CBS = 32
#: under ``"dst"`` rounding, switching the FPU from the accumulate
#: configuration to the scale pass re-programs the unpacker and math
#: threads once per group: this many op-times of dead pipeline, which is
#: what made the variant a net loss on silicon.
DST_RECONFIG_OPS = 6


def _bf16(value: float) -> float:
    return float(bf16_round(np.float32(value)))


def _bf16_floor(value: float) -> float:
    """The largest BF16 value ≤ ``value``."""
    r = _bf16(value)
    if r > value:  # rounded up: step one BF16 ulp toward −∞
        bits = int(f32_to_bits(np.float32(r)))
        r = float(bits_to_f32(np.uint16(bits - 1 if r > 0 else bits + 1)))
    return r


@dataclass(frozen=True)
class StencilSpec:
    """An ordered chain of ``(scale, taps)`` groups (scales BF16-rounded).

    Each group sums its taps left to right, then multiplies by its
    scale; the groups are then added in order.  ``rounding="pack"``
    rounds after every op (Listing 2); ``rounding="dst"`` keeps a single
    group in the FP32 destination register and rounds once.
    """

    groups: Tuple[Tuple[float, Tuple[Tap, ...]], ...]
    rounding: str = "pack"

    def __post_init__(self):
        groups = []
        for scale, taps in self.groups:
            taps = tuple(tuple(int(d) for d in t) for t in taps)
            if not taps:
                raise ValueError("a group needs at least one tap")
            for t in taps:
                if t not in _NEIGHBOURHOOD:
                    raise ValueError(
                        f"tap {t} is outside the 3x3 neighbourhood")
            groups.append((_bf16(scale), taps))
        if self.rounding not in ("pack", "dst"):
            raise ValueError("rounding must be 'pack' or 'dst'")
        if self.rounding == "dst" and len(groups) != 1:
            raise ValueError("dst rounding accumulates exactly one group "
                             "in the destination register")
        object.__setattr__(self, "groups", tuple(groups))

    # -- library ------------------------------------------------------------
    @classmethod
    def weighted(cls, center: float = 0.0, west: float = 0.0,
                 east: float = 0.0, north: float = 0.0,
                 south: float = 0.0) -> "StencilSpec":
        """``Σ cₖ·uₖ``: one singleton group per non-zero coefficient,
        evaluated C, W, E, N, S."""
        terms = ((center, C), (west, W), (east, E), (north, N), (south, S))
        return cls(tuple((c, (t,)) for c, t in terms if _bf16(c) != 0.0))

    @classmethod
    def jacobi(cls, rounding: str = "pack") -> "StencilSpec":
        """Listing 2: ``0.25·(((W + E) + N) + S)``."""
        return cls(((0.25, (W, E, N, S)),), rounding)

    @classmethod
    def nine_point(cls) -> "StencilSpec":
        """The 9-point relaxation of the op library's ``stencil9``:
        ``0.2·(((W + E) + N) + S) + 0.05·(((NW + NE) + SW) + SE)``."""
        return cls(((0.2, (W, E, N, S)), (0.05, (NW, NE, SW, SE))))

    @classmethod
    def diffusion(cls, alpha: float) -> "StencilSpec":
        """Explicit heat step u + α∇²u (stable for α ≤ 0.25).

        α is rounded to BF16 first; the centre is then the largest BF16
        value ≤ 1 − 4α, so the weights never sum above 1.
        """
        if not 0 < alpha <= 0.25:
            raise ValueError("explicit diffusion requires 0 < alpha <= 0.25")
        a = _bf16(alpha)
        return cls.weighted(center=_bf16_floor(1 - 4 * a), west=a, east=a,
                            north=a, south=a)

    @classmethod
    def advection_upwind(cls, cu: float, cv: float) -> "StencilSpec":
        """First-order upwind advection with Courant numbers (cu, cv) ≥ 0.

        ``u ← u − cu·(u − u_west) − cv·(u − u_north)`` — the atmospheric
        advection pattern the paper names as its next target (flow toward
        +x, +y).  Stable for cu + cv ≤ 1.  The Courant numbers are
        rounded to BF16 first; the centre is then the largest BF16 value
        ≤ 1 − cu − cv, so the weights never sum above 1.
        """
        if cu < 0 or cv < 0 or cu + cv > 1:
            raise ValueError("upwind stability needs cu, cv >= 0 and "
                             "cu + cv <= 1")
        w, n = _bf16(cu), _bf16(cv)
        return cls.weighted(center=_bf16_floor(1 - w - n), west=w, north=n)

    @property
    def taps(self) -> Tuple[Tap, ...]:
        """The distinct taps in first-use order (one input CB each)."""
        return tuple(dict.fromkeys(t for _s, taps in self.groups
                                   for t in taps))

    def tile_ops(self, rhs: bool = False) -> int:
        """Tile ops (FPU ops plus packs) the generated compute program
        issues per row chunk, with an RHS field if ``rhs``.

        ``"pack"``: a group of n taps is n ops (n − 1 adds and its
        scale), each later group and the RHS add one more, and every op
        packs once.  ``"dst"``: a copy, n − 1 accumulates and the output
        pack (its FPU reconfiguration stall is not a tile op; see
        :meth:`fpu_op_times`).
        """
        n_taps = sum(len(taps) for _s, taps in self.groups)
        if self.rounding == "dst":
            return n_taps + 1
        return 2 * (n_taps + len(self.groups) - 1 + rhs)

    def fpu_op_times(self) -> int:
        """FPU occupancy per row chunk, in op-times: :meth:`tile_ops`
        plus, under ``"dst"``, :data:`DST_RECONFIG_OPS` per group."""
        stall = DST_RECONFIG_OPS * len(self.groups) \
            if self.rounding == "dst" else 0
        return self.tile_ops() + stall

    def weight(self, tap: Tap) -> float:
        """The coefficient of ``tap`` in the exact update."""
        return float(sum(scale * taps.count(tap)
                         for scale, taps in self.groups))

    def max_principle_holds(self) -> bool:
        """Positive coefficients summing to ≤ 1 ⇒ outputs stay bounded."""
        weights = [self.weight(t) for t in self.taps]
        return all(w >= 0 for w in weights) and sum(weights) <= 1.0 + 2 ** -8


# --------------------------------------------------------------------------
# bit-exact reference: one evaluator for BF16 and FP32
# --------------------------------------------------------------------------

def _sweeps(u: np.ndarray, spec: StencilSpec, iterations: int,
            rhs: Optional[np.ndarray],
            rnd: Optional[Callable[[np.ndarray], np.ndarray]]) -> None:
    """Run ``iterations`` sweeps of ``spec`` in place on FP32 halo grid ``u``.

    ``rnd`` rounds an FP32 array in place to the element type, or is
    ``None`` where packing is lossless (FP32).  ``"pack"`` rounding
    applies it after every op, where the device packs to a CB; ``"dst"``
    only once, where the register is packed to the output.  Every op
    keeps the device's operand order, which decides the sign of the NaN a
    NaN pair returns.
    """
    ny, nx = u.shape[0] - 2, u.shape[1] - 2
    if rhs is not None and rhs.shape != (ny, nx):
        raise ValueError(f"rhs must be the interior shape {(ny, nx)}, "
                         f"got {rhs.shape}")
    if rhs is not None and spec.rounding == "dst":
        raise ValueError("dst rounding takes no rhs field")
    pack = rnd if spec.rounding == "pack" else None
    # the output pack rounds what no op packed: the dst register, or the
    # RHS (or zeros) of a spec without groups
    final = rnd if spec.rounding == "dst" or not spec.groups else None

    def tap(t: Tap) -> np.ndarray:
        return u[1 + t[0]:1 + t[0] + ny, 1 + t[1]:1 + t[1] + nx]

    def op(ufunc, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        ufunc(a, b, out=out)
        if pack is not None:
            pack(out)

    acc = np.zeros((ny, nx), np.float32)
    g = np.empty_like(acc)
    # overflow to ±inf and inf−inf → NaN are the hardware's IEEE
    # semantics, not errors
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            for k, (scale, taps) in enumerate(spec.groups):
                w = acc if k == 0 else g
                s = np.float32(scale)
                if spec.rounding == "dst":
                    # copy_tile, then add_tile_to_dst: dst + tile
                    np.copyto(w, tap(taps[0]))
                    for t in taps[1:]:
                        np.add(w, tap(t), out=w)
                    np.multiply(w, s, out=w)
                elif len(taps) == 1:
                    op(np.multiply, s, tap(taps[0]), w)
                else:
                    # add_tiles(tap0, tap1), then add_tiles(tap, work)
                    op(np.add, tap(taps[0]), tap(taps[1]), w)
                    for t in taps[2:]:
                        op(np.add, tap(t), w, w)
                    op(np.multiply, s, w, w)
                if k:
                    op(np.add, g, acc, acc)
            if rhs is not None:
                if spec.groups:
                    op(np.add, rhs, acc, acc)
                else:
                    np.copyto(acc, rhs)
            if final is not None:
                final(acc)
            u[1:-1, 1:-1] = acc


def stencil_solve_bf16(bits: np.ndarray, spec: StencilSpec,
                       iterations: int,
                       rhs_bits: Optional[np.ndarray] = None) -> np.ndarray:
    """``iterations`` BF16 sweeps, bit-exact to the device kernel.

    ``rhs_bits`` (a ``(ny, nx)`` BF16 interior field) is added last:
    ``out = Σ gₖ + rhs`` — the inhomogeneous term that makes
    defect-correction solves possible (see :mod:`repro.core.refinement`).
    The grid is unpacked once, every sweep runs in FP32 and rounds where
    the device packs, and the interior is packed once at the end; the
    boundary bits are returned as given.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    b = np.asarray(bits, dtype=np.uint16).copy()
    if iterations == 0:
        return b
    rhs = None if rhs_bits is None else bits_to_f32(
        np.asarray(rhs_bits, dtype=np.uint16))
    u = bits_to_f32(b)
    _sweeps(u, spec, iterations, rhs, bf16_round_inplace)
    b[1:-1, 1:-1] = f32_to_bits(u[1:-1, 1:-1])
    return b


def stencil_solve_fp32(grid: np.ndarray, spec: StencilSpec,
                       iterations: int,
                       rhs: Optional[np.ndarray] = None) -> np.ndarray:
    """``iterations`` FP32 sweeps, bit-exact to the device's FP32 mode.

    The Wormhole-precision mode: every op is a single f32 rounding
    (packing is lossless).
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    u = np.array(grid, dtype=np.float32)
    if iterations:
        _sweeps(u, spec, iterations,
                None if rhs is None else np.asarray(rhs, dtype=np.float32),
                None)
    return u


def stencil_step_bf16(bits: np.ndarray, spec: StencilSpec,
                      rhs_bits: Optional[np.ndarray] = None) -> np.ndarray:
    """One BF16 sweep of :func:`stencil_solve_bf16`."""
    return stencil_solve_bf16(bits, spec, 1, rhs_bits)


def stencil_step_fp32(grid: np.ndarray, spec: StencilSpec,
                      rhs: Optional[np.ndarray] = None) -> np.ndarray:
    """One FP32 sweep of :func:`stencil_solve_fp32`."""
    return stencil_solve_fp32(grid, spec, 1, rhs)


# --------------------------------------------------------------------------
# device kernels (Section-VI dataflow, generated compute program)
# --------------------------------------------------------------------------

def _chunk_columns(sub: SubDomain, chunk: int) -> List[Tuple[int, int]]:
    cols, x = [], 0
    while x < sub.nx:
        w = min(chunk, sub.nx - x)
        cols.append((sub.x0 + x, w))
        x += w
    return cols


class _Kernels(NamedTuple):
    """One spec's CB ids and its generated reader and compute kernels."""

    in_cbs: Tuple[int, ...]        #: one input CB per tap
    scalar_cbs: Tuple[int, ...]    #: one scale-constant CB per group
    rhs_cb: Optional[int]
    reader: Callable
    compute: Callable


@functools.lru_cache(maxsize=64)
def _kernels(spec: StencilSpec, rhs: bool) -> _Kernels:
    """Generate the reader and compute kernels of ``spec``.

    Memoised on the frozen spec, so every launch of one spec binds the
    same function objects: that identity is what makes both the lint
    trace cache and the lint report memo hit (a fresh closure per launch
    would be traced and linted in full every time).  Their closure
    constants play the role of tt-metal compile-time args: the lint
    tracer unrolls the tap and group loops over them and sees every CB
    id as a constant.
    """
    taps, n_groups = spec.taps, len(spec.groups)
    free = [cb for cb in range(_N_CBS)
            if cb not in (CB_OUT0, CB_INTERMED, CB_INTERMED2)]
    if len(taps) + n_groups + rhs > len(free):
        raise ValueError(f"the stencil needs more than {_N_CBS} CBs")
    in_cbs = tuple(free[:len(taps)])
    scalar_cbs = tuple(free[len(taps):len(taps) + n_groups])
    rhs_cb = free[len(taps) + n_groups] if rhs else None
    tap_cb = dict(zip(taps, in_cbs))
    #: per input: (CB, window row 0/1/2 = above/centre/below, element
    #: offset within the row window)
    aliases = tuple((tap_cb[t], 1 + t[0], 1 + t[1]) for t in taps)
    #: per group: (scale CB, scale, tap CBs, single tap?, scratch CB for
    #: its tap sum, adds onto the running sum?, parks the running sum in
    #: INTERMED for a later group or the RHS?)
    groups = tuple(
        (scalar_cbs[k], scale, tuple(tap_cb[t] for t in gtaps),
         len(gtaps) == 1, CB_INTERMED if k == 0 else CB_INTERMED2,
         k > 0, k < n_groups - 1 or rhs)
        for k, (scale, gtaps) in enumerate(spec.groups))
    scalars = tuple(zip(scalar_cbs, (scale for scale, _t in spec.groups)))
    dst = spec.rounding == "dst"

    def _reader_kernel(ctx):
        layout: AlignedDomain = ctx.arg("layout")
        buffers = ctx.arg("buffers")
        iterations: int = ctx.arg("iterations")
        sub: SubDomain = ctx.arg("sub")
        barrier: Semaphore = ctx.arg("barrier")
        n_cores: int = ctx.arg("n_cores")
        chunk: int = ctx.arg("chunk")
        shared = ctx.arg("shared")
        align = ctx.costs.dram_alignment
        eb = layout.elem_bytes

        # one constant CB per group, filled once with its scale
        for cb, scale in scalars:
            yield from ctx.cb_reserve_back(cb, 1)
            word = (np.float32(scale).view(np.uint32) if eb == 4
                    else f32_to_bits(np.float32(scale)))
            yield from ctx.l1_store(
                ctx.cb_write_ptr(cb),
                np.full(ctx.core.cbs[cb].page_size // eb, word,
                        dtype=layout.bits_dtype))
            yield from ctx.cb_push_back(cb, 1)

        cols = _chunk_columns(sub, chunk)
        max_w = max(w for _, w in cols)
        slot_bytes = ((max_w + 2) * eb + align - eb + 31) // 32 * 32
        slots = ctx.core.sram.allocate(N_SLOTS * slot_bytes, align=32)
        # Tell the compute kernel where the rotating buffer lives (the
        # paper passes it as a compile argument).
        shared["slots"] = slots
        shared["slot_bytes"] = slot_bytes
        if rhs:
            rhs_buf = ctx.arg("rhs_buf")
            rhs_slot_bytes = (max_w * eb + 31) // 32 * 32
            rhs_slots = ctx.core.sram.allocate(2 * rhs_slot_bytes, align=32)
            shared["rhs_slots"] = rhs_slots
            shared["rhs_slot_bytes"] = rhs_slot_bytes

        def read_row(buf, x0, w, halo_row, slot):
            """One contiguous (w+2)-element aligned row read into a slot."""
            off = layout.stencil_row_offset(halo_row, x0)
            slack = off % align
            yield from ctx.noc_read_buffer(
                buf, off - slack, slots + slot * slot_bytes,
                (w + 2) * eb + slack)
            return slack

        def read_rhs_row(x0, w, interior_row, slot):
            # interior element offsets are 256-bit aligned: no slack needed
            off = layout.elem_offset(interior_row + 1, x0)
            yield from ctx.noc_read_buffer(
                rhs_buf, off, rhs_slots + slot * rhs_slot_bytes, w * eb)

        for it in range(iterations):
            yield from ctx.semaphore_wait(barrier, n_cores * it)
            src_buf = buffers[it % 2]
            for ci, (x0, w) in enumerate(cols):
                # Drain gate: the consumer must have finished the previous
                # column before its slots are overwritten by this prime.
                if ci > 0:
                    yield from ctx.semaphore_wait(
                        SEM_COLUMN, it * len(cols) + ci)
                for cb in in_cbs:
                    yield from ctx.cb_reserve_back(cb, 1)
                slack = 0
                for k in range(3):
                    slack = yield from read_row(src_buf, x0, w, sub.y0 + k,
                                                k % N_SLOTS)
                shared["slack"] = slack
                if rhs:
                    yield from ctx.cb_reserve_back(rhs_cb, 1)
                    yield from read_rhs_row(x0, w, sub.y0, 0)
                for r in range(sub.ny):
                    # Synchronise outstanding reads at the start of the
                    # batch, hand the three-row window to compute, then
                    # prefetch two batches ahead.
                    yield from ctx.noc_async_read_barrier()
                    for cb in in_cbs:
                        yield from ctx.cb_push_back(cb, 1)
                    if rhs:
                        yield from ctx.cb_push_back(rhs_cb, 1)
                    if r + 1 < sub.ny:
                        # The reserve gates slot reuse: with 2-page CBs it
                        # succeeds only once the consumer has popped row
                        # r-1, so overwriting slot (r+3) mod 4 (= halo row
                        # r-1's slot) is provably safe.
                        for cb in in_cbs:
                            yield from ctx.cb_reserve_back(cb, 1)
                        yield from read_row(src_buf, x0, w, sub.y0 + r + 3,
                                            (r + 3) % N_SLOTS)
                        if rhs:
                            yield from ctx.cb_reserve_back(rhs_cb, 1)
                            yield from read_rhs_row(x0, w, sub.y0 + r + 1,
                                                    (r + 1) % 2)

    def _compute_kernel(ctx):
        iterations: int = ctx.arg("iterations")
        sub: SubDomain = ctx.arg("sub")
        chunk: int = ctx.arg("chunk")
        shared = ctx.arg("shared")
        eb = ctx.arg("layout").elem_bytes
        dst0 = 0

        cols = _chunk_columns(sub, chunk)
        for cb in scalar_cbs:
            yield from ctx.cb_wait_front(cb, 1)
        yield from ctx.tile_regs_acquire()
        for _ in range(iterations):
            for _col in cols:
                for r in range(sub.ny):
                    # The fused charge region opens before the input
                    # waits: a wait only *reads* shared CB state, so its
                    # charge can coalesce with the pipeline's (a wait that
                    # actually blocks flushes first and blocks at the
                    # exact unfused instant — see _CtxBase.fused_begin).
                    ctx.fused_begin()
                    for cb in in_cbs:
                        yield from ctx.cb_wait_front(cb, 1)
                    # Zero-copy: point each input CB's unpacker at its tap
                    # in the rotating buffer.
                    sb = shared["slot_bytes"]
                    base = shared["slots"] + shared["slack"]
                    rows = (base + (r % N_SLOTS) * sb,
                            base + ((r + 1) % N_SLOTS) * sb,
                            base + ((r + 2) % N_SLOTS) * sb)
                    for cb, k, off in aliases:
                        yield from ctx.cb_set_rd_ptr(cb, rows[k] + off * eb)

                    if dst:
                        # The rejected ablation (Section IV): accumulate in
                        # the destination registers to skip intermediate
                        # CB packs.
                        for _s, scale, cbs, _one, _w, _add, _park in groups:
                            yield from ctx.copy_tile(cbs[0], 0, dst0)
                            for cb in cbs[1:]:
                                yield from ctx.add_tile_to_dst(cb, 0, dst0)
                            yield from ctx._elapse(
                                DST_RECONFIG_OPS * ctx.costs.fpu_op)
                            ctx.fpu._dst[dst0] = (ctx.fpu._dst[dst0]
                                                  * np.float32(scale)
                                                  ).astype(np.float32)
                        # The pops wake the reader: they must leave the
                        # fused region.
                        yield from ctx.fused_end()
                        for cb in in_cbs:
                            yield from ctx.cb_pop_front(cb, 1)
                        yield from ctx.cb_reserve_back(CB_OUT0, 1)
                        yield from ctx.pack_tile(dst0, CB_OUT0)
                        yield from ctx.cb_push_back(CB_OUT0, 1)
                        continue

                    # The generated FPU program on the aliased rows.  The
                    # chain is core-private (FPU registers plus the
                    # self-looped INTERMED ping-pong buffers), so its
                    # per-op charges stay in the fused region opened above.
                    for scalar, _v, cbs, single, work, add, park in groups:
                        if single:
                            yield from ctx.mul_tiles(scalar, cbs[0], 0, 0,
                                                     dst0)
                        else:
                            # Listing 2: sum the taps through the scratch
                            # CB, then scale.
                            yield from ctx.add_tiles(cbs[0], cbs[1], 0, 0,
                                                     dst0)
                            yield from ctx.cb_reserve_back(work, 1)
                            yield from ctx.pack_tile(dst0, work)
                            yield from ctx.cb_push_back(work, 1)
                            for cb in cbs[2:]:
                                yield from ctx.cb_wait_front(work, 1)
                                yield from ctx.add_tiles(cb, work, 0, 0,
                                                         dst0)
                                yield from ctx.cb_pop_front(work, 1)
                                yield from ctx.cb_reserve_back(work, 1)
                                yield from ctx.pack_tile(dst0, work)
                                yield from ctx.cb_push_back(work, 1)
                            yield from ctx.cb_wait_front(work, 1)
                            yield from ctx.mul_tiles(scalar, work, 0, 0,
                                                     dst0)
                            yield from ctx.cb_pop_front(work, 1)
                        if add:
                            yield from ctx.cb_reserve_back(CB_INTERMED2, 1)
                            yield from ctx.pack_tile(dst0, CB_INTERMED2)
                            yield from ctx.cb_push_back(CB_INTERMED2, 1)
                            yield from ctx.cb_wait_front(CB_INTERMED, 1)
                            yield from ctx.cb_wait_front(CB_INTERMED2, 1)
                            yield from ctx.add_tiles(CB_INTERMED2,
                                                     CB_INTERMED, 0, 0, dst0)
                            yield from ctx.cb_pop_front(CB_INTERMED2, 1)
                            yield from ctx.cb_pop_front(CB_INTERMED, 1)
                        if park:
                            yield from ctx.cb_reserve_back(CB_INTERMED, 1)
                            yield from ctx.pack_tile(dst0, CB_INTERMED)
                            yield from ctx.cb_push_back(CB_INTERMED, 1)
                    if rhs:
                        yield from ctx.cb_wait_front(rhs_cb, 1)
                        yield from ctx.cb_set_rd_ptr(
                            rhs_cb, shared["rhs_slots"]
                            + (r % 2) * shared["rhs_slot_bytes"])
                        yield from ctx.cb_wait_front(CB_INTERMED, 1)
                        yield from ctx.add_tiles(rhs_cb, CB_INTERMED, 0, 0,
                                                 dst0)
                        yield from ctx.cb_pop_front(CB_INTERMED, 1)
                        # the RHS pop wakes the reader: it must leave the
                        # fused region
                        yield from ctx.fused_end()
                        yield from ctx.cb_pop_front(rhs_cb, 1)

                    # OUT0 reserve + pack only mutate state the writer
                    # never reads (the page commits at push), so they fuse
                    # too; the push itself wakes the writer and must not.
                    yield from ctx.cb_reserve_back(CB_OUT0, 1)
                    yield from ctx.pack_tile(dst0, CB_OUT0)
                    yield from ctx.fused_end()
                    yield from ctx.cb_push_back(CB_OUT0, 1)

                    for cb in in_cbs:
                        yield from ctx.cb_pop_front(cb, 1)
                yield from ctx.semaphore_inc(SEM_COLUMN, 1)
        yield from ctx.tile_regs_release()

    return _Kernels(in_cbs, scalar_cbs, rhs_cb, _reader_kernel,
                    _compute_kernel)


def _writer_kernel(ctx):
    layout: AlignedDomain = ctx.arg("layout")
    buffers = ctx.arg("buffers")
    iterations: int = ctx.arg("iterations")
    sub: SubDomain = ctx.arg("sub")
    barrier: Semaphore = ctx.arg("barrier")
    chunk: int = ctx.arg("chunk")

    cols = _chunk_columns(sub, chunk)
    for it in range(iterations):
        dst_buf = buffers[(it + 1) % 2]
        for x0, w in cols:
            for r in range(sub.ny):
                yield from ctx.cb_wait_front(CB_OUT0, 1)
                off = layout.elem_offset(sub.y0 + r + 1, x0)
                yield from ctx.noc_write_buffer(
                    dst_buf, off, ctx.cb_read_ptr(CB_OUT0),
                    w * layout.elem_bytes)
                yield from ctx.noc_async_write_barrier()
                yield from ctx.cb_pop_front(CB_OUT0, 1)
        # Global iteration barrier: every writer increments once.
        yield from ctx.semaphore_inc(barrier, 1)


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

class StencilRunner:
    """Host driver: any :class:`StencilSpec` on the Section-VI dataflow.

    Multi-core (Section VII): the global domain is decomposed over a
    ``cores_y × cores_x`` grid (Table VIII); cores exchange halos
    implicitly through the shared DRAM images, with a global semaphore
    barrier per iteration.  Buffers are interleaved across the 8 banks
    (32 KB pages — the Table-VI sweet spot) unless ``interleaved`` is
    off.

    ``dtype="fp32"`` runs the Wormhole-precision mode: 4-byte elements,
    512-element FPU tiles, lossless packing — the precision upgrade the
    paper's future work targets, runnable today on the simulator.
    """

    def __init__(self, device: GrayskullDevice, problem: LaplaceProblem,
                 spec: StencilSpec, cores_y: int = 1, cores_x: int = 1,
                 chunk: Optional[int] = None, interleaved: bool = True,
                 page_size: int = 32 << 10, dtype: str = "bf16"):
        if not spec.groups:
            raise ValueError("the stencil has no non-zero coefficients")
        if dtype not in ("bf16", "fp32"):
            raise ValueError("dtype must be 'bf16' or 'fp32'")
        self.device = device
        self.problem = problem
        self.spec = spec
        self.cores_y = cores_y
        self.cores_x = cores_x
        self.dtype = dtype
        self.elem_bytes = 2 if dtype == "bf16" else 4
        #: one FPU tile: 1024 BF16 or 512 FP32 elements (16384 bits)
        self.tile_elems = TILE_ELEMS * 2 // self.elem_bytes
        self.chunk = chunk if chunk is not None else self.tile_elems
        self.interleaved = interleaved
        self.page_size = page_size
        self.layout = AlignedDomain(problem, elem_bytes=self.elem_bytes)

    def build_program(self, sim_iters: int, d1, d2,
                      rhs_buf=None) -> Program:
        """Assemble the multi-core Program over the two DRAM buffers.

        Exactly the launch :meth:`run` enqueues (same CB/semaphore/kernel
        creation order, so lint findings and bench invariants match a
        real run); callers that only need the static program — the lint
        sweep, the ``lint_smoke`` benchmark — build it without paying
        for simulation.
        """
        dev = self.device
        kernels = _kernels(self.spec, rhs_buf is not None)
        grid = dev.worker_grid(self.cores_y, self.cores_x)
        subs = split_domain(self.problem.nx, self.problem.ny,
                            self.cores_y, self.cores_x)
        n_cores = self.cores_y * self.cores_x
        barrier = Semaphore(dev.sim, value=0, name="iter_barrier")
        dt = self.dtype

        prog = Program(dev)
        for iy in range(self.cores_y):
            for ix in range(self.cores_x):
                core = grid[iy][ix]
                sub = subs[iy][ix]
                page = min(self.chunk, sub.nx) * self.elem_bytes
                for cb in kernels.in_cbs:
                    CreateCircularBuffer(prog, core, cb, page, IN_PAGES,
                                         dtype=dt)
                for cb in kernels.scalar_cbs:
                    CreateCircularBuffer(prog, core, cb, page, 1, dtype=dt)
                if rhs_buf is not None:
                    CreateCircularBuffer(prog, core, kernels.rhs_cb, page, 2,
                                         dtype=dt)
                CreateCircularBuffer(prog, core, CB_INTERMED, page, 2,
                                     dtype=dt)
                if len(self.spec.groups) > 1:
                    CreateCircularBuffer(prog, core, CB_INTERMED2, page, 2,
                                         dtype=dt)
                CreateCircularBuffer(prog, core, CB_OUT0, page, 4, dtype=dt)
                CreateSemaphore(prog, core, SEM_COLUMN, 0)
                common = dict(layout=self.layout, buffers=[d1, d2],
                              iterations=sim_iters, sub=sub, barrier=barrier,
                              n_cores=n_cores, chunk=self.chunk, shared={})
                if rhs_buf is not None:
                    common["rhs_buf"] = rhs_buf
                CreateKernel(prog, kernels.reader, core, DATA_MOVER_0, common)
                CreateKernel(prog, kernels.compute, core, COMPUTE, common)
                CreateKernel(prog, _writer_kernel, core, DATA_MOVER_1, common)
        return prog

    def run(self, iterations: int,
            sim_iterations: Optional[int] = None,
            read_back: bool = True,
            initial_grid: Optional[np.ndarray] = None,
            rhs: Optional[np.ndarray] = None) -> DeviceRunResult:
        """Run ``iterations`` sweeps, simulating the first
        ``sim_iterations`` and extrapolating time and energy.

        ``initial_grid`` (a full ``(ny+2, nx+2)`` halo grid of element
        bits) overrides the problem's default initial state — e.g. a
        tracer plume for an advection study.  ``rhs`` (a ``(ny, nx)``
        interior field) adds an inhomogeneous term to every sweep:
        ``out = Σ gₖ + rhs``.
        """
        sim_iters = simulated_iterations(iterations, sim_iterations)
        if rhs is not None and self.spec.rounding == "dst":
            raise ValueError("dst rounding takes no rhs field")
        dev = self.device
        img = self.layout.pack(initial_grid)
        mk = dict(interleaved=True, page_size=self.page_size) \
            if self.interleaved else dict(bank_id=0)
        d1 = create_buffer(dev, self.layout.nbytes, **mk)
        d2 = create_buffer(dev, self.layout.nbytes, **mk)
        t_in = EnqueueWriteBuffer(dev, d1, img)
        t_in += EnqueueWriteBuffer(dev, d2, img)

        rhs_buf = None
        if rhs is not None:
            bits_dtype = self.layout.bits_dtype
            r = np.asarray(rhs)
            if self.dtype == "fp32" and r.dtype == np.float32:
                r = r.view(np.uint32)
            r = r.astype(bits_dtype, copy=False)
            if r.shape != (self.problem.ny, self.problem.nx):
                raise ValueError(
                    f"rhs must be ({self.problem.ny},{self.problem.nx}) "
                    f"{self.dtype} bits, got {r.shape} {r.dtype}")
            halo = np.zeros((self.problem.ny + 2, self.problem.nx + 2),
                            dtype=bits_dtype)
            halo[1:-1, 1:-1] = r
            rhs_buf = create_buffer(dev, self.layout.nbytes, **mk)
            t_in += EnqueueWriteBuffer(dev, rhs_buf, self.layout.pack(halo))

        return run_sweeps(dev, self.build_program(sim_iters, d1, d2, rhs_buf),
                          self.layout, iterations, sim_iters, t_in=t_in,
                          final=d1 if iterations % 2 == 0 else d2,
                          read_back=read_back)

"""The Tensix matrix/vector FPU: tile math on BF16 CB pages.

The FPU is a 16384-bit wide engine: one operation covers 1024 BF16
elements (a 32×32 tile).  tt-metal drives it through the three compute
baby cores — unpack (CB → tile registers), math (registers → registers),
pack (registers → CB) — which the programmer sees as a single kernel.

This module is purely functional: it moves and transforms bits between
circular-buffer pages and the 16 destination tile registers.  Operation
*timing* is charged by the compute kernel context
(:class:`repro.ttmetal.kernel_api.ComputeCtx`), one ``fpu_op`` per tile
operation, as calibrated from Table II's compute-only row.

Internal precision: operands are unpacked to float32, math runs at
float32, and ``pack_tile`` rounds once to BF16 — matching the hardware
contract that each CB-to-CB pass costs exactly one rounding.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.arch.cb import CircularBuffer
from repro.dtypes.bf16 import bits_to_f32, f32_to_bits
from repro.dtypes.tiles import TILE_ELEMS

__all__ = ["Fpu", "FpuError", "N_DST_REGISTERS"]

#: Destination register file: 16 tile registers (half-sync mode exposes 8,
#: but the paper's kernels only ever use dst0).
N_DST_REGISTERS = 16


class FpuError(RuntimeError):
    """FPU protocol violation (unacquired registers, size mismatch, ...)."""


class Fpu:
    """Functional tile engine of one Tensix core."""

    def __init__(self):
        self._dst: List[Optional[np.ndarray]] = [None] * N_DST_REGISTERS
        self._acquired = False
        self.ops = 0          #: tile operations executed (for reports)
        self.packs = 0

    # -- register file management (tile_regs_acquire / release) -----------
    def acquire_dst(self) -> None:
        """``tile_regs_acquire``: claim the destination registers."""
        if self._acquired:
            raise FpuError("destination registers already acquired")
        self._acquired = True

    def release_dst(self) -> None:
        """``tile_regs_release``: free the registers (contents invalidated)."""
        if not self._acquired:
            raise FpuError("destination registers not acquired")
        self._acquired = False
        self._dst = [None] * N_DST_REGISTERS

    def _check_dst(self, idx: int) -> None:
        if not self._acquired:
            raise FpuError("operation requires acquired destination registers")
        if not 0 <= idx < N_DST_REGISTERS:
            raise FpuError(f"dst register {idx} out of range")

    def dst_value_f32(self, idx: int) -> np.ndarray:
        """Inspect a register (testing hook); float32 copy."""
        self._check_dst(idx)
        if self._dst[idx] is None:
            raise FpuError(f"dst register {idx} is empty")
        return self._dst[idx].copy()

    # -- unpack helpers ------------------------------------------------------
    @staticmethod
    def _unpack(cb: CircularBuffer, tile_index: int) -> np.ndarray:
        """CB page → float32 tile (the unpacker honours ``set_rd_ptr``).

        Pages up to one tile (2048 B: 1024 BF16 or 512 FP32 elements — the
        same 16384-bit FPU width) are accepted: a ragged chunk still
        occupies a full FPU pass but carries fewer elements.  FP32 pages
        (the Wormhole-precision mode) unpack losslessly.
        """
        if cb.page_size % 2 or cb.page_size > TILE_ELEMS * 2:
            raise FpuError(
                f"{cb.name}: FPU pages must be even-sized and at most "
                f"{TILE_ELEMS * 2} B, got {cb.page_size}")
        # Callers write into the returned tile, so it must never alias L1:
        # the FP32 view needs its copy; ``bits_to_f32`` allocates anyway.
        page = cb.front_view_bits(tile_index)
        if cb.dtype == "fp32":
            return page.copy().view(np.float32)
        return bits_to_f32(page)

    def _binary(self, cb_a: CircularBuffer, cb_b: CircularBuffer,
                ia: int, ib: int, dst: int, op: Callable) -> None:
        self._check_dst(dst)
        a = self._unpack(cb_a, ia)
        self._dst[dst] = op(a, self._unpack(cb_b, ib), out=a)
        self.ops += 1

    # -- tt-metal compute API surface -----------------------------------------
    def add_tiles(self, cb_a: CircularBuffer, cb_b: CircularBuffer,
                  ia: int, ib: int, dst: int) -> None:
        """``add_tiles``: dst = cb_a[ia] + cb_b[ib] (elementwise)."""
        self._binary(cb_a, cb_b, ia, ib, dst, np.add)

    def sub_tiles(self, cb_a: CircularBuffer, cb_b: CircularBuffer,
                  ia: int, ib: int, dst: int) -> None:
        """``sub_tiles``: dst = cb_a[ia] − cb_b[ib]."""
        self._binary(cb_a, cb_b, ia, ib, dst, np.subtract)

    def mul_tiles(self, cb_a: CircularBuffer, cb_b: CircularBuffer,
                  ia: int, ib: int, dst: int) -> None:
        """``mul_tiles``: dst = cb_a[ia] × cb_b[ib]."""
        self._binary(cb_a, cb_b, ia, ib, dst, np.multiply)

    def copy_tile(self, cb: CircularBuffer, idx: int, dst: int) -> None:
        """``copy_tile``: unpack one CB tile into a register unchanged."""
        self._check_dst(dst)
        self._dst[dst] = self._unpack(cb, idx)
        self.ops += 1

    def add_tiles_to_dst(self, cb: CircularBuffer, idx: int, dst: int) -> None:
        """Accumulate a CB tile onto a register.

        Models the destination-register accumulation mode the authors
        experimented with ("initialising the maths addition operators to
        accumulate using values held in the destination registers") — kept
        as an ablation; the paper found it slower end-to-end.
        """
        self._check_dst(dst)
        if self._dst[dst] is None:
            raise FpuError(f"accumulate into empty dst register {dst}")
        self._dst[dst] = (self._dst[dst] + self._unpack(cb, idx)).astype(np.float32)
        self.ops += 1

    # -- SFPU-style elementwise unary ops --------------------------------------
    #: the unary functions the paper lists the FPU supporting ("squares,
    #: logs, trigonometric functions ... ReLU, sigmoid").
    UNARY_OPS = {
        "exp": np.exp,
        "log": np.log,
        "sqrt": np.sqrt,
        "square": np.square,
        "abs": np.abs,
        "sin": np.sin,
        "cos": np.cos,
        "reciprocal": np.reciprocal,
        "relu": lambda x: np.maximum(x, 0.0),
        "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    }

    def unary_tile(self, op: str, cb: CircularBuffer, idx: int,
                   dst: int) -> None:
        """``exp_tile`` / ``relu_tile`` / ... : dst = op(cb[idx]).

        IEEE edge cases (log of a negative, 1/0, ...) produce NaN/inf
        exactly as hardware does; NumPy's warnings are suppressed.
        """
        self._check_dst(dst)
        try:
            fn = self.UNARY_OPS[op]
        except KeyError:
            raise FpuError(
                f"unknown unary op {op!r}; supported: "
                f"{sorted(self.UNARY_OPS)}") from None
        with np.errstate(all="ignore"):
            self._dst[dst] = fn(self._unpack(cb, idx)).astype(np.float32)
        self.ops += 1

    # -- reductions --------------------------------------------------------------
    def reduce_tile(self, cb: CircularBuffer, idx: int, dst: int,
                    kind: str = "sum") -> float:
        """``reduce_tile``: scalar reduction of a tile.

        As on hardware (REDUCE_SCALAR), the result lands in element 0 of
        the destination register with the rest zeroed; the value is also
        returned for host-side convenience.
        """
        self._check_dst(dst)
        data = self._unpack(cb, idx)
        if kind == "sum":
            val = np.float32(data.sum(dtype=np.float64))
        elif kind == "max":
            val = np.float32(data.max())
        elif kind == "absmax":
            val = np.float32(np.abs(data).max())
        else:
            raise FpuError(f"unknown reduction {kind!r} "
                           "(sum / max / absmax)")
        out = np.zeros_like(data)
        out.flat[0] = val
        self._dst[dst] = out
        self.ops += 1
        return float(val)

    # -- 2-D tile ops ---------------------------------------------------------
    def _unpack_2d(self, cb: CircularBuffer, idx: int) -> np.ndarray:
        data = self._unpack(cb, idx)
        if data.size != TILE_ELEMS:
            raise FpuError(
                f"{cb.name}: 2-D tile ops need full {TILE_ELEMS}-element "
                f"pages, got {data.size}")
        return data.reshape(32, 32)

    def matmul_tiles(self, cb_a: CircularBuffer, cb_b: CircularBuffer,
                     ia: int, ib: int, dst: int,
                     accumulate: bool = False) -> None:
        """``matmul_tiles``: dst (+)= cb_a[ia] @ cb_b[ib] on 32×32 tiles.

        The headline ML primitive of the Tensix FPU; ``accumulate=True``
        chains partial products across the K dimension.
        """
        self._check_dst(dst)
        prod = (self._unpack_2d(cb_a, ia) @ self._unpack_2d(cb_b, ib)
                ).astype(np.float32)
        if accumulate:
            if self._dst[dst] is None:
                raise FpuError("matmul accumulate into empty register")
            prod = (self._dst[dst].reshape(32, 32) + prod).astype(np.float32)
        self._dst[dst] = prod
        self.ops += 1

    def transpose_tile(self, cb: CircularBuffer, idx: int, dst: int) -> None:
        """``transpose_wh``: dst = cb[idx]ᵀ on a 32×32 tile."""
        self._check_dst(dst)
        self._dst[dst] = np.ascontiguousarray(
            self._unpack_2d(cb, idx).T).astype(np.float32)
        self.ops += 1

    def pack_tile(self, dst: int, cb_out: CircularBuffer,
                  page_offset: int = 0) -> None:
        """``pack_tile``: round a register to BF16 into a reserved CB page."""
        self._check_dst(dst)
        if self._dst[dst] is None:
            raise FpuError(f"pack of empty dst register {dst}")
        out = cb_out.back_view_bits(page_offset)
        if cb_out.dtype == "fp32":
            bits = np.ascontiguousarray(
                self._dst[dst], dtype=np.float32).ravel().view(np.uint32)
        else:
            bits = f32_to_bits(self._dst[dst]).ravel()
        if out.size != bits.size:
            raise FpuError(
                f"{cb_out.name}: pack size mismatch — register holds "
                f"{bits.size} elements, page holds {out.size}")
        out[:] = bits
        self.packs += 1

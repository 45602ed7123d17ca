"""Software bfloat16: bit-exact conversions and rounded arithmetic.

BF16 is the top 16 bits of an IEEE-754 binary32.  Conversion from float32
uses round-to-nearest-even on the truncated 16 bits, which is what the
Grayskull's packer implements.  NaNs are quietened (the payload could
otherwise round to infinity).

Arithmetic helpers model the Tensix FPU contract used by the paper's
kernels: operands are **unpacked** from BF16 to the internal format,
computed at float32 precision, and the result is **packed** back to BF16
(one rounding per ``pack_tile``).  This matches tt-metal's
``add_tiles``/``mul_tiles`` + ``pack_tile`` sequence in Listing 2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BF16_BYTES",
    "f32_to_bits",
    "bits_to_f32",
    "bf16_round",
    "bf16_add",
    "bf16_sub",
    "bf16_mul",
    "is_bf16_exact",
]

#: Storage size of one BF16 element in DRAM/SRAM.
BF16_BYTES = 2

def f32_to_bits(x: np.ndarray | float) -> np.ndarray:
    """Convert float32 values to BF16 bit patterns (``uint16``).

    Rounds to nearest, ties to even, exactly as hardware truncation with a
    rounding bias does.  Input is converted to ``float32`` first (so Python
    floats and float64 arrays are accepted); output has the same shape.
    """
    arr = np.asarray(x, dtype=np.float32)
    f32 = np.ascontiguousarray(arr)  # promotes 0-d input to 1-d
    u32 = f32.view(np.uint32)
    # round-to-nearest-even: add 0x7FFF plus the LSB of the retained part,
    # in place on one temporary (the pack runs once per tile).
    t = u32 >> 16
    t &= 1
    t += 0x7FFF
    t += u32
    t >>= 16
    bits = t.astype(np.uint16)
    # NaN inputs: rounding bias may carry into the exponent; force a quiet
    # NaN with the sign preserved instead.
    nan = np.isnan(f32)
    if nan.any():
        bits[nan] = ((u32[nan] >> 16) & 0x8000) | 0x7FC0
    return bits.reshape(arr.shape)


def bits_to_f32(bits: np.ndarray) -> np.ndarray:
    """Expand BF16 bit patterns (``uint16``) to exact float32 values.

    The result never shares memory with ``bits``: callers (the FPU's
    in-place tile ops) may write into it.
    """
    b = np.asarray(bits)
    if b.dtype != np.uint16:
        raise TypeError(f"BF16 bit patterns must be uint16, got {b.dtype}")
    return np.left_shift(b, 16, dtype=np.uint32).view(np.float32)


def bf16_round(x: np.ndarray | float) -> np.ndarray:
    """Round float values to the nearest representable BF16, as float32."""
    return bits_to_f32(f32_to_bits(x))


def is_bf16_exact(x: np.ndarray | float) -> bool:
    """Whether every value is exactly representable in BF16."""
    f32 = np.asarray(x, dtype=np.float32)
    r = bf16_round(f32)
    return bool(np.array_equal(r, f32, equal_nan=True))


def _binary_op(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """unpack → float32 compute → pack; operands are BF16 bit patterns.

    Overflow to ±inf and inf−inf → NaN are the hardware's IEEE semantics,
    not errors, so NumPy's warnings are suppressed here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return f32_to_bits(op(bits_to_f32(a), bits_to_f32(b)))


def bf16_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise BF16 add on bit patterns (one output rounding)."""
    return _binary_op(a, b, np.add)


def bf16_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise BF16 subtract on bit patterns."""
    return _binary_op(a, b, np.subtract)


def bf16_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise BF16 multiply on bit patterns."""
    return _binary_op(a, b, np.multiply)

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

import math

import numpy as np

__all__ = [
    "BF16_BYTES",
    "f32_to_bits",
    "bits_to_f32",
    "bf16_round",
    "bf16_round_inplace",
    "bf16_add",
    "bf16_sub",
    "bf16_mul",
    "is_bf16_exact",
]

#: Storage size of one BF16 element in DRAM/SRAM.
BF16_BYTES = 2


def _rne(f32: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round float32 ``f32`` to nearest-even BF16, in the uint32 domain.

    The one definition of the pack's rounding: the BF16 pattern lands in
    the upper half of the returned ``uint32`` array (the low half is
    left over from the bias), written into ``out`` when given (which may
    be ``f32``'s own bits) or else into a fresh temporary.  NaNs become
    the pack's quiet NaN ``sign | 0x7FC00000``: the bias could otherwise
    carry a NaN's payload into the exponent or the sign.
    """
    u32 = f32.view(np.uint32)
    nan = None
    # one reduction screens for NaN (minimum propagates it)
    if f32.size and math.isnan(np.minimum.reduce(f32, axis=None)):
        nan = np.isnan(f32)
        quiet = (u32[nan] & 0x8000_0000) | 0x7FC0_0000
    # round-to-nearest-even: add 0x7FFF plus the LSB of the retained part
    bias = u32 >> 16
    bias &= 1
    bias += 0x7FFF
    out = np.add(u32, bias, out=bias if out is None else out)
    if nan is not None:
        out[nan] = quiet
    return out


def f32_to_bits(x: np.ndarray | float) -> np.ndarray:
    """Convert float32 values to BF16 bit patterns (``uint16``).

    Rounds to nearest, ties to even, exactly as hardware truncation with a
    rounding bias does.  Input is converted to ``float32`` first (so Python
    floats and float64 arrays are accepted); output has the same shape.
    """
    arr = np.asarray(x, dtype=np.float32)
    t = _rne(np.ascontiguousarray(arr))  # promotes 0-d input to 1-d
    t >>= 16
    return t.astype(np.uint16).reshape(arr.shape)


def bits_to_f32(bits: np.ndarray) -> np.ndarray:
    """Expand BF16 bit patterns (``uint16``) to exact float32 values.

    The result never shares memory with ``bits``: callers (the FPU's
    in-place tile ops) may write into it.
    """
    b = np.asarray(bits)
    if b.dtype != np.uint16:
        raise TypeError(f"BF16 bit patterns must be uint16, got {b.dtype}")
    return np.left_shift(b, 16, dtype=np.uint32).view(np.float32)


def bf16_round_inplace(f32: np.ndarray) -> np.ndarray:
    """Round a float32 array to the nearest BF16 values, in place.

    Equal to ``bits_to_f32(f32_to_bits(f32))`` bit for bit, NaNs
    included, without leaving float32: the host references keep their
    grids in float32 and call this where the device packs.  ``f32`` may
    be any writable float32 array or view (0-d and strided too); it is
    returned.
    """
    if f32.dtype != np.float32:
        raise TypeError(f"expected a float32 array, got {f32.dtype}")
    u32 = _rne(f32, out=f32.view(np.uint32))
    u32 &= 0xFFFF_0000
    return f32


def bf16_round(x: np.ndarray | float) -> np.ndarray:
    """Round float values to the nearest representable BF16, as float32."""
    return bf16_round_inplace(np.array(x, dtype=np.float32))


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

"""BF16 conversion and arithmetic: unit + property tests."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes.bf16 import (
    bf16_add,
    bf16_mul,
    bf16_round,
    bf16_sub,
    bits_to_f32,
    f32_to_bits,
    is_bf16_exact,
)

finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


class TestConversions:
    @pytest.mark.parametrize("value,bits", [
        (0.0, 0x0000),
        (1.0, 0x3F80),
        (-1.0, 0xBF80),
        (0.25, 0x3E80),
        (2.0, 0x4000),
        (float("inf"), 0x7F80),
        (float("-inf"), 0xFF80),
    ])
    def test_known_encodings(self, value, bits):
        assert int(f32_to_bits(value)) == bits

    def test_round_to_nearest_even_up(self):
        # 1.0 + 1.5*2^-8: the truncated tail is > half ULP -> rounds up.
        x = np.float32(1.0) + np.float32(1.5 * 2 ** -8)
        assert int(f32_to_bits(x)) == 0x3F81

    def test_round_to_nearest_even_tie(self):
        # exactly half an ULP above 1.0: tie -> round to even (stay at 1.0)
        x = np.uint32(0x3F80_8000).view(np.float32)  # 1.0 + 2^-8
        assert int(f32_to_bits(x)) == 0x3F80  # LSB even, stays
        # half ULP above the next representable (odd LSB) -> rounds up
        y = np.uint32(0x3F81_8000).view(np.float32)
        assert int(f32_to_bits(y)) == 0x3F82

    def test_nan_quietened(self):
        bits = f32_to_bits(float("nan"))
        f = bits_to_f32(bits)
        assert np.isnan(f)

    def test_nan_payload_does_not_round_to_inf(self):
        # a NaN whose payload would carry into the exponent when biased
        nan = np.uint32(0x7F80_FFFF).view(np.float32)
        out = bits_to_f32(f32_to_bits(nan))
        assert np.isnan(out)

    def test_negative_nan_keeps_sign(self):
        nan = np.uint32(0xFF80_0001).view(np.float32)
        bits = int(f32_to_bits(nan))
        assert bits & 0x8000

    def test_bits_to_f32_requires_uint16(self):
        with pytest.raises(TypeError):
            bits_to_f32(np.zeros(4, dtype=np.int32))

    _GRID = np.linspace(-3.0, 3.0, 30)  # float64; most values round

    @pytest.mark.parametrize("x", [
        _GRID.astype(np.float32).reshape(3, 10),
        np.float32(1.1),
        1.1,
        _GRID.astype(np.float32).reshape(3, 10)[:, ::2],
        _GRID.astype(np.float32).reshape(3, 10).T,
        _GRID.reshape(3, 10),
    ], ids=["contiguous", "0d-float32", "python-float", "strided",
            "transposed", "float64"])
    def test_shape_preserved(self, x):
        bits = f32_to_bits(x)
        # a 0-d input gives a 0-d array, not a NumPy scalar
        assert isinstance(bits, np.ndarray) and bits.dtype == np.uint16
        assert bits.shape == np.shape(x)
        assert np.shape(bits_to_f32(bits)) == np.shape(x)
        # views and float64 pack like a contiguous float32 copy
        assert np.array_equal(bits, f32_to_bits(np.array(x, np.float32)))

    def test_subnormal_f32_flushes_toward_zero_range(self):
        tiny = np.float32(1e-45)
        out = float(bf16_round(tiny))
        assert abs(out) <= 2e-45

    def test_is_bf16_exact(self):
        assert is_bf16_exact(1.0)
        assert is_bf16_exact(0.25)
        assert not is_bf16_exact(1.0 + 2 ** -10)


@settings(max_examples=300, deadline=None)
@given(finite_f32)
def test_roundtrip_idempotent(x):
    """bf16(bf16(x)) == bf16(x): rounding is a projection."""
    once = bf16_round(x)
    twice = bf16_round(once)
    assert np.array_equal(once, twice, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(finite_f32)
def test_rounding_error_within_half_ulp(x):
    """|bf16(x) - x| <= 2^-8 * |x| for normal values (half ULP of 7-bit
    mantissa), with an absolute floor near the subnormal range."""
    r = float(bf16_round(x))
    if math.isinf(r):  # overflow to inf at the top of the range is correct
        assert abs(x) > 3.3e38
        return
    tol = max(abs(x) * 2 ** -8, 2 ** -133)
    assert abs(r - x) <= tol


@settings(max_examples=300, deadline=None)
@given(finite_f32)
def test_exact_values_survive(x):
    """A value already representable in BF16 converts losslessly."""
    r = bf16_round(x)
    assert np.array_equal(bf16_round(r), r, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(finite_f32, finite_f32)
def test_add_commutative(a, b):
    pa, pb = f32_to_bits(a), f32_to_bits(b)
    assert np.array_equal(bf16_add(pa, pb), bf16_add(pb, pa), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(finite_f32, finite_f32)
def test_mul_commutative(a, b):
    pa, pb = f32_to_bits(a), f32_to_bits(b)
    assert np.array_equal(bf16_mul(pa, pb), bf16_mul(pb, pa), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(finite_f32)
def test_add_zero_identity(a):
    pa = f32_to_bits(a)
    zero = f32_to_bits(0.0)
    out = bits_to_f32(bf16_add(pa, zero))
    # value identity (bit identity would fail only for -0.0 + 0.0 = +0.0,
    # which IEEE mandates)
    assert np.array_equal(out, bits_to_f32(pa), equal_nan=True) or (
        float(out) == 0.0 and float(bits_to_f32(pa)) == 0.0)


@settings(max_examples=200, deadline=None)
@given(finite_f32)
def test_sub_self_is_zero(a):
    pa = f32_to_bits(a)
    if not np.isfinite(bits_to_f32(pa)):
        return  # f32 values above the BF16 range round to inf; inf-inf is nan
    out = float(bits_to_f32(bf16_sub(pa, pa)))
    assert out == 0.0


class TestArithmeticSemantics:
    def test_single_rounding_per_op(self):
        """The op computes at f32 then rounds once — catch double rounding."""
        a = f32_to_bits(np.float32(1.0))
        b = f32_to_bits(np.float32(2 ** -9))   # half a BF16 ULP of 1.0
        # at f32 the sum is exact: 1.001953125; rounding ties-to-even -> 1.0
        out = bits_to_f32(bf16_add(a, b))
        assert float(out) == 1.0

    def test_mul_by_quarter_matches_fpu_contract(self):
        vals = np.array([1.0, 2.0, 3.0, 100.0], dtype=np.float32)
        q = np.broadcast_to(f32_to_bits(0.25), vals.shape)
        out = bits_to_f32(bf16_mul(q, f32_to_bits(vals)))
        assert np.array_equal(out, bf16_round(vals * 0.25))

    def test_vector_shapes(self):
        a = f32_to_bits(np.ones((32, 32), dtype=np.float32))
        b = f32_to_bits(np.full((32, 32), 2.0, dtype=np.float32))
        out = bits_to_f32(bf16_add(a, b))
        assert out.shape == (32, 32)
        assert np.all(out == 3.0)

"""Property-based tests for the BF16 software model.

The packer's round-to-nearest-even is checked against an *independent*
reference — exact integer arithmetic on the float32 bit pattern — over
the full uint16 space (exhaustive), a seeded random float32 sweep, and
(when hypothesis is installed) adversarial generated cases.  Arithmetic
helpers are checked for the algebraic properties the hardware contract
guarantees: commutativity of add/mul, the sub/add-negation identity,
and the multiplicative/additive identities.
"""

import warnings

import numpy as np
import pytest

from repro.dtypes.bf16 import (
    bf16_add,
    bf16_mul,
    bf16_round,
    bf16_round_inplace,
    bf16_sub,
    bits_to_f32,
    f32_to_bits,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False


def rne_reference(u32: int) -> int:
    """Round a float32 bit pattern to BF16 bits, by integer arithmetic.

    Keep the top 16 bits; the discarded low half decides: above the
    halfway point rounds up, below truncates, exactly halfway goes to
    the even (LSB-zero) candidate.  NaNs quieten to ``sign | 0x7FC0``.
    This deliberately shares no code with ``f32_to_bits`` (which uses
    the hardware's bias-add trick).
    """
    exp = u32 & 0x7F80_0000
    man = u32 & 0x007F_FFFF
    if exp == 0x7F80_0000 and man:
        return ((u32 >> 16) & 0x8000) | 0x7FC0
    low = u32 >> 16
    rem = u32 & 0xFFFF
    if rem > 0x8000 or (rem == 0x8000 and (low & 1)):
        low += 1
    return low & 0xFFFF


def _check_against_reference(u32s: np.ndarray) -> None:
    f32 = u32s.astype(np.uint32).view(np.float32)
    got = f32_to_bits(f32)
    want = np.array([rne_reference(int(u)) for u in u32s],
                    dtype=np.uint16)
    mismatch = np.nonzero(got != want)[0]
    assert mismatch.size == 0, (
        f"{mismatch.size} mismatches; first at bits "
        f"0x{int(u32s[mismatch[0]]):08X}: got 0x{int(got[mismatch[0]]):04X} "
        f"want 0x{int(want[mismatch[0]]):04X}")


def _upper_half_patterns() -> np.ndarray:
    """Every upper half with each low half that picks a rounding class:
    exact, just above zero, just below, at and just above half, all
    ones (393,216 float32 bit patterns)."""
    tops = np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)
    lows = np.array([0x0000, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF],
                    dtype=np.uint32)
    return (tops[:, None] | lows).ravel()


class TestRoundToNearestEven:
    def test_exhaustive_upper_half_patterns(self):
        """This covers ties of both LSB parities, carries into the
        exponent and into ±inf, and NaNs whose top 16 bits read as
        ±inf."""
        _check_against_reference(_upper_half_patterns())

    def test_unpack_exhaustive(self):
        """Every BF16 pattern, NaNs included, widens to ``u16 << 16``."""
        bits = np.arange(1 << 16, dtype=np.uint16)
        want = np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)
        assert np.array_equal(bits_to_f32(bits).view(np.uint32), want)

    def test_seeded_random_sweep(self):
        """200k seeded random bit patterns match the integer reference."""
        rng = np.random.default_rng(0xB16)
        _check_against_reference(rng.integers(0, 1 << 32, size=200_000,
                                              dtype=np.uint32))

    def test_halfway_ties_go_to_even(self):
        """Patterns ending exactly in 0x8000 round to the even candidate."""
        rng = np.random.default_rng(0xE7E)
        tops = rng.integers(0, 1 << 16, size=4096, dtype=np.uint32)
        # keep exponent < 0xFF so no NaN/inf lands in the tie set
        tops = tops[((tops >> 7) & 0xFF) != 0xFF]
        _check_against_reference((tops << np.uint32(16)) | np.uint32(0x8000))

    def test_nan_quietening(self):
        """Every NaN input becomes a quiet NaN with its sign preserved."""
        rng = np.random.default_rng(7)
        man = rng.integers(1, 1 << 23, size=1000, dtype=np.uint32)
        sign = rng.integers(0, 2, size=1000, dtype=np.uint32) << np.uint32(31)
        nans = sign | np.uint32(0x7F80_0000) | man
        out = f32_to_bits(nans.view(np.float32))
        assert np.array_equal(out & np.uint16(0x7FFF), np.full(1000, 0x7FC0,
                                                               np.uint16))
        assert np.array_equal((out >> 14) & 1, np.ones(1000, np.uint16))
        assert np.array_equal(out >> 15, (sign >> 31).astype(np.uint16))

    def test_roundtrip_is_identity_on_bf16_values(self):
        """pack(unpack(b)) == b for every non-NaN BF16 pattern, and
        canonicalises every NaN pattern to sign|0x7FC0."""
        bits = np.arange(1 << 16, dtype=np.uint16)
        out = f32_to_bits(bits_to_f32(bits))
        is_nan = ((bits & 0x7F80) == 0x7F80) & ((bits & 0x007F) != 0)
        expect = np.where(is_nan, (bits & 0x8000) | np.uint16(0x7FC0), bits)
        assert np.array_equal(out, expect)


class TestRoundInPlace:
    """``bf16_round_inplace`` is the pack and unpack without leaving
    float32: the host references call it where the device packs."""

    def test_exhaustive_matches_pack_unpack(self):
        """Every NaN payload and sign, ±inf, overflow to inf and
        subnormals: bit-equal to ``bits_to_f32(f32_to_bits(x))``."""
        x = _upper_half_patterns().view(np.float32)
        want = bits_to_f32(f32_to_bits(x)).view(np.uint32)
        y = x.copy()
        assert bf16_round_inplace(y) is y
        assert np.array_equal(y.view(np.uint32), want)

    def test_zero_d_array(self):
        for u32 in (0x3F80_8001, 0x7F7F_FFFF, 0xFFC1_2345, 0x0000_8000):
            x = np.array(u32, dtype=np.uint32).view(np.float32)
            want = bits_to_f32(f32_to_bits(x)).view(np.uint32)
            bf16_round_inplace(x)
            assert x.shape == () and x.view(np.uint32) == want

    def test_strided_view_rounds_only_its_elements(self):
        rng = np.random.default_rng(0x5EED)
        grid = rng.integers(0, 1 << 32, (12, 40), dtype=np.uint32)
        f32 = grid.view(np.float32)
        view = f32[1:-1:2, 3::3]
        want = grid.copy()
        want[1:-1:2, 3::3] = bits_to_f32(f32_to_bits(view)).view(np.uint32)
        bf16_round_inplace(view)
        assert np.array_equal(grid, want)

    def test_no_warning(self):
        x = _upper_half_patterns().view(np.float32).copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bf16_round_inplace(x)
            bf16_round_inplace(np.empty(0, np.float32))

    def test_rejects_other_dtypes(self):
        with pytest.raises(TypeError, match="float32"):
            bf16_round_inplace(np.zeros(4))


def _random_bf16_bits(rng, n, finite=False):
    bits = rng.integers(0, 1 << 16, size=n, dtype=np.uint16)
    if finite:
        exp = (bits >> 7) & 0xFF
        bits = bits[exp != 0xFF]
    return bits


class TestArithmeticProperties:
    def test_add_mul_commute(self):
        rng = np.random.default_rng(11)
        a = _random_bf16_bits(rng, 20_000, finite=True)
        b = _random_bf16_bits(rng, 20_000, finite=True)[:a.size]
        a = a[:b.size]
        assert np.array_equal(bf16_add(a, b), bf16_add(b, a))
        assert np.array_equal(bf16_mul(a, b), bf16_mul(b, a))

    def test_sub_is_add_of_negation(self):
        rng = np.random.default_rng(13)
        a = _random_bf16_bits(rng, 20_000, finite=True)
        b = _random_bf16_bits(rng, 20_000, finite=True)[:a.size]
        a = a[:b.size]
        assert np.array_equal(bf16_sub(a, b),
                              bf16_add(a, b ^ np.uint16(0x8000)))

    def test_additive_identity(self):
        """a + (+0) == a for every BF16 value except -0 (IEEE: -0 + +0
        is +0 under round-to-nearest)."""
        bits = np.arange(1 << 16, dtype=np.uint16)
        finite_nonneg0 = (((bits >> 7) & 0xFF) != 0xFF) & (bits != 0x8000)
        a = bits[finite_nonneg0]
        zero = np.zeros_like(a)
        assert np.array_equal(bf16_add(a, zero), a)
        minus0 = np.array([0x8000], dtype=np.uint16)
        assert bf16_add(minus0, np.array([0], np.uint16))[0] == 0

    def test_multiplicative_identity(self):
        """a * 1 == a for every non-NaN BF16 value, including ±0/±inf."""
        bits = np.arange(1 << 16, dtype=np.uint16)
        is_nan = ((bits & 0x7F80) == 0x7F80) & ((bits & 0x007F) != 0)
        a = bits[~is_nan]
        one = np.full_like(a, f32_to_bits(np.float32(1.0)))
        assert np.array_equal(bf16_mul(a, one), a)

    def test_single_rounding_matches_bf16_round(self):
        """bf16_add == round(unpack(a) + unpack(b)): one output rounding."""
        rng = np.random.default_rng(17)
        a = _random_bf16_bits(rng, 20_000, finite=True)
        b = _random_bf16_bits(rng, 20_000, finite=True)[:a.size]
        a = a[:b.size]
        with np.errstate(over="ignore"):
            direct = f32_to_bits(bits_to_f32(a) + bits_to_f32(b))
        assert np.array_equal(bf16_add(a, b), direct)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestHypothesisProperties:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_any_bit_pattern_matches_reference(self, u32):
        _check_against_reference(np.array([u32], dtype=np.uint32))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.floats(width=32, allow_nan=True, allow_infinity=True))
    def test_any_float_matches_reference(self, x):
        u32 = np.float32(x).view(np.uint32)
        _check_against_reference(np.array([u32], dtype=np.uint32))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(width=32, allow_nan=False, allow_infinity=False),
           st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_add_commutes_and_rounds_once(self, x, y):
        a = f32_to_bits(np.float32(x)).reshape(1)
        b = f32_to_bits(np.float32(y)).reshape(1)
        ab, ba = bf16_add(a, b), bf16_add(b, a)
        assert np.array_equal(ab, ba)
        with np.errstate(over="ignore"):
            want = f32_to_bits(bits_to_f32(a) + bits_to_f32(b))
        assert np.array_equal(ab, want)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_round_is_idempotent(self, x):
        once = bf16_round(np.float32(x))
        assert np.array_equal(bf16_round(once), once)

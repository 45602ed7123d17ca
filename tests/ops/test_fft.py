"""Radix-2 FFT pencils: float32 mirror bit-exact, numpy.fft within ULP.

Two-level determinism contract: the device readback must be
*bit-identical* to :func:`fft_reference_bits` (a NumPy replay of the
exact float32 butterfly sequence), and that mirror must agree with
``numpy.fft`` computed in complex128 within the calibrated
:data:`FFT_ULP_BOUND` — accuracy and determinism asserted separately.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops import FFT_ULP_BOUND, FftProblem, run_fft
from repro.ops.fft import (
    bit_reverse_indices,
    fft_reference_bits,
    twiddle_tables,
)


def _max_ulp_vs_numpy(y: np.ndarray, x: np.ndarray) -> float:
    """ULP distance of complex64 ``y`` from the complex128 numpy FFT,
    scaled per pencil by the spacing at its largest magnitude — the
    same measure run_fft enforces."""
    ref = np.fft.fft(x.astype(np.complex128), axis=0)
    scale = np.spacing(np.abs(ref).max(axis=0).astype(np.float32)
                       ).astype(np.float64)
    return float((np.abs(y - ref) / scale).max())


class TestProblem:
    def test_length_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            FftProblem(n=24)

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            FftProblem(n=16, batch=0)

    def test_inputs_shape_and_dtype(self):
        x = FftProblem(n=16, batch=4, seed=2).inputs()
        assert x.shape == (16, 4) and x.dtype == np.complex64

    def test_flops_formula(self):
        p = FftProblem(n=8, batch=2)
        assert p.flops() == 10.0 * 4 * 3 * 2


class TestHelpers:
    def test_bit_reverse_is_an_involution(self):
        rev = bit_reverse_indices(16)
        assert np.array_equal(rev[rev], np.arange(16))

    def test_twiddles_are_unit_circle_points(self):
        twr, twi = twiddle_tables(32)
        assert twr.shape == twi.shape == (16,)
        np.testing.assert_allclose(twr ** 2 + twi ** 2, 1.0, atol=1e-6)
        assert twr[0] == 1.0 and twi[0] == 0.0


class TestReference:
    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([2, 4, 8, 16, 32, 64]),
           batch=st.integers(1, 6), seed=st.integers(0, 50))
    def test_mirror_within_ulp_bound_of_numpy(self, n, batch, seed):
        x = FftProblem(n=n, batch=batch, seed=seed).inputs()
        y = fft_reference_bits(x)
        assert _max_ulp_vs_numpy(y, x) <= FFT_ULP_BOUND

    def test_mirror_is_deterministic(self):
        x = FftProblem(n=32, batch=3, seed=9).inputs()
        a, b = fft_reference_bits(x), fft_reference_bits(x.copy())
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_delta_transforms_to_all_ones(self):
        x = np.zeros((8, 1), dtype=np.complex64)
        x[0, 0] = 1.0
        y = fft_reference_bits(x)
        np.testing.assert_array_equal(y, np.ones((8, 1), np.complex64))

    def test_real_plane_survives_an_infinite_imaginary_part(self):
        """The output is assembled plane by plane: ``re + 1j * im`` would
        make each real output ``re + 0·inf``, a NaN."""
        x = np.empty((2, 1), np.complex64)
        x.real[:, 0], x.imag[:, 0] = (1.0, 2.0), (np.inf, 0.0)
        y = fft_reference_bits(x)
        assert y.real[:, 0].tolist() == [3.0, -1.0]
        assert y.imag[:, 0].tolist() == [np.inf, np.inf]


class TestDevice:
    def test_single_core_mirror_bit_exact(self):
        res = run_fft(FftProblem(n=32, batch=8))
        assert res.checked
        assert "mirror bit-exact" in res.check_detail
        assert res.kernel_time_s > 0 and res.fpu_ops > 0

    def test_multi_core_identical_to_single_core(self):
        p = FftProblem(n=16, batch=8, seed=3)
        r1 = run_fft(p, cores=(1, 1))
        r2 = run_fft(p, cores=(2, 2))
        assert r1.output_sha == r2.output_sha

    def test_more_cores_than_pencils_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            run_fft(FftProblem(n=16, batch=2), cores=(2, 2))

    @settings(max_examples=6, deadline=None)
    @given(n=st.sampled_from([4, 8, 16, 32]), batch=st.integers(1, 6),
           seed=st.integers(0, 50))
    def test_device_bit_exact_vs_mirror(self, n, batch, seed):
        p = FftProblem(n=n, batch=batch, seed=seed)
        res = run_fft(p)                  # raises OpCheckError on drift
        mirror = fft_reference_bits(p.inputs())
        assert np.array_equal(res.output.view(np.uint64),
                              mirror.view(np.uint64))

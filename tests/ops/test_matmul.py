"""Blocked SRAM BF16 matmul: bit-exact vs the NumPy reference.

The contract is *deterministic accumulation*: per-tile float32
products, sequential float32 accumulation over K in ascending tile
order, one BF16 round-to-nearest-even per output tile.  The device
execution must be bit-exact against :func:`matmul_reference_bits` for
any shape — including non-square and non-multiple-of-32 dimensions,
where the padded tiles carry zeros.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes.bf16 import bits_to_f32, f32_to_bits
from repro.ops import MatmulProblem, OpCheckError, run_matmul, sha16
from repro.dtypes.tiles import domain_to_tiles, tiles_to_domain
from repro.ops.matmul import TILE_DIM, _pad_to_tiles, matmul_reference_bits


class TestProblem:
    def test_tile_counts_are_ceil_divisions(self):
        p = MatmulProblem(m=33, k=64, n=1)
        assert (p.mt, p.kt, p.nt) == (2, 2, 1)

    def test_flops_counts_padded_work(self):
        p = MatmulProblem(m=32, k=32, n=32)
        assert p.flops() == 2.0 * TILE_DIM ** 3

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError):
            MatmulProblem(m=0, k=32, n=32)

    def test_inputs_are_seeded_and_stable(self):
        a1, b1 = MatmulProblem(m=8, k=8, n=8, seed=5).inputs()
        a2, b2 = MatmulProblem(m=8, k=8, n=8, seed=5).inputs()
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        a3, _ = MatmulProblem(m=8, k=8, n=8, seed=6).inputs()
        assert not np.array_equal(a1, a3)


class TestTilize:
    """Operands reach DRAM padded, then as one page per 32x32 tile."""

    def test_tilize_untilize_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 1 << 16, (64, 96)).astype(np.uint16)
        tiles = domain_to_tiles(_pad_to_tiles(bits))
        assert tiles.shape == (2, 3, TILE_DIM, TILE_DIM)
        assert np.array_equal(tiles_to_domain(tiles), bits)

    def test_tilize_pads_partial_tiles_with_zero(self):
        bits = np.ones((5, 3), dtype=np.uint16)
        tiles = domain_to_tiles(_pad_to_tiles(bits))
        assert tiles.size == TILE_DIM * TILE_DIM
        img = tiles_to_domain(tiles)
        assert np.array_equal(img[:5, :3], bits)
        assert not img[5:, :].any() and not img[:, 3:].any()


class TestReference:
    def test_single_tile_matches_plain_f32_matmul(self):
        p = MatmulProblem(m=32, k=32, n=32, seed=1)
        a_bits, b_bits = p.inputs()
        ref = matmul_reference_bits(a_bits, b_bits)
        plain = f32_to_bits(
            (bits_to_f32(a_bits) @ bits_to_f32(b_bits)).astype(np.float32))
        assert np.array_equal(ref, plain)

    def test_accumulation_order_is_ascending_k(self):
        # build the k-tile partial sums by hand and fold left-to-right
        p = MatmulProblem(m=32, k=96, n=32, seed=2)
        a_bits, b_bits = p.inputs()
        a, b = bits_to_f32(a_bits), bits_to_f32(b_bits)
        acc = None
        for kt in range(3):
            sl = slice(kt * TILE_DIM, (kt + 1) * TILE_DIM)
            prod = (a[:, sl] @ b[sl]).astype(np.float32)
            acc = prod if acc is None else (acc + prod).astype(np.float32)
        assert np.array_equal(matmul_reference_bits(a_bits, b_bits),
                              f32_to_bits(acc))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            matmul_reference_bits(np.zeros((4, 8), dtype=np.uint16),
                                  np.zeros((4, 8), dtype=np.uint16))


class TestDeviceBitExact:
    def test_single_core_square(self):
        res = run_matmul(MatmulProblem(m=64, k=64, n=64))
        assert res.checked and res.check_detail == "bit-exact"
        assert res.kernel_time_s > 0 and res.transfer_time_s > 0
        assert res.energy_j > 0 and res.fpu_ops > 0

    def test_multi_core_matches_single_core_bits(self):
        p = MatmulProblem(m=64, k=32, n=64, seed=4)
        r1 = run_matmul(p, cores=(1, 1))
        r2 = run_matmul(p, cores=(2, 2))
        assert r1.output_sha == r2.output_sha
        assert r2.checked

    def test_too_many_cores_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            run_matmul(MatmulProblem(m=32, k=32, n=32), cores=(2, 2))

    @settings(max_examples=8, deadline=None)
    @given(m=st.integers(1, 70), k=st.integers(1, 70),
           n=st.integers(1, 70), seed=st.integers(0, 100))
    def test_device_bit_exact_any_shape(self, m, k, n, seed):
        """Non-square, non-multiple-of-32 shapes stay bit-exact."""
        p = MatmulProblem(m=m, k=k, n=n, seed=seed)
        res = run_matmul(p)               # raises OpCheckError on mismatch
        ref = matmul_reference_bits(*p.inputs())
        assert res.output_sha == sha16(ref)

    def test_check_failure_raises_opcheckerror(self, monkeypatch):
        import repro.ops.matmul as mm
        real = mm.matmul_reference_bits

        def corrupted(a_bits, b_bits):
            out = real(a_bits, b_bits).copy()
            out[0, 0] ^= 1
            return out

        monkeypatch.setattr(mm, "matmul_reference_bits", corrupted)
        with pytest.raises(OpCheckError, match="differ"):
            mm.run_matmul(MatmulProblem(m=32, k=32, n=32))

"""Extended FPU ops: SFPU unaries, reductions, matmul, transpose.

The paper lists these among the FPU's capabilities ("squares, logs,
trigonometric functions, conditionals and reductions, as well as ...
matrix multiplication, ReLU, sigmoid, and transposition"); they are what
ML users of the card (the paper's related work) build on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cb import CircularBuffer
from repro.arch.fpu import Fpu, FpuError
from repro.arch.sram import Sram
from repro.dtypes.bf16 import bf16_round, bits_to_f32, f32_to_bits
from repro.sim import Simulator


@pytest.fixture
def rig(sim):
    sram = Sram(1 << 19)
    cbs = {i: CircularBuffer(sim, sram, i, page_size=2048, n_pages=2)
           for i in range(3)}

    def fill(cb_id, values):
        cb = cbs[cb_id]
        cb.reserve_back(1)
        sim.run()
        cb.back_view_bits()[:] = f32_to_bits(
            np.asarray(values, dtype=np.float32)).ravel()
        cb.push_back(1)
    cbs[2].reserve_back(1)
    sim.run()
    fpu = Fpu()
    fpu.acquire_dst()
    return cbs, fill, fpu


class TestUnaryOps:
    @pytest.mark.parametrize("op,fn", [
        ("exp", np.exp), ("sqrt", np.sqrt), ("square", np.square),
        ("abs", np.abs), ("sin", np.sin), ("cos", np.cos),
    ])
    def test_matches_numpy(self, rig, rng, op, fn):
        cbs, fill, fpu = rig
        x = np.abs(rng.normal(size=1024)).astype(np.float32)
        fill(0, x)
        fpu.unary_tile(op, cbs[0], 0, 0)
        want = fn(bits_to_f32(f32_to_bits(x))).astype(np.float32)
        assert np.allclose(fpu.dst_value_f32(0), want, rtol=1e-6)

    def test_relu(self, rig):
        cbs, fill, fpu = rig
        x = np.linspace(-5, 5, 1024, dtype=np.float32)
        fill(0, x)
        fpu.unary_tile("relu", cbs[0], 0, 0)
        out = fpu.dst_value_f32(0)
        assert out.min() == 0.0
        assert np.all(out[x > 0.1] > 0)

    def test_sigmoid_range(self, rig):
        cbs, fill, fpu = rig
        fill(0, np.linspace(-20, 20, 1024, dtype=np.float32))
        fpu.unary_tile("sigmoid", cbs[0], 0, 0)
        out = fpu.dst_value_f32(0)
        assert np.all((out >= 0) & (out <= 1))
        assert out[0] < 0.01 and out[-1] > 0.99

    def test_log_of_negative_is_nan(self, rig):
        cbs, fill, fpu = rig
        fill(0, np.full(1024, -1.0, dtype=np.float32))
        fpu.unary_tile("log", cbs[0], 0, 0)
        assert np.isnan(fpu.dst_value_f32(0)).all()

    def test_reciprocal_of_zero_is_inf(self, rig):
        cbs, fill, fpu = rig
        fill(0, np.zeros(1024, dtype=np.float32))
        fpu.unary_tile("reciprocal", cbs[0], 0, 0)
        assert np.isinf(fpu.dst_value_f32(0)).all()

    def test_unknown_op_rejected(self, rig):
        cbs, fill, fpu = rig
        fill(0, np.ones(1024))
        with pytest.raises(FpuError, match="unknown unary"):
            fpu.unary_tile("tanh2", cbs[0], 0, 0)


class TestReductions:
    def test_sum(self, rig):
        cbs, fill, fpu = rig
        fill(0, np.ones(1024, dtype=np.float32))
        val = fpu.reduce_tile(cbs[0], 0, 0, kind="sum")
        assert val == pytest.approx(1024.0)
        reg = fpu.dst_value_f32(0)
        assert reg.flat[0] == pytest.approx(1024.0)
        assert np.all(reg.ravel()[1:] == 0)

    def test_max(self, rig, rng):
        cbs, fill, fpu = rig
        x = rng.normal(size=1024).astype(np.float32)
        fill(0, x)
        xq = bits_to_f32(f32_to_bits(x))
        assert fpu.reduce_tile(cbs[0], 0, 0, kind="max") == \
            pytest.approx(float(xq.max()))

    def test_absmax(self, rig):
        cbs, fill, fpu = rig
        x = np.zeros(1024, dtype=np.float32)
        x[77] = -9.0
        fill(0, x)
        assert fpu.reduce_tile(cbs[0], 0, 0, kind="absmax") == \
            pytest.approx(9.0)

    def test_unknown_kind(self, rig):
        cbs, fill, fpu = rig
        fill(0, np.ones(1024))
        with pytest.raises(FpuError, match="unknown reduction"):
            fpu.reduce_tile(cbs[0], 0, 0, kind="mean")


class TestMatmul:
    def test_identity(self, rig, rng):
        cbs, fill, fpu = rig
        a = rng.normal(size=(32, 32)).astype(np.float32)
        eye = np.eye(32, dtype=np.float32)
        fill(0, a.ravel())
        fill(1, eye.ravel())
        fpu.matmul_tiles(cbs[0], cbs[1], 0, 0, 0)
        aq = bits_to_f32(f32_to_bits(a))
        assert np.allclose(fpu.dst_value_f32(0), aq, atol=1e-5)

    def test_matches_numpy(self, rig, rng):
        cbs, fill, fpu = rig
        a = rng.normal(size=(32, 32)).astype(np.float32)
        b = rng.normal(size=(32, 32)).astype(np.float32)
        fill(0, a.ravel())
        fill(1, b.ravel())
        fpu.matmul_tiles(cbs[0], cbs[1], 0, 0, 0)
        want = (bits_to_f32(f32_to_bits(a)).reshape(32, 32)
                @ bits_to_f32(f32_to_bits(b)).reshape(32, 32))
        assert np.allclose(fpu.dst_value_f32(0), want, rtol=1e-5)

    def test_accumulate(self, rig):
        cbs, fill, fpu = rig
        eye = np.eye(32, dtype=np.float32)
        fill(0, eye.ravel())
        fill(1, eye.ravel())
        fpu.matmul_tiles(cbs[0], cbs[1], 0, 0, 0)
        # refill pages (they were popped? no: we never popped; wait_front
        # semantics unused here — front pages still hold the data)
        fpu.matmul_tiles(cbs[0], cbs[1], 0, 0, 0, accumulate=True)
        assert np.allclose(fpu.dst_value_f32(0), 2 * eye)

    def test_accumulate_into_empty_rejected(self, rig):
        cbs, fill, fpu = rig
        fill(0, np.ones(1024))
        fill(1, np.ones(1024))
        with pytest.raises(FpuError, match="accumulate"):
            fpu.matmul_tiles(cbs[0], cbs[1], 0, 0, 3, accumulate=True)

    def test_requires_full_tiles(self, sim):
        sram = Sram(1 << 18)
        small = CircularBuffer(sim, sram, 0, page_size=256, n_pages=1)
        small.reserve_back(1)
        sim.run()
        small.push_back(1)
        fpu = Fpu()
        fpu.acquire_dst()
        with pytest.raises(FpuError, match="full"):
            fpu.matmul_tiles(small, small, 0, 0, 0)

    def test_pack_after_matmul(self, rig, rng):
        cbs, fill, fpu = rig
        a = rng.normal(size=(32, 32)).astype(np.float32)
        b = rng.normal(size=(32, 32)).astype(np.float32)
        fill(0, a.ravel())
        fill(1, b.ravel())
        fpu.matmul_tiles(cbs[0], cbs[1], 0, 0, 0)
        fpu.pack_tile(0, cbs[2])
        out = bits_to_f32(cbs[2].back_view_bits()).reshape(32, 32)
        want = bf16_round((bits_to_f32(f32_to_bits(a)).reshape(32, 32)
                           @ bits_to_f32(f32_to_bits(b)).reshape(32, 32)))
        assert np.array_equal(out, want)


class TestTranspose:
    def test_transpose(self, rig, rng):
        cbs, fill, fpu = rig
        a = rng.normal(size=(32, 32)).astype(np.float32)
        fill(0, a.ravel())
        fpu.transpose_tile(cbs[0], 0, 0)
        aq = bits_to_f32(f32_to_bits(a)).reshape(32, 32)
        assert np.array_equal(fpu.dst_value_f32(0), aq.T)

    def test_involution(self, rig, rng):
        cbs, fill, fpu = rig
        a = rng.normal(size=(32, 32)).astype(np.float32)
        fill(0, a.ravel())
        fpu.transpose_tile(cbs[0], 0, 0)
        fpu.pack_tile(0, cbs[2])
        # transpose the packed transpose: back to (the BF16 rounding of) a
        first = cbs[2].back_view_bits().copy()
        cbs[2].push_back(1)
        fpu.transpose_tile(cbs[2], 0, 1)
        aq = bits_to_f32(first).reshape(32, 32).T
        assert np.array_equal(fpu.dst_value_f32(1), aq)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 999))
def test_matmul_transpose_identity_property(seed):
    """(A @ B)ᵀ == Bᵀ @ Aᵀ at f32 register precision."""
    sim = Simulator()
    sram = Sram(1 << 19)
    cbs = {i: CircularBuffer(sim, sram, i, page_size=2048, n_pages=1)
           for i in range(2)}
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(32, 32)).astype(np.float32)
    b = rng.normal(size=(32, 32)).astype(np.float32)
    for i, m in ((0, a), (1, b)):
        cbs[i].reserve_back(1)
        sim.run()
        cbs[i].back_view_bits()[:] = f32_to_bits(m).ravel()
        cbs[i].push_back(1)
    fpu = Fpu()
    fpu.acquire_dst()
    fpu.matmul_tiles(cbs[0], cbs[1], 0, 0, 0)
    ab_t = fpu.dst_value_f32(0).reshape(32, 32).T
    aq = bits_to_f32(f32_to_bits(a)).reshape(32, 32)
    bq = bits_to_f32(f32_to_bits(b)).reshape(32, 32)
    assert np.allclose(ab_t, bq.T @ aq.T, rtol=1e-5, atol=1e-6)

"""FPU tests: tile math against the BF16 reference, register protocol."""

import numpy as np
import pytest

from repro.arch.cb import CircularBuffer
from repro.arch.fpu import Fpu, FpuError, N_DST_REGISTERS
from repro.arch.sram import Sram
from repro.dtypes.bf16 import bf16_add, bf16_mul, bits_to_f32, f32_to_bits
from repro.sim import Simulator


@pytest.fixture
def rig(sim):
    """Two input CBs, one output CB, each with a committed/reserved page."""
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
    # output CB: reserve a page to pack into
    cbs[2].reserve_back(1)
    sim.run()
    return cbs, fill


class TestTileMath:
    def test_add_tiles_matches_reference(self, rig, rng):
        cbs, fill = rig
        a = rng.normal(size=1024).astype(np.float32)
        b = rng.normal(size=1024).astype(np.float32)
        fill(0, a)
        fill(1, b)
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.add_tiles(cbs[0], cbs[1], 0, 0, 0)
        fpu.pack_tile(0, cbs[2])
        got = cbs[2].back_view_bits().copy()
        want = bf16_add(f32_to_bits(a), f32_to_bits(b)).ravel()
        assert np.array_equal(got, want)

    def test_mul_tiles_matches_reference(self, rig, rng):
        cbs, fill = rig
        a = rng.normal(size=1024).astype(np.float32)
        b = rng.normal(size=1024).astype(np.float32)
        fill(0, a)
        fill(1, b)
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.mul_tiles(cbs[0], cbs[1], 0, 0, 0)
        fpu.pack_tile(0, cbs[2])
        want = bf16_mul(f32_to_bits(a), f32_to_bits(b)).ravel()
        assert np.array_equal(cbs[2].back_view_bits(), want)

    def test_sub_tiles(self, rig):
        cbs, fill = rig
        fill(0, np.full(1024, 5.0))
        fill(1, np.full(1024, 2.0))
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.sub_tiles(cbs[0], cbs[1], 0, 0, 0)
        assert np.all(fpu.dst_value_f32(0) == 3.0)

    def test_copy_tile(self, rig):
        cbs, fill = rig
        fill(0, np.arange(1024))
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.copy_tile(cbs[0], 0, 3)
        assert np.array_equal(fpu.dst_value_f32(3),
                              bits_to_f32(f32_to_bits(
                                  np.arange(1024, dtype=np.float32))))

    def test_accumulate_into_dst(self, rig):
        cbs, fill = rig
        fill(0, np.full(1024, 1.5))
        fill(1, np.full(1024, 2.0))
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.copy_tile(cbs[0], 0, 0)
        fpu.add_tiles_to_dst(cbs[1], 0, 0)
        assert np.all(fpu.dst_value_f32(0) == 3.5)

    def test_intermediate_precision_is_f32(self, rig):
        """The math runs at f32; only pack rounds to BF16."""
        cbs, fill = rig
        fill(0, np.full(1024, 1.0))
        fill(1, np.full(1024, 2 ** -9))  # half a BF16 ULP of 1.0
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.add_tiles(cbs[0], cbs[1], 0, 0, 0)
        # before packing, the register holds the exact f32 sum
        assert np.all(fpu.dst_value_f32(0) == np.float32(1.0 + 2 ** -9))
        # packing rounds (ties-to-even -> 1.0)
        fpu.pack_tile(0, cbs[2])
        assert np.all(bits_to_f32(cbs[2].back_view_bits()) == 1.0)

    def test_ops_counter(self, rig):
        cbs, fill = rig
        fill(0, np.zeros(1024))
        fill(1, np.zeros(1024))
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.add_tiles(cbs[0], cbs[1], 0, 0, 0)
        fpu.pack_tile(0, cbs[2])
        assert fpu.ops == 1 and fpu.packs == 1


class TestRegisterProtocol:
    def test_op_requires_acquire(self, rig):
        cbs, fill = rig
        fill(0, np.zeros(1024))
        fill(1, np.zeros(1024))
        fpu = Fpu()
        with pytest.raises(FpuError, match="acquired"):
            fpu.add_tiles(cbs[0], cbs[1], 0, 0, 0)

    def test_double_acquire_rejected(self):
        fpu = Fpu()
        fpu.acquire_dst()
        with pytest.raises(FpuError):
            fpu.acquire_dst()

    def test_release_clears_registers(self, rig):
        cbs, fill = rig
        fill(0, np.zeros(1024))
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.copy_tile(cbs[0], 0, 0)
        fpu.release_dst()
        fpu.acquire_dst()
        with pytest.raises(FpuError, match="empty"):
            fpu.dst_value_f32(0)

    def test_register_index_bounds(self, rig):
        fpu = Fpu()
        fpu.acquire_dst()
        with pytest.raises(FpuError):
            fpu.dst_value_f32(N_DST_REGISTERS)

    def test_pack_empty_register_rejected(self, rig):
        cbs, _ = rig
        fpu = Fpu()
        fpu.acquire_dst()
        with pytest.raises(FpuError, match="empty"):
            fpu.pack_tile(0, cbs[2])

    def test_oversized_page_rejected(self, sim):
        sram = Sram(1 << 19)
        big = CircularBuffer(sim, sram, 9, page_size=4096, n_pages=1)
        big.reserve_back(1)
        sim.run()
        big.push_back(1)
        fpu = Fpu()
        fpu.acquire_dst()
        with pytest.raises(FpuError, match="at most"):
            fpu.copy_tile(big, 0, 0)

    def test_partial_tile_pages_allowed(self, sim):
        """Ragged chunks (< 1024 elements) still go through the FPU."""
        sram = Sram(1 << 19)
        small_in = CircularBuffer(sim, sram, 5, page_size=256, n_pages=1)
        small_out = CircularBuffer(sim, sram, 6, page_size=256, n_pages=1)
        small_in.reserve_back(1)
        small_out.reserve_back(1)
        sim.run()
        small_in.back_view_bits()[:] = f32_to_bits(
            np.full(128, 4.0, dtype=np.float32))
        small_in.push_back(1)
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.copy_tile(small_in, 0, 0)
        fpu.pack_tile(0, small_out)
        assert np.all(bits_to_f32(small_out.back_view_bits()) == 4.0)

    def test_pack_size_mismatch_rejected(self, sim, rig):
        cbs, fill = rig
        fill(0, np.zeros(1024))
        sram = Sram(1 << 19)
        small_out = CircularBuffer(sim, sram, 7, page_size=256, n_pages=1)
        small_out.reserve_back(1)
        sim.run()
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.copy_tile(cbs[0], 0, 0)
        with pytest.raises(FpuError, match="mismatch"):
            fpu.pack_tile(0, small_out)


class TestInPlaceOpsNeverWriteL1:
    """Binary ops compute into their unpacked first operand, so the
    unpacked tile must be fresh memory, never a view of L1."""

    @pytest.mark.parametrize("dtype", ["bf16", "fp32"])
    def test_binary_ops_leave_l1_untouched(self, sim, dtype):
        sram = Sram(1 << 16)
        cb = CircularBuffer(sim, sram, 0, page_size=2048, n_pages=2,
                            dtype=dtype)
        alias = sram.allocate(2048, align=32)
        cb.reserve_back(2)
        sim.run()
        n = 2048 // cb.elem_bytes
        rng = np.random.default_rng(3)
        pages = [bits_to_f32(f32_to_bits(rng.normal(size=n)))
                 for _ in range(3)]
        for i, vals in enumerate(pages[:2]):
            cb.back_view_bits(i)[:] = (
                vals.view(np.uint32) if dtype == "fp32" else f32_to_bits(vals))
        cb.push_back(2)
        sram.view(alias, 2048)[:] = (
            pages[2] if dtype == "fp32" else f32_to_bits(pages[2])
        ).view(np.uint8)
        before = sram.mem.copy()

        fpu = Fpu()
        fpu.acquire_dst()
        fpu.add_tiles(cb, cb, 0, 0, 0)   # the same page on both sides
        fpu.sub_tiles(cb, cb, 1, 0, 1)
        cb.set_rd_ptr(alias)
        fpu.mul_tiles(cb, cb, 0, 0, 2)   # both operands read the alias

        assert np.array_equal(sram.mem, before)
        assert np.array_equal(fpu.dst_value_f32(0), pages[0] + pages[0])
        assert np.array_equal(fpu.dst_value_f32(1), pages[1] - pages[0])
        assert np.array_equal(fpu.dst_value_f32(2), pages[2] * pages[2])

    def test_unpack_returns_fresh_memory(self):
        x = f32_to_bits(np.ones(1024, dtype=np.float32))
        assert not np.shares_memory(bits_to_f32(x), x)

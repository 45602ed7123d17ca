"""Circular buffer tests: FIFO protocol, blocking, rd-ptr aliasing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cb import CBError, CircularBuffer
from repro.arch.sram import Sram
from repro.sim import Simulator


@pytest.fixture
def cb(sim):
    sram = Sram(1 << 18)
    return CircularBuffer(sim, sram, 0, page_size=64, n_pages=4)


def run_proc(sim, gen):
    return sim.run(until=sim.process(gen))


class TestProtocol:
    def test_initial_state(self, cb):
        assert cb.pages_free == 4
        assert cb.pages_committed == 0

    def test_reserve_push_wait_pop(self, sim, cb):
        def proc():
            yield cb.reserve_back(1)
            cb.push_back(1)
            yield cb.wait_front(1)
            cb.pop_front(1)
            return (cb.pages_free, cb.pages_committed)
        assert run_proc(sim, proc()) == (4, 0)

    def test_push_without_reserve_rejected(self, cb):
        with pytest.raises(CBError, match="without matching reserve"):
            cb.push_back(1)

    def test_pop_without_commit_rejected(self, cb):
        with pytest.raises(CBError, match="exceeds committed"):
            cb.pop_front(1)

    def test_reserve_more_than_capacity_rejected(self, sim, cb):
        with pytest.raises(CBError):
            cb.reserve_back(5)

    def test_reserve_blocks_when_full(self, sim, cb):
        t_reserved = []

        def producer():
            for _ in range(5):  # 5 pages through a 4-page CB
                yield cb.reserve_back(1)
                cb.push_back(1)
            t_reserved.append(sim.now)

        def consumer():
            yield sim.timeout(10)
            yield cb.wait_front(1)
            cb.pop_front(1)
        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert t_reserved == [pytest.approx(10.0)]

    def test_wait_blocks_until_push(self, sim, cb):
        def consumer():
            yield cb.wait_front(2)
            return sim.now

        def producer():
            yield cb.reserve_back(2)
            yield sim.timeout(7)
            cb.push_back(2)
        c = sim.process(consumer())
        sim.process(producer())
        assert sim.run(until=c) == pytest.approx(7.0)

    def test_data_flows_through_pages(self, sim, cb):
        def producer():
            for i in range(8):  # wraps the 4-page ring twice
                yield cb.reserve_back(1)
                cb.back_view_bits()[:] = i
                cb.push_back(1)

        def consumer():
            seen = []
            for _ in range(8):
                yield cb.wait_front(1)
                seen.append(int(cb.front_view_bits()[0]))
                cb.pop_front(1)
            return seen
        sim.process(producer())
        c = sim.process(consumer())
        assert sim.run(until=c) == list(range(8))

    def test_write_ptr_requires_reservation(self, cb):
        with pytest.raises(CBError):
            cb.get_write_ptr()

    def test_read_ptr_requires_commit(self, cb):
        with pytest.raises(CBError):
            cb.get_read_ptr()

    def test_pointers_wrap(self, sim, cb):
        ptrs = []

        def proc():
            for _ in range(5):
                yield cb.reserve_back(1)
                ptrs.append(cb.get_write_ptr())
                cb.push_back(1)
                yield cb.wait_front(1)
                cb.pop_front(1)
        run_proc(sim, proc())
        assert ptrs[4] == ptrs[0]  # wrapped after n_pages
        assert len(set(ptrs[:4])) == 4


class TestRdPtrAlias:
    def test_alias_redirects_read(self, sim, cb):
        sram = cb.sram
        scratch = sram.allocate(64, align=32)
        sram.view_u16(scratch, 32)[:] = 0xBEEF

        def proc():
            yield cb.reserve_back(1)
            cb.back_view_bits()[:] = 0x1111
            cb.push_back(1)
            yield cb.wait_front(1)
            cb.set_rd_ptr(scratch)
            vals = cb.front_view_bits().copy()
            cb.pop_front(1)
            return vals
        vals = run_proc(sim, proc())
        assert np.all(vals == 0xBEEF)

    def test_alias_cleared_by_pop(self, sim, cb):
        sram = cb.sram
        scratch = sram.allocate(64, align=32)

        def proc():
            yield cb.reserve_back(2)
            cb.back_view_bits(0)[:] = 1
            cb.back_view_bits(1)[:] = 2
            cb.push_back(2)
            yield cb.wait_front(1)
            cb.set_rd_ptr(scratch)
            cb.pop_front(1)
            # next page must read from the CB's own storage again
            yield cb.wait_front(1)
            val = int(cb.front_view_bits()[0])
            cb.pop_front(1)
            return val
        assert run_proc(sim, proc()) == 2

    def test_alias_bounds_checked(self, cb):
        with pytest.raises(CBError):
            cb.set_rd_ptr(cb.sram.capacity)

    def test_alias_requires_even_address(self, cb):
        with pytest.raises(CBError, match="2-byte"):
            cb.set_rd_ptr(33)

    def test_read_ptr_honours_alias(self, sim, cb):
        scratch = cb.sram.allocate(64, align=32)

        def proc():
            yield cb.reserve_back(1)
            cb.push_back(1)
            yield cb.wait_front(1)
            cb.set_rd_ptr(scratch)
            return cb.get_read_ptr()
        assert run_proc(sim, proc()) == scratch


class TestInvariants:
    def test_committed_plus_free_bounded(self, sim, cb):
        def proc():
            yield cb.reserve_back(3)
            cb.push_back(2)
            assert cb.pages_committed == 2
            assert cb.pages_free == 1
            assert cb.pages_committed + cb.pages_free <= cb.n_pages
        run_proc(sim, proc())

    def test_bad_construction(self, sim):
        sram = Sram(1 << 17)
        with pytest.raises(ValueError):
            CircularBuffer(sim, sram, 0, page_size=0, n_pages=4)
        with pytest.raises(ValueError):
            CircularBuffer(sim, sram, 0, page_size=64, n_pages=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=25),
       st.integers(2, 6))
def test_cb_fifo_property(batches, n_pages):
    """Data emerges in exactly the order it was pushed, whatever the
    batch structure, and page accounting never goes out of bounds."""
    sim = Simulator()
    sram = Sram(1 << 18)
    cb = CircularBuffer(sim, sram, 0, page_size=8, n_pages=n_pages)
    batches = [min(b, n_pages) for b in batches]
    total = sum(batches)
    seen = []

    def producer():
        k = 0
        for b in batches:
            yield cb.reserve_back(b)
            for i in range(b):
                cb.back_view_bits(i)[:] = k
                k += 1
            cb.push_back(b)
            assert 0 <= cb.pages_free <= n_pages
            assert 0 <= cb.pages_committed <= n_pages

    def consumer():
        for _ in range(total):
            yield cb.wait_front(1)
            seen.append(int(cb.front_view_bits()[0]))
            cb.pop_front(1)
    sim.process(producer())
    c = sim.process(consumer())
    sim.run(until=c)
    assert seen == list(range(total))

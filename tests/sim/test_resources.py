"""Unit + property tests for semaphores and FifoServer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Semaphore, Simulator
from repro.sim.resources import FifoServer


class TestSemaphore:
    def test_acquire_available(self, sim):
        sem = Semaphore(sim, value=2)

        def proc():
            yield sem.acquire()
            return sem.value
        assert sim.run(until=sim.process(proc())) == 1

    def test_acquire_blocks_until_release(self, sim):
        sem = Semaphore(sim, value=0)

        def waiter():
            yield sem.acquire()
            return sim.now

        def releaser():
            yield sim.timeout(5)
            sem.release()
        w = sim.process(waiter())
        sim.process(releaser())
        assert sim.run(until=w) == pytest.approx(5.0)

    def test_fifo_fairness(self, sim):
        sem = Semaphore(sim, value=0)
        order = []

        def waiter(name):
            yield sem.acquire()
            order.append(name)
        for n in ("a", "b", "c"):
            sim.process(waiter(n))

        def releaser():
            for _ in range(3):
                yield sim.timeout(1)
                sem.release()
        sim.process(releaser())
        sim.run()
        assert order == ["a", "b", "c"]

    def test_no_overtaking_on_big_acquire(self, sim):
        """A blocked large acquire must not be starved by small ones."""
        sem = Semaphore(sim, value=0)
        order = []

        def big():
            yield sem.acquire(3)
            order.append("big")

        def small():
            yield sem.acquire(1)
            order.append("small")
        sim.process(big())
        sim.process(small())

        def releaser():
            yield sim.timeout(1)
            sem.release(4)
        sim.process(releaser())
        sim.run()
        assert order == ["big", "small"]

    def test_wait_at_least_nonconsuming(self, sim):
        sem = Semaphore(sim, value=0)

        def waiter():
            val = yield sem.wait_at_least(3)
            return val, sem.value
        w = sim.process(waiter())

        def releaser():
            yield sim.timeout(1)
            sem.release(3)
        sim.process(releaser())
        val, after = sim.run(until=w)
        assert val == 3
        assert after == 3  # not consumed

    def test_set_value(self, sim):
        sem = Semaphore(sim, value=5)
        sem.set_value(1)
        assert sem.value == 1
        with pytest.raises(ValueError):
            sem.set_value(-1)

    def test_bad_counts(self, sim):
        sem = Semaphore(sim)
        with pytest.raises(ValueError):
            sem.acquire(0)
        with pytest.raises(ValueError):
            sem.release(0)
        with pytest.raises(ValueError):
            Semaphore(sim, value=-1)


class TestFifoServer:
    def test_single_job_time(self, sim):
        srv = FifoServer(sim, rate=100.0)
        ev = srv.submit(50)

        def proc():
            t = yield ev
            return t
        assert sim.run(until=sim.process(proc())) == pytest.approx(0.5)

    def test_jobs_serialize(self, sim):
        srv = FifoServer(sim, rate=100.0)
        srv.submit(100)          # busy until t=1
        ev = srv.submit(100)     # served 1..2
        sim.run()
        assert ev.value == pytest.approx(2.0)

    def test_overhead_per_job(self, sim):
        srv = FifoServer(sim, rate=1e9, overhead=0.1)
        ev = srv.submit(0, jobs=3)
        sim.run()
        assert ev.value == pytest.approx(0.3)

    def test_idle_gap_not_counted(self, sim):
        srv = FifoServer(sim, rate=100.0)

        def proc():
            yield srv.submit(100)
            yield sim.timeout(10)  # idle gap
            yield srv.submit(100)
            return sim.now
        assert sim.run(until=sim.process(proc())) == pytest.approx(12.0)
        assert srv.busy_time == pytest.approx(2.0)

    def test_stats(self, sim):
        srv = FifoServer(sim, rate=100.0)
        srv.submit(30, jobs=2)
        assert srv.bytes_served == 30
        assert srv.jobs == 2

    def test_invalid_params(self, sim):
        with pytest.raises(ValueError):
            FifoServer(sim, rate=0)
        with pytest.raises(ValueError):
            FifoServer(sim, rate=1, overhead=-1)
        srv = FifoServer(sim, rate=1)
        with pytest.raises(ValueError):
            srv.submit(-1)


@settings(max_examples=50, deadline=None)
@given(jobs=st.lists(st.integers(min_value=0, max_value=10_000),
                     min_size=1, max_size=30))
def test_fifo_server_completion_equals_total_service(jobs):
    """Back-to-back jobs finish exactly at the sum of their service times."""
    sim = Simulator()
    srv = FifoServer(sim, rate=1000.0, overhead=0.001)
    last = None
    for j in jobs:
        last = srv.submit(j)
    sim.run()
    expected = sum(0.001 + j / 1000.0 for j in jobs)
    assert last.value == pytest.approx(expected)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["acq", "rel"]),
                              st.integers(1, 3)), max_size=40))
def test_semaphore_value_never_negative(ops):
    """Whatever the acquire/release sequence, the value stays >= 0."""
    sim = Simulator()
    sem = Semaphore(sim, value=2)

    def driver():
        for op, n in ops:
            if op == "acq":
                ev = sem.acquire(n)
                # do not wait for it; just ensure the invariant holds
            else:
                sem.release(n)
            assert sem.value >= 0
            yield sim.timeout(0)
    sim.process(driver())
    try:
        sim.run()
    except Exception:  # deadlocked acquires are fine for the invariant
        pass
    assert sem.value >= 0

"""Kernel-API tests: reads/writes/barriers/CBs/memcpy/semaphores in kernels."""

import numpy as np
import pytest

from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.perfmodel.calibration import DEFAULT_COSTS
from repro.ttmetal import (
    CreateCircularBuffer,
    CreateKernel,
    CreateSemaphore,
    EnqueueProgram,
    EnqueueWriteBuffer,
    Finish,
    Program,
    create_buffer,
)
from repro.ttmetal.kernel_api import KernelError, NocAddr


def launch(device, kernels, cbs=(), sems=(), lint="warn"):
    """Helper: build and run a single-core program; returns wall time.

    ``lint="off"`` for tests that deliberately break the protocol to
    exercise the *runtime* error path the static verifier would preempt.
    """
    prog = Program(device)
    core = device.core(0, 0)
    for cb_id, page, pages in cbs:
        CreateCircularBuffer(prog, core, cb_id, page, pages)
    for sem_id, initial in sems:
        CreateSemaphore(prog, core, sem_id, initial)
    for fn, slot, args in kernels:
        CreateKernel(prog, fn, core, slot, args)
    EnqueueProgram(device, prog, lint=lint)
    return Finish(device)


class TestNocAddr:
    def test_pointer_arithmetic(self):
        a = NocAddr(3, 100)
        b = a + 28
        assert b == NocAddr(3, 128)


class TestReadsWrites:
    def test_read_into_l1(self, device, rng):
        buf = create_buffer(device, 256, bank_id=0)
        data = rng.integers(0, 256, 256, dtype=np.uint8)
        EnqueueWriteBuffer(device, buf, data)
        got = {}

        def reader(ctx):
            addr = ctx.get_noc_addr(*buf.noc_coords(), buf.addr)
            l1 = ctx.core.sram.allocate(256)
            yield from ctx.noc_async_read(addr, l1, 256)
            yield from ctx.noc_async_read_barrier()
            got["data"] = ctx.core.sram.view(l1, 256).copy()
        launch(device, [(reader, DATA_MOVER_0, {})])
        assert np.array_equal(got["data"], data)

    def test_write_from_l1(self, device):
        buf = create_buffer(device, 256, bank_id=0)

        def writer(ctx):
            l1 = ctx.core.sram.allocate(64)
            ctx.core.sram.view(l1, 64)[:] = 0x5A
            addr = ctx.get_noc_addr(*buf.noc_coords(), buf.addr + 32)
            yield from ctx.noc_async_write(l1, addr, 64)
            yield from ctx.noc_async_write_barrier()
        launch(device, [(writer, DATA_MOVER_1, {})])
        assert np.all(buf.read_host(32, 64) == 0x5A)

    def test_buffer_level_read_write(self, device, rng):
        src = create_buffer(device, 512, interleaved=True, page_size=128)
        dst = create_buffer(device, 512, interleaved=True, page_size=128)
        data = rng.integers(0, 256, 512, dtype=np.uint8)
        EnqueueWriteBuffer(device, src, data)

        def mover(ctx):
            l1 = ctx.core.sram.allocate(512)
            yield from ctx.noc_read_buffer(src, 0, l1, 512)
            yield from ctx.noc_async_read_barrier()
            yield from ctx.noc_write_buffer(dst, 0, l1, 512)
            yield from ctx.noc_async_write_barrier()
        launch(device, [(mover, DATA_MOVER_0, {})])
        assert np.array_equal(dst.read_host(), data)

    def test_barrier_with_nothing_outstanding(self, device):
        def k(ctx):
            yield from ctx.noc_async_read_barrier()
            yield from ctx.noc_async_write_barrier()
        launch(device, [(k, DATA_MOVER_0, {})])

    def test_unaligned_read_corrupts_through_api(self, device, rng):
        """The Section IV-B bug is visible through the kernel API too."""
        buf = create_buffer(device, 256, bank_id=0)
        data = rng.integers(0, 256, 256, dtype=np.uint8)
        EnqueueWriteBuffer(device, buf, data)
        got = {}

        def reader(ctx):
            addr = ctx.get_noc_addr(*buf.noc_coords(), buf.addr + 2)
            l1 = ctx.core.sram.allocate(64)
            yield from ctx.noc_async_read(addr, l1, 64)
            yield from ctx.noc_async_read_barrier()
            got["data"] = ctx.core.sram.view(l1, 64).copy()
        launch(device, [(reader, DATA_MOVER_0, {})])
        assert not np.array_equal(got["data"], data[2:66])
        assert np.array_equal(got["data"], data[0:64])  # shifted


class TestTiming:
    def test_sync_costs_more_than_nosync(self, device_factory):
        def make_kernel(sync):
            def reader(ctx):
                buf = ctx.arg("buf")
                l1 = ctx.core.sram.allocate(1024)
                yield from ctx.noc_read_buffer_burst(
                    buf, [(i * 64, 64) for i in range(16)], l1, sync=sync)
                yield from ctx.noc_async_read_barrier()
            return reader
        times = {}
        for sync in (False, True):
            dev = device_factory()
            buf = create_buffer(dev, 1024, bank_id=0)
            times[sync] = launch(dev, [(make_kernel(sync), DATA_MOVER_0,
                                        {"buf": buf})])
        extra = times[True] - times[False]
        assert extra == pytest.approx(16 * DEFAULT_COSTS.read_latency,
                                      rel=0.05)

    def test_noncontiguous_penalty_charged(self, device_factory):
        def make_kernel(stride):
            def reader(ctx):
                buf = ctx.arg("buf")
                l1 = ctx.core.sram.allocate(2048)
                yield from ctx.noc_read_buffer_burst_uniform(
                    buf, 0, 16, 64, stride, l1, window=2048)
                yield from ctx.noc_async_read_barrier()
            return reader
        times = {}
        for stride in (64, 128):
            dev = device_factory()
            buf = create_buffer(dev, 4096, bank_id=0)
            times[stride] = launch(
                dev, [(make_kernel(stride), DATA_MOVER_0, {"buf": buf})])
        assert times[128] > times[64]

    def test_busy_time_accounted(self, device):
        buf = create_buffer(device, 256, bank_id=0)

        def reader(ctx):
            l1 = ctx.core.sram.allocate(256)
            yield from ctx.noc_read_buffer(buf, 0, l1, 256)
            yield from ctx.noc_async_read_barrier()
        launch(device, [(reader, DATA_MOVER_0, {})])
        assert device.core(0, 0).busy_time[DATA_MOVER_0] > 0


class TestUniformFunctional:
    def test_uniform_read_matches_regular(self, device_factory, rng):
        data = rng.integers(0, 256, 2048, dtype=np.uint8)
        results = {}
        for mode in ("regular", "uniform"):
            dev = device_factory()
            buf = create_buffer(dev, 2048, bank_id=0)
            EnqueueWriteBuffer(dev, buf, data)

            def reader(ctx, mode=mode):
                l1 = ctx.core.sram.allocate(1024)
                if mode == "uniform":
                    yield from ctx.noc_read_buffer_burst_uniform(
                        buf, 0, 8, 128, 256, l1)
                else:
                    yield from ctx.noc_read_buffer_burst(
                        buf, [(i * 256, 128) for i in range(8)], l1)
                yield from ctx.noc_async_read_barrier()
                results[mode] = ctx.core.sram.view(l1, 1024).copy()
            launch(dev, [(reader, DATA_MOVER_0, {})])
        assert np.array_equal(results["regular"], results["uniform"])

    def test_uniform_write_scatter(self, device, rng):
        buf = create_buffer(device, 2048, bank_id=0)
        payload = rng.integers(0, 256, 512, dtype=np.uint8)

        def writer(ctx):
            l1 = ctx.core.sram.allocate(512)
            ctx.core.sram.view(l1, 512)[:] = payload
            yield from ctx.noc_write_buffer_burst_uniform(
                buf, 0, 4, 128, 512, l1)
            yield from ctx.noc_async_write_barrier()
        launch(device, [(writer, DATA_MOVER_1, {})])
        for i in range(4):
            assert np.array_equal(buf.read_host(i * 512, 128),
                                  payload[i * 128:(i + 1) * 128])


class TestMemcpy:
    def test_memcpy_moves_bytes(self, device):
        def k(ctx):
            a = ctx.core.sram.allocate(64)
            b = ctx.core.sram.allocate(64)
            ctx.core.sram.view(a, 64)[:] = 0x42
            yield from ctx.memcpy(b, a, 64)
            assert np.all(ctx.core.sram.view(b, 64) == 0x42)
        launch(device, [(k, DATA_MOVER_0, {})])

    def test_memcpy_rows_strided(self, device):
        def k(ctx):
            src = ctx.core.sram.allocate(256)
            dst = ctx.core.sram.allocate(64)
            for r in range(4):
                ctx.core.sram.view(src + r * 64, 16)[:] = r
            yield from ctx.memcpy_rows(dst, 16, src, 64, 16, 4)
            for r in range(4):
                assert np.all(ctx.core.sram.view(dst + r * 16, 16) == r)
        launch(device, [(k, DATA_MOVER_0, {})])

    def test_misaligned_memcpy_slower(self, device_factory):
        def make(src_off):
            def k(ctx):
                base = ctx.core.sram.allocate(4096, align=32)
                dst = ctx.core.sram.allocate(2048, align=32)
                yield from ctx.memcpy(dst, base + src_off, 1024)
            return k
        t = {}
        for off in (0, 2):
            dev = device_factory()
            t[off] = launch(dev, [(make(off), DATA_MOVER_0, {})])
        assert t[2] > t[0]

    def test_memcpy_rows_validates(self, device):
        def k(ctx):
            yield from ctx.memcpy_rows(0, 0, 0, 0, 16, 0)
        with pytest.raises(Exception):
            launch(device, [(k, DATA_MOVER_0, {})])


class TestCbAndSemaphores:
    def test_cb_flow_between_kernels(self, device):
        order = []

        def producer(ctx):
            yield from ctx.cb_reserve_back(0, 1)
            order.append("reserved")
            yield from ctx.cb_push_back(0, 1)

        def consumer(ctx):
            yield from ctx.cb_wait_front(0, 1)
            order.append("consumed")
            yield from ctx.cb_pop_front(0, 1)
        launch(device, [(producer, DATA_MOVER_0, {}),
                        (consumer, DATA_MOVER_1, {})],
               cbs=[(0, 64, 2)])
        assert order == ["reserved", "consumed"]

    def test_missing_cb_raises(self, device):
        def k(ctx):
            yield from ctx.cb_wait_front(7, 1)
        with pytest.raises(Exception) as ei:
            launch(device, [(k, DATA_MOVER_0, {})], lint="off")
        assert "no CB 7" in str(ei.value.__cause__)

    def test_semaphore_handoff(self, device):
        t_release = 0.0

        def waiter(ctx):
            yield from ctx.semaphore_wait(0, 1)
            assert ctx.sim.now >= t_release

        def poster(ctx):
            yield from ctx.semaphore_inc(0, 1)
        launch(device, [(waiter, DATA_MOVER_0, {}),
                        (poster, DATA_MOVER_1, {})],
               sems=[(0, 0)])

    def test_shared_semaphore_object(self, device):
        from repro.sim.resources import Semaphore
        shared = Semaphore(device.sim, value=0, name="global")

        def a(ctx):
            yield from ctx.semaphore_inc(shared, 1)

        def b(ctx):
            yield from ctx.semaphore_wait(shared, 1)
        launch(device, [(a, DATA_MOVER_0, {}), (b, DATA_MOVER_1, {})])

    def test_missing_semaphore_raises(self, device):
        def k(ctx):
            yield from ctx.semaphore_inc(3, 1)
        with pytest.raises(Exception) as ei:
            launch(device, [(k, DATA_MOVER_0, {})], lint="off")
        assert "no semaphore" in str(ei.value.__cause__)

    def test_missing_arg_raises(self, device):
        def k(ctx):
            ctx.arg("nonexistent")
            yield ctx.sim.timeout(0)
        with pytest.raises(Exception) as ei:
            launch(device, [(k, DATA_MOVER_0, {})], lint="off")
        assert "missing runtime arg" in str(ei.value.__cause__)

    def test_arg_default(self, device):
        seen = {}

        def k(ctx):
            seen["v"] = ctx.arg("opt", default=7)
            yield ctx.sim.timeout(0)
        launch(device, [(k, DATA_MOVER_0, {})])
        assert seen["v"] == 7


class TestSramWriteMulticast:
    def test_replicates_bytes_to_every_destination(self, device):
        grid = device.worker_grid(1, 3)[0]
        sender, dst_a, dst_b = grid

        def mcast(ctx):
            dsts = ctx.arg("dsts")
            src = ctx.core.sram.allocate(64, align=32)
            ctx.core.sram.view(src, 64)[:] = 0xA5
            yield from ctx.noc_sram_write_multicast(dsts, 0x9000, src, 64)
            yield from ctx.noc_async_write_barrier()

        prog = Program(device)
        CreateKernel(prog, mcast, sender, DATA_MOVER_0,
                     {"dsts": [dst_a, dst_b]})
        EnqueueProgram(device, prog)
        wall = Finish(device)
        assert wall > 0
        for dst in (dst_a, dst_b):
            assert (dst.sram.view(0x9000, 64) == 0xA5).all()
        # the source core's own window is untouched
        assert not (sender.sram.view(0x9000, 64) == 0xA5).all()

    def test_multicast_waits_at_the_write_barrier(self, device):
        """The replicated writes are async: the barrier must cover all
        of them, so bytes are visible right after it inside the kernel."""
        grid = device.worker_grid(1, 3)[0]
        sender, dst_a, dst_b = grid
        seen = {}

        def mcast(ctx):
            dsts = ctx.arg("dsts")
            src = ctx.core.sram.allocate(32, align=32)
            ctx.core.sram.view(src, 32)[:] = 0x5A
            yield from ctx.noc_sram_write_multicast(dsts, 0x400, src, 32)
            yield from ctx.noc_async_write_barrier()
            seen["landed"] = [bool((d.sram.view(0x400, 32) == 0x5A).all())
                              for d in dsts]

        prog = Program(device)
        CreateKernel(prog, mcast, sender, DATA_MOVER_0,
                     {"dsts": [dst_a, dst_b]})
        EnqueueProgram(device, prog)
        Finish(device)
        assert seen["landed"] == [True, True]

    def test_empty_destination_list_is_a_kernel_error(self, device):
        def bad(ctx):
            src = ctx.core.sram.allocate(32, align=32)
            yield from ctx.noc_sram_write_multicast([], 0x400, src, 32)

        with pytest.raises(Exception) as ei:
            launch(device, [(bad, DATA_MOVER_0, {})], lint="off")
        assert isinstance(ei.value.__cause__, KernelError)
        assert "destination" in str(ei.value.__cause__)

"""One R3xx race per branch of the NoC footprint map.

The static race rules and the witness replay share
:func:`repro.lint.api.footprint`: the static pass feeds it symbolic
operands resolved against the runtime args, the replay the concrete
operands a kernel passed.  Each program below races two unordered cores
through one branch of the map; the static pass must flag exactly its
rule, and replaying the witness in the DES must confirm the overlap.
"""

import pytest

from repro import lint
from repro.arch.device import GrayskullDevice
from repro.arch.tensix import DATA_MOVER_0
from repro.ttmetal import CreateKernel, Program, create_buffer
from repro.ttmetal.kernel_api import NocAddr


def _async_write(addr):
    def kernel(ctx):
        src = ctx.core.sram.allocate(64, align=32)
        yield from ctx.noc_async_write(src, NocAddr(0, addr), 64)
        yield from ctx.noc_async_write_barrier()
    return kernel


def _async_read(addr):
    def kernel(ctx):
        dst = ctx.core.sram.allocate(64, align=32)
        yield from ctx.noc_async_read(NocAddr(0, addr), dst, 64)
        yield from ctx.noc_async_read_barrier()
    return kernel


def _async_write_arg(ctx):
    src = ctx.core.sram.allocate(64, align=32)
    yield from ctx.noc_async_write(src, ctx.arg("addr"), 64)
    yield from ctx.noc_async_write_barrier()


def _async_read_arg(ctx):
    dst = ctx.core.sram.allocate(64, align=32)
    yield from ctx.noc_async_read(ctx.arg("addr"), dst, 64)
    yield from ctx.noc_async_read_barrier()


def _buffer_write(offset):
    def kernel(ctx):
        src = ctx.core.sram.allocate(64, align=32)
        yield from ctx.noc_write_buffer(ctx.arg("buf"), offset, src, 64)
        yield from ctx.noc_async_write_barrier()
    return kernel


def _sram_write(dst_l1):
    def kernel(ctx):
        src = ctx.core.sram.allocate(64, align=32)
        yield from ctx.noc_sram_write(ctx.arg("dst"), dst_l1, src, 64)
        yield from ctx.noc_async_write_barrier()
    return kernel


def _multicast(dst_l1):
    def kernel(ctx):
        src = ctx.core.sram.allocate(64, align=32)
        yield from ctx.noc_sram_write_multicast(ctx.arg("dsts"), dst_l1,
                                                src, 64)
        yield from ctx.noc_async_write_barrier()
    return kernel


def _program(kernels):
    """Build ``(device, program)``: ``kernels(dev, core_c, core_d)``
    gives the two racing ``(fn, args)`` pairs, placed on cores A and B
    of a 2x2 grid."""
    def build():
        dev = GrayskullDevice(dram_bank_capacity=1 << 20)
        grid = dev.worker_grid(2, 2)
        prog = Program(dev)
        for core, (fn, args) in zip(grid[0], kernels(dev, *grid[1])):
            CreateKernel(prog, fn, core, DATA_MOVER_0, args)
        return dev, prog
    return build


def _buffer_pair(**layout):
    def kernels(dev, _c, _d):
        buf = create_buffer(dev, 4096, **layout)
        return [(_buffer_write(0), {"buf": buf}),
                (_buffer_write(32), {"buf": buf})]
    return kernels


CASES = {
    "async-const": ("R302", lambda dev, c, d: [
        (_async_write(0), {}), (_async_read(32), {})]),
    "async-arg": ("R302", lambda dev, c, d: [
        (_async_write_arg, {"addr": NocAddr(0, 0)}),
        (_async_read_arg, {"addr": NocAddr(0, 32)})]),
    "buffer-single-bank": ("R301", _buffer_pair(bank_id=0)),
    "buffer-interleaved": ("R301", _buffer_pair(interleaved=True,
                                                page_size=1024)),
    "sram": ("R301", lambda dev, c, d: [
        (_sram_write(0x8000), {"dst": c}),
        (_sram_write(0x8020), {"dst": c})]),
    "multicast": ("R303", lambda dev, c, d: [
        (_multicast(0x8000), {"dsts": [c, d]}),
        (_multicast(0x8020), {"dsts": [d]})]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_static_race_confirms_on_replay(case):
    rule_id, kernels = CASES[case]
    build = _program(kernels)
    _dev, prog = build()
    report = lint.lint_program(prog)
    assert report.rule_ids() == [rule_id]
    (finding,) = report.findings
    result = lint.replay_witness(build, finding.witness)
    assert result.confirmed, result.detail

"""Drift guard: lint's view of the kernel API is the API itself.

Rules read operands by kernel-API parameter name and classify ops by
name.  A renamed parameter or op would make a rule read None and stay
silent, and a new NoC op nobody classified would move bytes no race
rule sees.  These tests fail on either instead.
"""

import inspect

import pytest

from repro import lint
from repro.arch.device import GrayskullDevice
from repro.arch.tensix import COMPUTE, DATA_MOVER_0
from repro.lint import api, concurrency, rules_kernel, rules_program
from repro.lint.trace import Call
from repro.ttmetal import (CreateCircularBuffer, CreateKernel,
                           CreateSemaphore, Program, create_buffer)
from repro.ttmetal.kernel_api import ComputeCtx, DataMoverCtx, NocAddr

#: every kernel-API op a kernel yields from -> its parameter names
API = {name: set(list(inspect.signature(fn).parameters)[1:])
       for cls in (DataMoverCtx, ComputeCtx)
       for name, fn in inspect.getmembers(cls, inspect.isgeneratorfunction)
       if not name.startswith("_")}

#: every op name some rule classifies
CLASSIFIED = (api.READ_OPS | api.WRITE_OPS | set(concurrency._KINDS)
              | set(rules_program._BUFFER_OPS)
              | set(rules_program._CONSUME_OPS)
              | set(rules_kernel._CONSUME_OPS))

#: ops that name an L1 address but move no NoC bytes
L1_LOCAL = {"memcpy", "memcpy_rows", "cb_set_rd_ptr", "cb_set_wr_ptr"}


def _every_data_mover_op(ctx):
    buf = ctx.arg("buf")
    peers = ctx.arg("peers")
    l1 = ctx.cb_write_ptr(0)
    yield from ctx.cb_reserve_back(0, 1)
    yield from ctx.noc_async_read(NocAddr(0, 0), l1, 32)
    yield from ctx.noc_read_buffer(buf, 0, l1, 32)
    yield from ctx.noc_read_buffer_burst(buf, ((0, 32),), l1)
    yield from ctx.noc_read_buffer_burst_uniform(buf, 0, 1, 32, 32, l1)
    yield from ctx.noc_async_read_barrier()
    yield from ctx.cb_push_back(0, 1)
    yield from ctx.noc_async_write(l1, NocAddr(0, 64), 32)
    yield from ctx.noc_write_buffer(buf, 64, l1, 32)
    yield from ctx.noc_write_buffer_burst(buf, ((64, 32),), l1)
    yield from ctx.noc_write_buffer_burst_uniform(buf, 64, 1, 32, 32, l1)
    yield from ctx.noc_sram_write(peers[0], 0x8000, l1, 32)
    yield from ctx.noc_sram_write_multicast(peers, 0x8000, l1, 32)
    yield from ctx.noc_async_write_barrier()
    yield from ctx.semaphore_set(0, 0)
    yield from ctx.semaphore_inc(0, 1)
    yield from ctx.semaphore_wait(0, 1)


def _every_compute_op(ctx):
    yield from ctx.cb_wait_front(0, 1)
    yield from ctx.cb_set_rd_ptr(0, 0)
    yield from ctx.tile_regs_acquire()
    yield from ctx.add_tiles(0, 0, 0, 0, 0)
    yield from ctx.sub_tiles(0, 0, 0, 0, 0)
    yield from ctx.mul_tiles(0, 0, 0, 0, 0)
    yield from ctx.matmul_tiles(0, 0, 0, 0, 0)
    yield from ctx.copy_tile(0, 0, 0)
    yield from ctx.add_tile_to_dst(0, 0, 0)
    yield from ctx.unary_tile("exp", 0, 0, 0)
    yield from ctx.reduce_tile(0, 0, 0)
    yield from ctx.transpose_tile(0, 0, 0)
    yield from ctx.cb_set_wr_ptr(1, 0)
    yield from ctx.pack_tile(0, 1)
    yield from ctx.tile_regs_release()
    yield from ctx.cb_pop_front(0, 1)


def _every_op_program():
    dev = GrayskullDevice(dram_bank_capacity=1 << 20)
    (core_a, core_b), = dev.worker_grid(1, 2)
    args = {"buf": create_buffer(dev, 4096, bank_id=0),
            "peers": (core_b,)}
    prog = Program(dev)
    for core in (core_a, core_b):
        CreateCircularBuffer(prog, core, 0, 64, 2)
        CreateCircularBuffer(prog, core, 1, 64, 2)
        CreateSemaphore(prog, core, 0, 0)
        CreateKernel(prog, _every_data_mover_op, core, DATA_MOVER_0,
                     dict(args))
    CreateKernel(prog, _every_compute_op, core_a, COMPUTE, {})
    return prog


@pytest.fixture(scope="module")
def reads():
    """Every ``(op, parameter)`` a rule asks for while linting a program
    that calls each kernel-API op once."""
    seen = set()
    real = Call.operand

    def recording(call, name):
        seen.add((call.name, name))
        return real(call, name)

    lint.clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Call, "operand", recording)
        lint.lint_program(_every_op_program())
    lint.clear_caches()
    return seen


def test_every_classified_op_is_a_kernel_api_op():
    assert CLASSIFIED - set(API) == set()


def test_every_parameter_a_rule_reads_exists_on_its_op(reads):
    # ``sync`` is optional by contract: an op without it never waits
    # for its transfer, so rules read it from every NoC op
    missing = {(op, name) for op, name in reads
               if name not in API[op] and name != "sync"}
    assert missing == set()
    assert {op for op, name in reads if name == "sync"} & {
        op for op, params in API.items() if "sync" in params}


def test_the_every_op_program_reaches_each_classified_op(reads):
    with_params = {op for op in CLASSIFIED if API[op]}
    assert with_params - {op for op, _name in reads} == set()


def test_every_noc_addressing_op_is_a_read_or_a_write():
    addressing = {op for op, params in API.items()
                  if params & {"l1_addr", "noc_addr", "buf", "dst_l1"}}
    assert addressing - api.READ_OPS - api.WRITE_OPS == L1_LOCAL

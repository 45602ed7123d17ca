"""What the rules know of the kernel API, kept in one place.

Rules never restate where an operand sits in a call: the tracer binds
every call's operands to the parameter names of the
:class:`~repro.ttmetal.kernel_api.DataMoverCtx` /
:class:`~repro.ttmetal.kernel_api.ComputeCtx` methods, and a rule asks
for one by name (``call.operand("cb_id")``).  This module holds the rest
of the contract: which ops move NoC bytes in which direction, which
parameters name a circular buffer, how a symbolic operand resolves
against one kernel's runtime args, and the NoC footprint map that both
the R3xx race rules and the witness replay use.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .trace import ArgVal, Const, NocAddrVal, ObjVal, const_int

__all__ = ["READ_OPS", "WRITE_OPS", "CB_PARAMS", "resolve", "footprint"]

#: NoC ops that move bytes into this core's L1
READ_OPS = frozenset({
    "noc_async_read", "noc_read_buffer", "noc_read_buffer_burst",
    "noc_read_buffer_burst_uniform"})
#: NoC ops that move bytes out of this core's L1
WRITE_OPS = frozenset({
    "noc_async_write", "noc_write_buffer", "noc_write_buffer_burst",
    "noc_write_buffer_burst_uniform", "noc_sram_write",
    "noc_sram_write_multicast"})
#: parameters that name a circular buffer, whatever the op
CB_PARAMS = ("cb_id", "cb", "cb_a", "cb_b", "cb_out")


def resolve(value, args):
    """The live value a symbolic operand denotes under one kernel's
    runtime ``args``, or None when it is statically unknown."""
    if isinstance(value, Const):
        return value.value
    if isinstance(value, ArgVal):
        return args.get(value.name)
    if isinstance(value, ObjVal):
        return value.obj
    if isinstance(value, NocAddrVal):
        from repro.ttmetal.kernel_api import NocAddr

        bank, addr = const_int(value.bank), const_int(value.addr)
        if bank is not None and addr is not None:
            return NocAddr(bank, addr)
    return None


#: one touched byte range: (space, key, lo, hi, human-readable space)
Interval = Tuple[str, object, int, int, str]


def footprint(op: str, obj: Callable[[str], object],
              num: Callable[[str], object]
              ) -> Optional[Tuple[Interval, ...]]:
    """The byte intervals one NoC op touches; None when unknown.

    ``obj(param)`` is the live object an operand names (a ``NocAddr``, a
    ``Buffer``, a destination core or list of cores) and ``num(param)``
    an int byte offset or size; either returns None when unknown.  The
    static R3xx pass resolves objects through runtime args but takes
    offsets and sizes only from constants; the witness replay passes the
    concrete operands the kernel used.  Bursts have no footprint.
    """
    from repro.ttmetal.buffers import Buffer
    from repro.ttmetal.kernel_api import NocAddr

    if op in ("noc_async_read", "noc_async_write"):
        noc, size = obj("noc_addr"), num("size")
        if not isinstance(noc, NocAddr) or size is None:
            return None
        bank, lo = int(noc.bank_id), int(noc.addr)
        return (("dram", bank, lo, lo + int(size), f"DRAM bank {bank}"),)
    if op in ("noc_read_buffer", "noc_write_buffer"):
        buf, offset, size = obj("buf"), num("offset"), num("size")
        if not isinstance(buf, Buffer) or offset is None or size is None:
            return None
        lo = int(offset)
        if buf.interleaved:
            return (("buf", id(buf), lo, lo + int(size),
                     "one interleaved DRAM buffer"),)
        lo += buf.addr
        return (("dram", buf.bank_id, lo, lo + int(size),
                 f"DRAM bank {buf.bank_id}"),)
    if op in ("noc_sram_write", "noc_sram_write_multicast"):
        dsts = [obj("dst_core")] if op == "noc_sram_write" \
            else obj("dst_cores")
        dst_l1, size = num("dst_l1"), num("size")
        if not isinstance(dsts, (list, tuple)) or not dsts \
                or dst_l1 is None or size is None \
                or not all(hasattr(dst, "sram") for dst in dsts):
            return None
        lo = int(dst_l1)
        return tuple(("l1", id(dst), lo, lo + int(size),
                      f"core {dst.coord} L1") for dst in dsts)
    return None

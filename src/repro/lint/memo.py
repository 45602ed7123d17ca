"""Report memo: lint each program shape once per process.

A launch loop re-enqueues the same program shape again and again: the
cluster solver builds one small program per card per iteration, and
every rep of a benchmark rebuilds the same launch on a fresh device.
The K/P/R passes would re-walk the same cached traces against the same
configuration each time.  :func:`signature` reduces a program to every
input a rule reads, as plain values, and :data:`MEMO` maps that
signature to the findings of the first program that had it.

The signature holds, per kernel in program order, the kernel
function's ``id`` (checked against a weak reference on a hit), its
slot and core, its sorted runtime-arg names (P205), and the values of
the runtime args and captured host objects its trace passes as call
operands — the only runtime values P206 and R301..R305 resolve.  Per
distinct core it holds the coordinate, live CB page counts, L1 regions
and capacity and live local-semaphore values; per program, the CB and
semaphore records and the device's DRAM alignment.  Host objects
(buffers, semaphores, cores) enter as their values plus a first-seen
ordinal, so which kernels share one object is part of the key without
the key holding the object.  An operand of any other type makes the
program unkeyable, and it is linted fresh.

Nothing here keeps a device alive: the table stores plain values,
findings and weak references to kernel functions, and is bounded by a
fixed LRU size.
"""

from __future__ import annotations

import functools
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .trace import ArgVal, ObjVal, extract_trace, iter_calls

__all__ = ["MEMO", "ReportMemo", "signature"]

#: signatures kept per process (least recently used dropped first)
_MEMO_SIZE = 64

#: scalar operands keep their type: ``1``, ``1.0`` and ``True`` are equal
#: keys, but the rules treat a bool semaphore id differently from an int
_SCALARS = {type(None): "none", bool: "bool", int: "int", float: "float",
            complex: "complex", str: "str", bytes: "bytes"}


class _Unkeyable(Exception):
    """An operand value of a type the signature cannot express."""


@functools.lru_cache(maxsize=None)
def _host_types():
    """``(NocAddr, {type: (tag, attributes)})`` of keyable host objects.

    Imported on first use: :mod:`repro.ttmetal` imports this package.
    """
    from repro.arch.tensix import TensixCore
    from repro.sim.resources import Semaphore
    from repro.ttmetal.buffers import Buffer
    from repro.ttmetal.kernel_api import NocAddr

    return NocAddr, {
        Buffer: ("buffer", ("interleaved", "bank_id", "addr", "size")),
        Semaphore: ("semaphore", ("name", "value")),
        TensixCore: ("core", ("coord",)),
    }


def _ordinal(obj, ordinals: Dict[int, int]) -> int:
    # every object keyed here is held by the program while the key is built
    return ordinals.setdefault(id(obj), len(ordinals))


def _canon(value, ordinals: Dict[int, int]):
    """A plain-value image of one operand value."""
    kind = type(value)
    tag = _SCALARS.get(kind)
    if tag is not None:
        return tag, value
    if kind is list or kind is tuple:
        return (kind.__name__, *[_canon(item, ordinals) for item in value])
    noc_addr, objects = _host_types()
    if kind is noc_addr:
        return "noc", value.bank_id, value.addr
    if kind not in objects:
        raise _Unkeyable(kind)
    tag, attrs = objects[kind]
    return (tag, _ordinal(value, ordinals),
            *[getattr(value, attr) for attr in attrs])


def _operands(trace) -> Tuple[tuple, tuple]:
    """The runtime-arg names and host objects the trace's calls pass as
    operands (cached on the trace, like its K-rule findings)."""
    cached = getattr(trace, "_memo_operands", None)
    if cached is None:
        names, objs = {}, {}
        for call in iter_calls(trace.nodes):
            for value in (*call.args, *call.kwargs.values()):
                if isinstance(value, ArgVal):
                    names[value.name] = None
                elif isinstance(value, ObjVal):
                    objs.setdefault(id(value.obj), value.obj)
        cached = (tuple(sorted(names)), tuple(objs.values()))
        trace._memo_operands = cached
    return cached


def _core_state(core, ordinals: Dict[int, int]) -> tuple:
    sram = core.sram
    return (_ordinal(core, ordinals), core.coord,
            tuple([(cb_id, cb.n_pages) for cb_id, cb in core.cbs.items()]),
            tuple(sram.regions), sram.capacity,
            tuple([(sem_id, sem.value)
                   for sem_id, sem in core.semaphores.items()]))


def signature(program) -> Optional[tuple]:
    """``(key, fns)`` for ``program``, or None when it cannot be keyed.

    ``key`` is a hashable tuple of plain values covering every rule
    input; ``fns`` are the distinct kernel functions in first-seen
    order, whose ``id`` the key holds.
    """
    ordinals: Dict[int, int] = {}
    fns: Dict[int, object] = {}
    cores: Dict[int, object] = {}
    kernels = []
    try:
        for spec in program.kernels:
            fn, core, args = spec.fn, spec.core, spec.args or {}
            fns.setdefault(id(fn), fn)
            cores.setdefault(id(core), core)
            names, objs = _operands(extract_trace(fn))
            kernels.append((
                id(fn), spec.slot, _ordinal(core, ordinals),
                tuple(sorted(args)),
                tuple([_canon(args[name], ordinals)
                       for name in names if name in args]),
                tuple([_canon(obj, ordinals) for obj in objs])))
        key = (
            getattr(getattr(program.device, "costs", None),
                    "dram_alignment", 32),
            tuple(kernels),
            tuple([_core_state(core, ordinals) for core in cores.values()]),
            tuple([(_ordinal(r.core, ordinals), r.cb_id, r.page_size,
                    r.n_pages, r.dtype)
                   for r in program.circular_buffers]),
            tuple([(_ordinal(r.core, ordinals), r.sem_id, r.initial)
                   for r in program.semaphores]))
        hash(key)
    except (_Unkeyable, AttributeError, TypeError):
        return None
    return key, tuple(fns.values())


class ReportMemo:
    """Bounded LRU table: program signature -> findings."""

    def __init__(self):
        self._table: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.hits = self.misses = self.unkeyed = 0

    def get(self, sig: Optional[tuple]) -> Optional[tuple]:
        """The stored findings of ``sig``, or None on a miss."""
        if sig is None:
            self.unkeyed += 1
            return None
        key, fns = sig
        entry = self._table.get(key)
        # a dead or replaced function may have left its id to a new one
        if entry is None or any(ref() is not fn
                                for ref, fn in zip(entry[0], fns)):
            self.misses += 1
            return None
        self._table.move_to_end(key)
        self.hits += 1
        return entry[1]

    def put(self, sig: Optional[tuple], findings) -> None:
        if sig is None:
            return
        key, fns = sig
        try:
            refs = tuple([weakref.ref(fn) for fn in fns])
        except TypeError:               # a kernel callable without weakrefs
            return
        self._table[key] = (refs, tuple(findings))
        self._table.move_to_end(key)
        if len(self._table) > _MEMO_SIZE:
            self._table.popitem(last=False)

    def clear(self) -> None:
        self._table.clear()
        self.hits = self.misses = self.unkeyed = 0

    def __len__(self) -> int:
        return len(self._table)


#: the per-process memo :func:`repro.lint.lint_program` consults
MEMO = ReportMemo()

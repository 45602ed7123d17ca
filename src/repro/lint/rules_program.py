"""Program-level lint rules (P201..P207).

These rules need the whole :class:`~repro.ttmetal.host.Program`: which
kernels run on which core, how each core's circular buffers are
configured, the runtime-args dict of each kernel, the L1 layout, and
the DRAM buffers reachable through runtime args.  Like the kernel
rules they are fail-open: a kernel whose trace is unavailable makes the
cross-kernel CB rules on its core stand down, and any statically-unknown
CB id or operand suppresses rather than guesses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .api import CB_PARAMS, READ_OPS, resolve
from .findings import Finding
from .registry import make_finding
from .trace import (Call, KernelTrace, const_int, extract_trace, iter_calls,
                    iter_calls_guarded)

__all__ = ["program_findings", "lint_l1_regions"]

#: ops that consume (or alias) CB pages
_CONSUME_OPS = ("cb_wait_front", "cb_pop_front", "cb_set_rd_ptr")

#: buffer-level NoC ops -> the parameter holding their DRAM offset
_BUFFER_OPS = {
    "noc_read_buffer": "offset",
    "noc_write_buffer": "offset",
    "noc_read_buffer_burst_uniform": "start",
    "noc_write_buffer_burst_uniform": "start",
}


def _cb_of(call: Call) -> Optional[int]:
    return const_int(call.operand("cb_id"))


def _referenced_cbs(call: Call):
    """Yield the CB id (None when unknown) of every CB operand."""
    for param in CB_PARAMS:
        if param in call.operands:
            yield const_int(call.operands[param])


# --------------------------------------------------------------------------
# per-core CB graph: P201 / P202 / P207
# --------------------------------------------------------------------------

def _cb_graph_rules(core, traces, configured: Dict[int, int],
                    findings: List[Finding]) -> None:
    opaque_core = any(t.unavailable or t.truncated for t in traces)
    if opaque_core:
        return
    push_sites: Dict[int, Tuple[str, str, int]] = {}
    wait_sites: Dict[int, Tuple[str, str, int]] = {}
    consumers: Set[int] = set()
    unknown_push = unknown_consume = False
    for trace in traces:
        for call in iter_calls(trace.nodes):
            if call.name == "cb_push_back":
                cb = _cb_of(call)
                if cb is None:
                    unknown_push = True
                else:
                    push_sites.setdefault(
                        cb, (trace.fn_name, call.filename, call.lineno))
            elif call.name in _CONSUME_OPS:
                cb = _cb_of(call)
                if cb is None:
                    unknown_consume = True
                else:
                    consumers.add(cb)
                    if call.name == "cb_wait_front":
                        wait_sites.setdefault(
                            cb,
                            (trace.fn_name, call.filename, call.lineno))
    coord = getattr(core, "coord", None)
    where = f"core{coord}" if coord is not None else "core"
    if not unknown_consume:
        for cb, (fn_name, filename, lineno) in sorted(push_sites.items()):
            if cb not in consumers:
                findings.append(make_finding(
                    "P201",
                    f"CB {cb} is pushed by {fn_name} but no kernel on "
                    f"{where} ever waits on, pops or aliases it",
                    filename=filename, lineno=lineno, kernel=fn_name))
    if not unknown_push:
        for cb, (fn_name, filename, lineno) in sorted(wait_sites.items()):
            if cb not in push_sites:
                findings.append(make_finding(
                    "P202",
                    f"{fn_name} waits on CB {cb} but no kernel on "
                    f"{where} ever pushes to it",
                    filename=filename, lineno=lineno, kernel=fn_name))
    # P207: referenced but never configured.  Only unguarded references
    # count — a CB used solely inside a branch may be gated by the same
    # runtime flag that decides whether the host configures it (the
    # optional-RHS path of the generic stencil kernels does exactly this).
    seen: Set[Tuple[str, int]] = set()
    for trace in traces:
        for call, guarded in iter_calls_guarded(trace.nodes):
            if guarded:
                continue
            for cb in _referenced_cbs(call):
                if cb is None or cb in configured:
                    continue
                key = (trace.fn_name, cb)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(make_finding(
                    "P207",
                    f"{trace.fn_name} references CB {cb}, which was "
                    f"never configured on {where} "
                    "(no CreateCircularBuffer)",
                    filename=call.filename, lineno=call.lineno,
                    kernel=trace.fn_name))


# --------------------------------------------------------------------------
# P203: static page demand vs. n_pages
# --------------------------------------------------------------------------

def _p203(trace: KernelTrace, configured: Dict[int, int],
          findings: List[Finding]) -> None:
    from .trace import Branch, Loop, Opaque

    # single-op demand: one reserve/wait can never exceed n_pages
    flagged: Set[Tuple[int, int]] = set()
    excluded: Set[int] = set()
    unknown_ops = trace.truncated
    for call in iter_calls(trace.nodes):
        if call.name not in ("cb_reserve_back", "cb_wait_front",
                             "cb_push_back"):
            continue
        cb, n = _cb_of(call), const_int(call.operand("n"))
        if cb is None:
            unknown_ops = True
            continue
        if n is None:
            excluded.add(cb)
            continue
        pages = configured.get(cb)
        if pages is None:
            continue                   # P207 territory
        if call.name != "cb_push_back" and n > pages:
            verb = "reserve" if call.name == "cb_reserve_back" else "wait"
            key = (cb, call.lineno)
            if key not in flagged:
                flagged.add(key)
                findings.append(make_finding(
                    "P203",
                    f"{trace.fn_name} {verb}s {n} page(s) on CB {cb}, "
                    f"which only has n_pages={pages}: the request can "
                    "never be satisfied",
                    filename=call.filename, lineno=call.lineno,
                    kernel=trace.fn_name))
    if unknown_ops:
        return

    # cumulative demand: reserved-not-yet-pushed along any straight path
    def walk(nodes, cur: Dict[int, int]) -> Dict[int, int]:
        for node in nodes:
            if isinstance(node, Call) and node.name in ("cb_reserve_back",
                                                        "cb_push_back"):
                cb, n = _cb_of(node), const_int(node.operand("n"))
                if node.name == "cb_reserve_back":
                    if cb is None or cb in excluded:
                        continue
                    if n is None:
                        excluded.add(cb)
                        continue
                    cur[cb] = cur.get(cb, 0) + n
                    pages = configured.get(cb)
                    if pages is not None and cur[cb] > pages:
                        key = (cb, node.lineno)
                        if key not in flagged:
                            flagged.add(key)
                            findings.append(make_finding(
                                "P203",
                                f"{trace.fn_name} accumulates "
                                f"{cur[cb]} reserved-but-unpushed "
                                f"page(s) on CB {cb} "
                                f"(n_pages={pages}): the reserve "
                                "deadlocks with no consumer progress "
                                "possible",
                                filename=node.filename,
                                lineno=node.lineno,
                                kernel=trace.fn_name))
                        cur[cb] = 0    # report once, don't cascade
                elif node.name == "cb_push_back" and cb is not None:
                    if n is None:
                        cur[cb] = 0
                    else:
                        cur[cb] = max(0, cur.get(cb, 0) - n)
            elif isinstance(node, Opaque):
                cur.clear()            # could push anything: fail open
            elif isinstance(node, Branch):
                # optimistic (min) merge: pipelined readers reserve ahead
                # in a guarded arm whose else-arm (the final iteration)
                # rebalances — a pessimistic max would accumulate phantom
                # demand across outer-loop iterations
                arms = [walk(arm, dict(cur)) for arm in node.arms]
                cbs = set()
                for arm in arms:
                    cbs.update(arm)
                merged = {cb: min(arm.get(cb, 0) for arm in arms)
                          for cb in cbs}
                cur.clear()
                cur.update(merged)
            elif isinstance(node, Loop):
                # pass 2 starts from the pessimistic join so demand that
                # grows across iterations is seen; the exit state is the
                # optimistic post-body state (a loop that pushes is
                # assumed to run — fail-open)
                after_one = walk(node.body, dict(cur))
                entry = {cb: max(cur.get(cb, 0), after_one.get(cb, 0))
                         for cb in set(cur) | set(after_one)}
                after_two = walk(node.body, dict(entry))
                cur.clear()
                cur.update(after_two)
        return cur

    walk(trace.nodes, {})


# --------------------------------------------------------------------------
# P204: L1 layout overlap
# --------------------------------------------------------------------------

def lint_l1_regions(regions, capacity: int, *, filename: str = "<L1>",
                    kernel: str = "L1 layout") -> List[Finding]:
    """Check a list of ``(base, size, label)`` L1 regions for overlap.

    Exposed directly (besides running per-core inside
    :func:`program_findings`) so tests and tools can verify layouts
    that never went through ``Sram.allocate``.
    """
    findings: List[Finding] = []
    items = sorted(regions, key=lambda r: (r[0], r[1]))
    for i, (base, size, label) in enumerate(items):
        if base + size > capacity:
            findings.append(make_finding(
                "P204",
                f"L1 region '{label}' [{base}, {base + size}) exceeds "
                f"the {capacity}-byte L1", filename=filename, lineno=0,
                kernel=kernel))
        if i + 1 < len(items):
            nbase, nsize, nlabel = items[i + 1]
            if nbase < base + size:
                findings.append(make_finding(
                    "P204",
                    f"L1 regions '{label}' [{base}, {base + size}) and "
                    f"'{nlabel}' [{nbase}, {nbase + nsize}) overlap",
                    filename=filename, lineno=0, kernel=kernel))
    return findings


def _p204(core, findings: List[Finding]) -> None:
    sram = getattr(core, "sram", None)
    regions = getattr(sram, "regions", None)
    if not regions:
        return
    coord = getattr(core, "coord", None)
    kernel = f"core{coord} L1 layout" if coord is not None \
        else "L1 layout"
    findings.extend(lint_l1_regions(regions, sram.capacity,
                                    kernel=kernel))


# --------------------------------------------------------------------------
# P205: required ctx.arg names vs. the CreateKernel args dict
# --------------------------------------------------------------------------

_IMPLICIT_ARGS = frozenset({"_device"})


def _p205(spec, trace: KernelTrace, findings: List[Finding]) -> None:
    if trace.unavailable:
        return
    args = spec.args or {}
    reported: Set[str] = set()
    for ref in trace.arg_refs:
        if ref.name is None or not ref.required:
            continue
        if ref.name in args or ref.name in _IMPLICIT_ARGS:
            continue
        if ref.name in reported:
            continue
        reported.add(ref.name)
        findings.append(make_finding(
            "P205",
            f"{trace.fn_name} requires runtime arg {ref.name!r} but "
            "CreateKernel did not pass it",
            filename=trace.filename, lineno=ref.lineno,
            kernel=trace.fn_name))


# --------------------------------------------------------------------------
# P206: DRAM offsets of buffer-level transfers must be aligned
# --------------------------------------------------------------------------

def _p206(spec, trace: KernelTrace, device,
          findings: List[Finding]) -> None:
    from repro.ttmetal.buffers import Buffer
    align = getattr(getattr(device, "costs", None), "dram_alignment", 32)
    args = spec.args or {}
    seen: Set[Tuple[int, int]] = set()
    for call in iter_calls(trace.nodes):
        if call.name not in _BUFFER_OPS:
            continue
        buf = resolve(call.operand("buf"), args)
        if not isinstance(buf, Buffer) or buf.interleaved:
            continue
        offset = const_int(call.operand(_BUFFER_OPS[call.name]))
        if offset is None:
            continue
        addr = buf.addr + offset
        if addr % align == 0:
            continue
        key = (call.lineno, addr)
        if key in seen:
            continue
        seen.add(key)
        direction = "read" if call.name in READ_OPS else "write"
        findings.append(make_finding(
            "P206",
            f"{trace.fn_name} {direction}s buffer at DRAM offset "
            f"{offset} (absolute address {addr}), which is not "
            f"{align}-byte ({8 * align}-bit) aligned",
            filename=call.filename, lineno=call.lineno,
            kernel=trace.fn_name))


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def program_findings(program) -> List[Finding]:
    """Run every P-rule over an assembled Program."""
    findings: List[Finding] = []
    device = getattr(program, "device", None)

    by_core: Dict[int, Tuple[object, list]] = {}
    for spec in getattr(program, "kernels", []):
        entry = by_core.setdefault(id(spec.core), (spec.core, []))
        entry[1].append(spec)

    configured_by_core: Dict[int, Dict[int, int]] = {}
    for record in getattr(program, "circular_buffers", []):
        cfg = configured_by_core.setdefault(id(record.core), {})
        cfg[record.cb_id] = record.n_pages

    for core_key, (core, specs) in by_core.items():
        configured = dict(configured_by_core.get(core_key, {}))
        for cb_id, cb in getattr(core, "cbs", {}).items():
            configured.setdefault(cb_id, cb.n_pages)
        traces = [extract_trace(spec.fn) for spec in specs]
        _cb_graph_rules(core, traces, configured, findings)
        _p204(core, findings)
        for spec, trace in zip(specs, traces):
            if trace.unavailable:
                continue
            _p203(trace, configured, findings)
            _p205(spec, trace, findings)
            _p206(spec, trace, device, findings)
    findings.sort(key=lambda f: (f.rule_id, f.kernel, f.lineno))
    return findings

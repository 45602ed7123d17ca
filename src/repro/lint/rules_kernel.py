"""Per-kernel lint rules (K101..K106).

All rules run on the symbolic trace from :mod:`repro.lint.trace` and are
written fail-open: whenever an operand, CB id or control path is not
statically known the rule stays silent rather than guessing.  The hazard
rules (K103/K104/K105) run a small abstract interpreter over the trace
with three-valued ("definitely / maybe / definitely-not") states and
only report *definite* violations; branches join pessimistically toward
"maybe" and loops are analysed with a two-pass fixpoint so state carried
across iterations is observed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .api import READ_OPS, WRITE_OPS
from .findings import Finding
from .registry import make_finding
from .trace import (Branch, Call, CbPtr, KernelTrace, Loop, NocAddrVal,
                    Opaque, const_int, const_value, extract_trace,
                    iter_calls)

__all__ = ["lint_kernel", "kernel_findings"]

NONE, MAYBE, YES = 0, 1, 2

#: ops that consume pages (used for the K105 "consumed CB" scoping)
_CONSUME_OPS = ("cb_wait_front", "cb_pop_front")


def _cb_of(call: Call) -> Optional[int]:
    return const_int(call.operand("cb_id"))


class _Findings:
    """Deduplicating finding collector (loops are walked twice)."""

    def __init__(self, trace: KernelTrace):
        self.trace = trace
        self._seen: Dict[Tuple, Finding] = {}

    def emit(self, rule_id: str, message: str, lineno: int,
             dedup_key=None) -> None:
        key = (rule_id, lineno, dedup_key)
        if key in self._seen:
            return
        self._seen[key] = make_finding(
            rule_id, message, filename=self.trace.filename, lineno=lineno,
            kernel=self.trace.fn_name)

    def findings(self) -> List[Finding]:
        return sorted(self._seen.values(),
                      key=lambda f: (f.rule_id, f.lineno))


# --------------------------------------------------------------------------
# K101: per-loop-iteration reserve/push balance
# --------------------------------------------------------------------------

def _k101(trace: KernelTrace, out: _Findings) -> None:
    _k101_scan(trace.nodes, out)


def _k101_scan(nodes, out: _Findings):
    """Return (net reserve-push per cb, skipped cbs, everything-unknown)."""
    net: Dict[int, int] = {}
    skip: Set[int] = set()
    unknown_all = False
    for node in nodes:
        if isinstance(node, Call):
            if node.name not in ("cb_reserve_back", "cb_push_back"):
                continue
            cb = _cb_of(node)
            if cb is None:
                unknown_all = True
                continue
            n = const_int(node.operand("n"))
            if n is None:
                skip.add(cb)
                continue
            net[cb] = net.get(cb, 0) + (n if node.name == "cb_reserve_back"
                                        else -n)
        elif isinstance(node, Opaque):
            unknown_all = True
        elif isinstance(node, Branch):
            arms = [_k101_scan(arm, out) for arm in node.arms]
            cbs = set()
            for arm_net, arm_skip, arm_unknown in arms:
                unknown_all |= arm_unknown
                skip |= arm_skip
                cbs |= set(arm_net)
            for cb in cbs:
                values = {arm_net.get(cb, 0) for arm_net, _, _ in arms}
                if len(values) == 1:
                    net[cb] = net.get(cb, 0) + values.pop()
                else:
                    skip.add(cb)
        elif isinstance(node, Loop):
            inner_net, inner_skip, inner_unknown = _k101_scan(node.body,
                                                              out)
            unknown_all |= inner_unknown
            skip |= inner_skip
            if not inner_unknown:
                for cb, value in inner_net.items():
                    if value != 0 and cb not in inner_skip:
                        verb = "reserves" if value > 0 else "pushes"
                        out.emit("K101",
                                 f"loop body {verb} {abs(value)} more "
                                 f"page(s) on CB {cb} than it "
                                 f"{'pushes' if value > 0 else 'reserves'}"
                                 " per iteration",
                                 node.lineno, dedup_key=cb)
                    skip.add(cb)       # imbalance reported where it lives
    return net, skip, unknown_all


# --------------------------------------------------------------------------
# K102: pop on a CB the kernel never waits on
# --------------------------------------------------------------------------

def _k102(trace: KernelTrace, out: _Findings) -> None:
    waited: Set[int] = set()
    unknown_wait = False
    pops: List[Tuple[int, int]] = []
    for call in iter_calls(trace.nodes):
        if call.name == "cb_wait_front":
            cb = _cb_of(call)
            if cb is None:
                unknown_wait = True
            else:
                waited.add(cb)
        elif call.name == "cb_pop_front":
            cb = _cb_of(call)
            if cb is not None:
                pops.append((cb, call.lineno))
    if unknown_wait:
        return
    for cb, lineno in pops:
        if cb not in waited:
            out.emit("K102",
                     f"cb_pop_front(CB {cb}) but this kernel never calls "
                     f"cb_wait_front on CB {cb}", lineno, dedup_key=cb)


# --------------------------------------------------------------------------
# abstract-state walker shared by K103/K104/K105
# --------------------------------------------------------------------------

class _Walker:
    """Three-valued abstract interpretation over a trace tree."""

    def walk(self, nodes, state: Dict) -> Dict:
        for node in nodes:
            if isinstance(node, Call):
                self.on_call(node, state)
            elif isinstance(node, Opaque):
                self.on_opaque(state)
            elif isinstance(node, Branch):
                results = [self.walk(arm, dict(state))
                           for arm in node.arms]
                merged = self.join(results)
                state.clear()
                state.update(merged)
            elif isinstance(node, Loop):
                after_one = self.walk(node.body, dict(state))
                joined = self.join([dict(state), after_one])
                after_two = self.walk(node.body, dict(joined))
                final = self.join([joined, after_two])
                state.clear()
                state.update(final)
        return state

    @staticmethod
    def join(states: List[Dict]) -> Dict:
        keys = set()
        for s in states:
            keys.update(s)
        out = {}
        for key in keys:
            values = {s.get(key, NONE) for s in states}
            out[key] = values.pop() if len(values) == 1 else MAYBE
        return out

    def on_call(self, call: Call, state: Dict) -> None:
        raise NotImplementedError

    def on_opaque(self, state: Dict) -> None:
        # an uninterpreted yield may drain or issue anything: soften
        # every definite fact to MAYBE
        for key, value in state.items():
            if value != MAYBE:
                state[key] = MAYBE


def _issue_level(call: Call) -> int:
    """YES/MAYBE/NONE: does this NoC op leave an outstanding transfer?"""
    sync = call.operand("sync")
    if sync is None:
        return YES                     # no sync operand: async
    value = const_value(sync)
    if value is True:
        return NONE                    # synchronous: drained on return
    if value is False:
        return YES
    return MAYBE


class _K103Walker(_Walker):
    """Reads into a CB page must hit a read barrier before cb_push_back."""

    def __init__(self, out: _Findings):
        self.out = out

    def on_call(self, call: Call, state: Dict) -> None:
        if call.name in READ_OPS:
            dest = call.operand("l1_addr")
            if isinstance(dest, CbPtr) and dest.kind == "write" \
                    and dest.cb is not None:
                level = _issue_level(call)
                if level != NONE:
                    state[dest.cb] = max(state.get(dest.cb, NONE), level)
        elif call.name == "noc_async_read_barrier":
            state.clear()
        elif call.name == "cb_push_back":
            cb = _cb_of(call)
            if cb is not None and state.get(cb, NONE) == YES:
                self.out.emit(
                    "K103",
                    f"cb_push_back(CB {cb}) publishes a page while a NoC "
                    f"read into cb_write_ptr(CB {cb}) is still "
                    "outstanding (no noc_async_read_barrier in between)",
                    call.lineno, dedup_key=cb)


class _K104Walker(_Walker):
    """NoC writes must drain before a semaphore_inc hand-off."""

    def __init__(self, out: _Findings):
        self.out = out

    def on_call(self, call: Call, state: Dict) -> None:
        if call.name in WRITE_OPS:
            level = _issue_level(call)
            if level != NONE:
                state["w"] = max(state.get("w", NONE), level)
        elif call.name == "noc_async_write_barrier":
            state["w"] = NONE
        elif call.name == "semaphore_inc":
            if state.get("w", NONE) == YES:
                self.out.emit(
                    "K104",
                    "semaphore_inc signals the peer while NoC writes are "
                    "still outstanding (no noc_async_write_barrier in "
                    "between)", call.lineno)


class _K105Walker(_Walker):
    """cb_set_rd_ptr on a consumed CB only between wait and pop."""

    def __init__(self, out: _Findings, consumed: Set[int]):
        self.out = out
        self.consumed = consumed

    def on_call(self, call: Call, state: Dict) -> None:
        if call.name not in ("cb_wait_front", "cb_pop_front",
                             "cb_set_rd_ptr"):
            return
        cb = _cb_of(call)
        if call.name == "cb_wait_front":
            if cb is None:
                self.on_opaque(state)
                for tracked in self.consumed:
                    state.setdefault(tracked, MAYBE)
            else:
                state[cb] = YES
        elif call.name == "cb_pop_front":
            if cb is None:
                self.on_opaque(state)
            else:
                state[cb] = NONE
        elif call.name == "cb_set_rd_ptr":
            if cb is not None and cb in self.consumed \
                    and state.get(cb, NONE) == NONE:
                self.out.emit(
                    "K105",
                    f"cb_set_rd_ptr(CB {cb}) without a cb_wait_front "
                    "since the last cb_pop_front: the kernel does not "
                    "own the pages it is aliasing", call.lineno,
                    dedup_key=cb)

    def on_opaque(self, state: Dict) -> None:
        # unknown yields might wait (gaining ownership): soften both ways
        for key in list(state):
            state[key] = MAYBE
        # untracked keys default to NONE; leave them — consumed set is
        # re-seeded by the caller


def _k105(trace: KernelTrace, out: _Findings) -> None:
    consumed: Set[int] = set()
    for call in iter_calls(trace.nodes):
        if call.name in _CONSUME_OPS:
            cb = _cb_of(call)
            if cb is not None:
                consumed.add(cb)
    if not consumed:
        return                         # pure-alias CBs (jacobi_sram style)
    walker = _K105Walker(out, consumed)
    has_opaque = _contains_opaque(trace.nodes)
    state = {cb: MAYBE if has_opaque else NONE for cb in consumed}
    walker.walk(trace.nodes, state)


def _contains_opaque(nodes) -> bool:
    for node in nodes:
        if isinstance(node, Opaque):
            return True
        if isinstance(node, Loop) and _contains_opaque(node.body):
            return True
        if isinstance(node, Branch) and any(_contains_opaque(arm)
                                            for arm in node.arms):
            return True
    return False


# --------------------------------------------------------------------------
# K106: constant NoC addresses must be 256-bit aligned
# --------------------------------------------------------------------------

def _k106(trace: KernelTrace, out: _Findings) -> None:
    from repro.perfmodel.calibration import DEFAULT_COSTS
    align = DEFAULT_COSTS.dram_alignment
    for call in iter_calls(trace.nodes):
        if call.name not in ("noc_async_read", "noc_async_write"):
            continue
        addr = call.operand("noc_addr")
        if not isinstance(addr, NocAddrVal):
            continue
        value = const_value(addr.addr)
        if isinstance(value, int) and value % align:
            out.emit(
                "K106",
                f"{call.name} at DRAM address {value}, which is not "
                f"{align}-byte ({8 * align}-bit) aligned "
                f"(address % {align} == {value % align})",
                call.lineno, dedup_key=value)


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def kernel_findings(trace: KernelTrace) -> List[Finding]:
    """Run every K-rule over one extracted trace (memoized per trace)."""
    cached = getattr(trace, "_kernel_findings", None)
    if cached is not None:
        return cached
    out = _Findings(trace)
    if trace.unavailable:
        trace._kernel_findings = []
        return []
    _k101(trace, out)
    _k102(trace, out)
    _K103Walker(out).walk(trace.nodes, {})
    _K104Walker(out).walk(trace.nodes, {})
    _k105(trace, out)
    _k106(trace, out)
    result = out.findings()
    trace._kernel_findings = result
    return result


def lint_kernel(fn) -> List[Finding]:
    """Lint one kernel function; returns its findings."""
    return kernel_findings(extract_trace(fn))

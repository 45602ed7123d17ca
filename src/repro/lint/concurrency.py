"""Whole-program concurrency verification: the R3xx launch rules.

The per-kernel (K1xx) and per-core (P2xx) rules treat each kernel and
each core in isolation; cross-core hazards — a NoC write racing a read
on another core, a semaphore nobody signals, a circular wait spanning
the grid — are invisible to them.  This pass builds a *happens-before
graph* over every kernel of a launch and checks it:

Nodes
    One per synchronization-relevant symbolic API call: NoC reads /
    writes / multicasts, read/write barriers, semaphore set/inc/wait,
    CB reserve/push/wait/pop.  Nodes come from the cached context-free
    :func:`repro.lint.trace.extract_trace` skeletons; per-spec runtime
    args (``ctx.arg``) are resolved at linearization time, the same way
    the P2xx rules bind ``ArgVal`` operands.

Edges (all conservative over-approximations — an extra edge can only
*suppress* a finding, never create one, which is the fail-open
direction)
    * program order within one kernel;
    * every ``semaphore_inc``/``semaphore_set`` to every
      ``semaphore_wait`` on the same semaphore identity, launch-wide;
    * CB producer/consumer coupling per (core, cb): ``cb_push_back`` to
      ``cb_wait_front`` and ``cb_pop_front`` to ``cb_reserve_back``;
    * async NoC ops *commit* at their next same-direction barrier in
      program order — an uncommitted write orders nothing.

Rules
    R301  cross-core write/write race on overlapping byte intervals
    R302  cross-core write/read race on overlapping byte intervals
    R303  multicast-destination overlap race
    R304  lost or mismatched semaphore signal
    R305  global circular-wait deadlock (abstract round-robin execution
          of fully straight-line launches; generalizes the per-core
          P203 page-count check)

Every finding carries a :class:`repro.lint.witness.Witness` — a
concrete minimal interleaving the DES can replay (``repro lint
--witness``) to confirm the hazard dynamically.  Byte intervals come
from :func:`repro.lint.api.footprint`, the map the replay also uses.  Race witnesses are
only emitted at *prefix-exact* trace positions (no loop, branch or
opaque region earlier in program order), so the
symbolic call index equals the runtime API-call count and the replay
governor can stop the kernel at exactly the witnessed call.

Fail-open policy: statically-unknown addresses, semaphore identities,
CB ids or any opaque/truncated trace suppress the affected rules for
the launch rather than guess.  Launches on fewer than two distinct
cores are skipped outright — every R3xx hazard needs two cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .api import READ_OPS, WRITE_OPS, footprint, resolve
from .findings import Finding
from .registry import make_finding
from .trace import Branch, Call, Loop, Opaque, const_int, extract_trace
from .witness import Witness, WitnessStep

__all__ = ["concurrency_findings"]

#: fail-open cap on linearized events per launch
_MAX_EVENTS = 40_000
#: fail-open cap on abstract-execution steps (R305)
_MAX_ABSTRACT_STEPS = 10_000
#: longest schedule prefix serialized into a hang witness
_MAX_WITNESS_STEPS = 64

_KINDS = {
    "noc_async_write_barrier": "wbar",
    "noc_async_read_barrier": "rbar",
    "semaphore_wait": "sem_wait",
    "semaphore_inc": "sem_inc",
    "semaphore_set": "sem_set",
    "cb_reserve_back": "cb_reserve",
    "cb_push_back": "cb_push",
    "cb_wait_front": "cb_wait",
    "cb_pop_front": "cb_pop",
}


def _kind(op: str) -> str:
    if op in WRITE_OPS:
        return "write"
    if op in READ_OPS:
        return "read"
    return _KINDS.get(op, "other")


# --------------------------------------------------------------------------
# per-trace skeleton (context-free, cached on the KernelTrace)
# --------------------------------------------------------------------------

@dataclass
class _Skel:
    """One linearized call with its program-position flags."""

    call: Call
    index: Optional[int]   #: runtime API-call count, None once inexact
    guarded: bool          #: inside a Branch arm
    looped: bool           #: inside a Loop body


@dataclass
class _Skeleton:
    events: List[_Skel]
    static: bool           #: fully straight-line (R305 precondition)
    opaque: bool           #: trace unavailable/truncated or has Opaque


def _skeleton(trace) -> _Skeleton:
    cached = getattr(trace, "_concurrency_skel", None)
    if cached is not None:
        return cached
    events: List[_Skel] = []
    state = {"index": 0, "exact": True, "static": True, "opaque": False}

    def walk(nodes, guarded: bool, looped: bool) -> None:
        for node in nodes:
            if isinstance(node, Call):
                if node.star:
                    state["static"] = False
                index = None
                if state["exact"] and not guarded and not looped:
                    index = state["index"]
                    state["index"] += 1
                events.append(_Skel(node, index, guarded, looped))
            elif isinstance(node, Loop):
                state["exact"] = False
                state["static"] = False
                walk(node.body, guarded, True)
            elif isinstance(node, Branch):
                state["exact"] = False
                state["static"] = False
                for arm in node.arms:
                    walk(arm, True, looped)
            elif isinstance(node, Opaque):
                state["exact"] = False
                state["static"] = False
                state["opaque"] = True

    walk(trace.nodes, False, False)
    if trace.unavailable or trace.truncated:
        state["opaque"] = True
        state["static"] = False
    skeleton = _Skeleton(events, static=state["static"],
                         opaque=state["opaque"])
    trace._concurrency_skel = skeleton
    return skeleton


# --------------------------------------------------------------------------
# per-spec resolution
# --------------------------------------------------------------------------

@dataclass
class _Event:
    """One resolved happens-before node."""

    eid: int
    label: str
    core_key: int
    kernel_idx: int
    op: str
    kind: str
    call: Call
    index: Optional[int]
    guarded: bool
    looped: bool
    sem: object = None            #: identity tuple, None when unknown
    sem_obj: object = None        #: live shared Semaphore, if any
    value: Optional[int] = None   #: sem threshold/amount or CB page count
    cb_key: object = None         #: (core_key, cb_id), None when unknown
    intervals: Tuple = ()         #: :func:`api.footprint`, or ()
    multicast: bool = False
    commit_eid: Optional[int] = None


def _sem_identity(call: Call, spec, core_key: int, disp: Dict):
    """Resolve a semaphore operand to a launch-wide identity."""
    from repro.sim.resources import Semaphore

    resolved = resolve(call.operand("sem"), spec.args or {})
    if isinstance(resolved, int) and not isinstance(resolved, bool):
        ident = ("local", core_key, resolved)
        disp[ident] = f"{resolved} on core {spec.core.coord}"
        return ident, None
    if isinstance(resolved, Semaphore):
        ident = ("shared", id(resolved))
        disp[ident] = (f"{resolved.name!r}" if resolved.name
                       else "a shared semaphore")
        return ident, resolved
    return None, None


# --------------------------------------------------------------------------
# the pass
# --------------------------------------------------------------------------

@dataclass
class _Launch:
    """Everything the rules need about one linearized launch."""

    events: List[_Event] = field(default_factory=list)
    kernels: List[tuple] = field(default_factory=list)  #: (label, evs, skel)
    disp: Dict = field(default_factory=dict)
    sem_ok: bool = True     #: every sem operand resolved to an identity
    cb_ok: bool = True      #: every CB operand resolved to a const id
    succ: Dict[int, List[int]] = field(default_factory=dict)


def _linearize(program) -> Optional[_Launch]:
    launch = _Launch()
    for kernel_idx, spec in enumerate(program.kernels):
        trace = extract_trace(spec.fn)
        skeleton = _skeleton(trace)
        if skeleton.opaque:
            return None         # an opaque kernel could order anything
        label = (f"{getattr(spec.fn, '__name__', 'kernel')}@"
                 f"{spec.core.coord}/{spec.slot}")
        core_key = id(spec.core)
        evs: List[_Event] = []
        args = spec.args or {}
        for skel in skeleton.events:
            call = skel.call
            kind = _kind(call.name)
            if kind == "other":
                continue
            ev = _Event(eid=len(launch.events), label=label,
                        core_key=core_key, kernel_idx=kernel_idx,
                        op=call.name, kind=kind, call=call,
                        index=skel.index, guarded=skel.guarded,
                        looped=skel.looped)
            if kind.startswith("sem_"):
                ev.sem, ev.sem_obj = _sem_identity(
                    call, spec, core_key, launch.disp)
                ev.value = const_int(call.operand(
                    "n" if kind == "sem_inc" else "value"))
                if ev.sem is None:
                    launch.sem_ok = False
            elif kind.startswith("cb_"):
                cb = const_int(call.operand("cb_id"))
                if cb is None:
                    launch.cb_ok = False
                else:
                    ev.cb_key = (core_key, cb)
                ev.value = const_int(call.operand("n"))
            elif kind in ("read", "write"):
                # objects resolve through runtime args; offsets and
                # sizes count only when they are constants
                ev.intervals = footprint(
                    call.name,
                    lambda param: resolve(call.operand(param), args),
                    lambda param: const_int(call.operand(param))) or ()
                ev.multicast = call.name == "noc_sram_write_multicast"
            evs.append(ev)
            launch.events.append(ev)
            if len(launch.events) > _MAX_EVENTS:
                return None     # scale cap: fail open
        # commit points: next same-direction barrier in program order
        next_wbar = next_rbar = None
        for ev in reversed(evs):
            if ev.kind == "wbar":
                next_wbar = ev.eid
                ev.commit_eid = ev.eid
            elif ev.kind == "rbar":
                next_rbar = ev.eid
                ev.commit_eid = ev.eid
            elif ev.kind == "write":
                ev.commit_eid = next_wbar
            elif ev.kind == "read":
                ev.commit_eid = next_rbar
            else:
                ev.commit_eid = ev.eid
        launch.kernels.append((label, evs, skeleton))
    return launch


def _build_edges(launch: _Launch) -> None:
    succ = {ev.eid: [] for ev in launch.events}
    for _label, evs, _skel in launch.kernels:
        for a, b in zip(evs, evs[1:]):
            succ[a.eid].append(b.eid)
    waits: Dict[object, List[int]] = {}
    cb_targets: Dict[tuple, List[int]] = {}
    for ev in launch.events:
        if ev.kind == "sem_wait" and ev.sem is not None:
            waits.setdefault(ev.sem, []).append(ev.eid)
        elif ev.kind in ("cb_wait", "cb_reserve") and ev.cb_key is not None:
            cb_targets.setdefault((ev.cb_key, ev.kind), []).append(ev.eid)
    for ev in launch.events:
        if ev.kind in ("sem_inc", "sem_set") and ev.sem is not None:
            succ[ev.eid].extend(waits.get(ev.sem, ()))
        elif ev.kind == "cb_push" and ev.cb_key is not None:
            succ[ev.eid].extend(cb_targets.get((ev.cb_key, "cb_wait"), ()))
        elif ev.kind == "cb_pop" and ev.cb_key is not None:
            succ[ev.eid].extend(cb_targets.get((ev.cb_key, "cb_reserve"),
                                               ()))
    launch.succ = succ


def _ordered(launch: _Launch, a: _Event, b: _Event) -> bool:
    """Is there a happens-before path from a's commit to b's issue?"""
    start = a.commit_eid
    if start is None:
        return False            # never committed: orders nothing
    target = b.eid
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: List[int] = []
        for eid in frontier:
            for succ in launch.succ[eid]:
                if succ == target:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return False


# --------------------------------------------------------------------------
# R301 / R302 / R303: races
# --------------------------------------------------------------------------

def _race_findings(launch: _Launch) -> List[Finding]:
    findings: List[Finding] = []
    by_space: Dict[tuple, Tuple[str, List[tuple]]] = {}
    for ev in launch.events:
        if ev.kind not in ("read", "write") or not ev.intervals \
                or ev.guarded or ev.looped or ev.index is None:
            continue
        for space, key, lo, hi, where in ev.intervals:
            by_space.setdefault((space, key), (where, []))[1].append(
                (ev, lo, hi))
    seen_pairs = set()
    for where, accesses in by_space.values():
        for i in range(len(accesses)):
            for j in range(i + 1, len(accesses)):
                a, lo_a, hi_a = accesses[i]
                b, lo_b, hi_b = accesses[j]
                if a.core_key == b.core_key:
                    continue    # cross-core rules only
                if a.kind == "read" and b.kind == "read":
                    continue
                if not (lo_a < hi_b and lo_b < hi_a):
                    continue
                pair = (min(a.eid, b.eid), max(a.eid, b.eid))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                if _ordered(launch, a, b) or _ordered(launch, b, a):
                    continue
                if a.multicast or b.multicast:
                    rule = "R303"
                elif a.kind == "write" and b.kind == "write":
                    rule = "R301"
                else:
                    rule = "R302"
                first, second = (a, b) if a.eid < b.eid else (b, a)
                witness = Witness(
                    rule_id=rule, kind="race",
                    steps=(WitnessStep(first.label, first.index, first.op,
                                       first.call.lineno),
                           WitnessStep(second.label, second.index,
                                       second.op, second.call.lineno)),
                    note=f"hold {first.label} after API call "
                         f"#{first.index}, run {second.label} through API "
                         f"call #{second.index}, then release")
                findings.append(make_finding(
                    rule,
                    f"{first.label} {first.op} and {second.label} "
                    f"{second.op} touch overlapping bytes "
                    f"[{max(lo_a, lo_b)}, {min(hi_a, hi_b)}) of {where} "
                    "with no happens-before ordering between them",
                    filename=first.call.filename,
                    lineno=first.call.lineno, kernel=first.label,
                    witness=witness))
    return findings


# --------------------------------------------------------------------------
# R304: lost / mismatched semaphore signals
# --------------------------------------------------------------------------

def _sem_initials(program, launch: _Launch) -> Dict[object, Optional[int]]:
    initials: Dict[object, Optional[int]] = {}
    for record in getattr(program, "semaphores", []):
        initials[("local", id(record.core), record.sem_id)] = record.initial
    cores = {id(spec.core): spec.core for spec in program.kernels}
    for ev in launch.events:
        if ev.sem is None or ev.sem in initials:
            continue
        if ev.sem[0] == "shared" and ev.sem_obj is not None:
            initials[ev.sem] = ev.sem_obj.value
        elif ev.sem[0] == "local":
            core = cores.get(ev.sem[1])
            sem = getattr(core, "semaphores", {}).get(ev.sem[2]) \
                if core is not None else None
            initials[ev.sem] = sem.value if sem is not None else None
    return initials


def _hang_witness(rule: str, ev: _Event, note: str) -> Witness:
    steps = ()
    if ev.index is not None:
        steps = (WitnessStep(ev.label, ev.index, ev.op, ev.call.lineno),)
    return Witness(rule_id=rule, kind="hang", steps=steps,
                   blocked=(ev.label,), note=note)


def _signal_findings(program, launch: _Launch) -> List[Finding]:
    findings: List[Finding] = []
    signals: Dict[object, List[_Event]] = {}
    waits: Dict[object, List[_Event]] = {}
    for ev in launch.events:
        if ev.sem is None:
            continue
        if ev.kind == "sem_wait":
            waits.setdefault(ev.sem, []).append(ev)
        elif ev.kind in ("sem_inc", "sem_set"):
            signals.setdefault(ev.sem, []).append(ev)
    initials = _sem_initials(program, launch)
    for ident, wait_evs in waits.items():
        sem_disp = launch.disp[ident]
        signal_evs = signals.get(ident, [])
        initial = initials.get(ident)
        if not signal_evs:
            for ev in wait_evs:
                if ev.value is None or initial is None \
                        or ev.value <= initial:
                    continue    # possibly already satisfied: fail open
                findings.append(make_finding(
                    "R304",
                    f"{ev.label} waits for semaphore {sem_disp} to reach "
                    f"{ev.value} (initial value {initial}) but no kernel "
                    "on this launch ever increments or sets it",
                    filename=ev.call.filename, lineno=ev.call.lineno,
                    kernel=ev.label,
                    witness=_hang_witness(
                        "R304", ev, "run the launch unmodified; the "
                        "waiter stalls until the watchdog fires")))
            continue
        # mismatched straight-line signal budget
        every = signal_evs + wait_evs
        if any(ev.looped or ev.guarded for ev in every):
            continue
        if any(ev.kind == "sem_set" for ev in signal_evs):
            continue
        if any(ev.value is None for ev in every) or initial is None:
            continue
        budget = initial + sum(ev.value for ev in signal_evs)
        worst = max(wait_evs, key=lambda ev: ev.value)
        if worst.value > budget:
            findings.append(make_finding(
                "R304",
                f"{worst.label} waits for semaphore {sem_disp} to reach "
                f"{worst.value}, but the launch-wide straight-line signal "
                f"budget is only {budget} (initial {initial} plus "
                f"{budget - initial} from semaphore_inc)",
                filename=worst.call.filename, lineno=worst.call.lineno,
                kernel=worst.label,
                witness=_hang_witness(
                    "R304", worst, "run the launch unmodified; the "
                    "under-signalled waiter stalls")))
    return findings


# --------------------------------------------------------------------------
# R305: global circular wait (abstract round-robin execution)
# --------------------------------------------------------------------------

def _configured_pages(program) -> Dict[tuple, int]:
    pages: Dict[tuple, int] = {}
    for record in getattr(program, "circular_buffers", []):
        pages[(id(record.core), record.cb_id)] = record.n_pages
    for core in program.cores:
        for cb_id, cb in getattr(core, "cbs", {}).items():
            pages.setdefault((id(core), cb_id), cb.n_pages)
    return pages


def _deadlock_findings(program, launch: _Launch) -> List[Finding]:
    if not all(skel.static for _label, _evs, skel in launch.kernels):
        return []
    pages = _configured_pages(program)
    initials = _sem_initials(program, launch)
    for ev in launch.events:
        if ev.kind.startswith("sem_") and (ev.value is None
                                           or initials.get(ev.sem) is None):
            return []
        if ev.kind.startswith("cb_") and (ev.cb_key not in pages
                                          or ev.value is None):
            return []

    free = {key: n for key, n in pages.items()}
    committed = {key: 0 for key in pages}
    sems = dict(initials)

    def enabled(ev: _Event) -> bool:
        if ev.kind == "sem_wait":
            return sems[ev.sem] >= ev.value
        if ev.kind == "cb_reserve":
            return free[ev.cb_key] >= ev.value
        if ev.kind == "cb_wait":
            return committed[ev.cb_key] >= ev.value
        return True

    def apply(ev: _Event) -> None:
        if ev.kind == "sem_inc":
            sems[ev.sem] += ev.value
        elif ev.kind == "sem_set":
            sems[ev.sem] = ev.value
        elif ev.kind == "cb_reserve":
            free[ev.cb_key] -= ev.value
        elif ev.kind == "cb_push":
            committed[ev.cb_key] += ev.value
        elif ev.kind == "cb_pop":
            committed[ev.cb_key] -= ev.value
            free[ev.cb_key] += ev.value

    kernels = [(label, evs) for label, evs, _skel in launch.kernels]
    pcs = [0] * len(kernels)
    schedule: List[_Event] = []
    steps = 0
    progress = True
    while progress:
        progress = False
        for ki, (_label, evs) in enumerate(kernels):
            while pcs[ki] < len(evs):
                ev = evs[pcs[ki]]
                if not enabled(ev):
                    break
                apply(ev)
                schedule.append(ev)
                pcs[ki] += 1
                steps += 1
                progress = True
                if steps >= _MAX_ABSTRACT_STEPS:
                    return []   # scale cap: fail open
    blocked = [(label, evs[pc]) for pc, (label, evs)
               in zip(pcs, kernels) if pc < len(evs)]
    if not blocked:
        return []

    parts = []
    for label, ev in blocked:
        if ev.kind == "sem_wait":
            parts.append(f"{label} waits for semaphore "
                         f"{launch.disp[ev.sem]} >= {ev.value}")
        elif ev.kind == "cb_reserve":
            parts.append(f"{label} waits for {ev.value} free page(s) on "
                         f"CB {ev.cb_key[1]}")
        else:
            parts.append(f"{label} waits for {ev.value} committed "
                         f"page(s) on CB {ev.cb_key[1]}")
    truncated = len(schedule) > _MAX_WITNESS_STEPS
    witness_steps = tuple(
        WitnessStep(ev.label, ev.index if ev.index is not None else -1,
                    ev.op, ev.call.lineno)
        for ev in schedule[:_MAX_WITNESS_STEPS])
    note = "abstract round-robin schedule reaching the circular wait"
    if truncated:
        note += f" (first {_MAX_WITNESS_STEPS} of {len(schedule)} steps)"
    first_label, first_ev = blocked[0]
    witness = Witness(rule_id="R305", kind="hang", steps=witness_steps,
                      blocked=tuple(label for label, _ev in blocked),
                      note=note)
    return [make_finding(
        "R305",
        "global circular wait: " + "; ".join(parts) + " — no kernel with "
        "work remaining can make progress",
        filename=first_ev.call.filename, lineno=first_ev.call.lineno,
        kernel=first_label, witness=witness)]


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def concurrency_findings(program) -> List[Finding]:
    """Run the R3xx launch rules over an assembled Program."""
    specs = list(getattr(program, "kernels", []))
    core_keys = {id(spec.core) for spec in specs}
    if len(core_keys) < 2:
        return []               # every R3xx hazard needs two cores
    launch = _linearize(program)
    if launch is None:
        return []               # opaque kernel or scale cap: fail open
    _build_edges(launch)

    findings: List[Finding] = []
    # Unknown semaphores or CB ids could carry the missing ordering edge,
    # so races are only claimed when the sync vocabulary fully resolved.
    if launch.sem_ok and launch.cb_ok:
        findings.extend(_race_findings(launch))
    if launch.sem_ok:
        signal = _signal_findings(program, launch)
        findings.extend(signal)
        # R305 runs only when R304 stayed silent: a lost signal already
        # explains the hang, and the abstract executor would re-report it.
        if not signal and launch.cb_ok:
            findings.extend(_deadlock_findings(program, launch))
    findings.sort(key=lambda f: (f.rule_id, f.kernel, f.lineno))
    return findings

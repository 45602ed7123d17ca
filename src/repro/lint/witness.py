"""Counterexample schedules for the R3xx concurrency findings.

Every race/deadlock finding from :mod:`repro.lint.concurrency` carries a
:class:`Witness`: a minimal concrete interleaving that exhibits the
hazard.  The witness is serializable (``to_json``/``from_json``, with a
stable sha256 :meth:`Witness.digest`) so exports can reference it, and —
the important part — *replayable*: :func:`replay_witness` rebuilds the
program from its corpus builder, steers the DES to the witness
interleaving and reports whether the hazard actually manifests
dynamically.  Static findings become checkable claims.

Two witness kinds exist:

``race``
    ``steps`` holds exactly two endpoints, one per racing kernel.  The
    replay governor runs kernel A until it has *issued* its endpoint API
    call, holds it there on a simulator event, lets kernel B issue its
    endpoint, then releases A.  Both endpoints' runtime operands are
    recorded; the race is *confirmed* when both endpoints executed and
    their concrete byte intervals (:func:`repro.lint.api.footprint`,
    the map the static pass uses) overlap.

``hang``
    ``steps`` holds the executed schedule prefix from the abstract
    executor (possibly empty) and ``blocked`` the kernel labels expected
    to stall.  The replay simply runs the program under the
    :func:`repro.ttmetal.Finish` watchdog; the finding is *confirmed*
    when :class:`DeviceHangError` fires with every expected kernel in
    the stall report.

Kernel labels use the host process-naming convention
``{fn.__name__}@{core.coord}/{slot}``, so stall reports and witness
steps speak the same vocabulary.  Step indices count the kernel's
*yielded ctx API calls* from zero — the same count the symbolic
linearizer maintains, which is why witnesses are only emitted for
prefix-exact trace positions.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .api import footprint

__all__ = ["Witness", "WitnessStep", "ReplayResult", "replay_witness"]


@dataclass(frozen=True)
class WitnessStep:
    """One scheduled point: kernel ``label`` issues API call ``index``."""

    kernel: str           #: process label "fn@(x, y)/slot"
    index: int            #: 0-based count of yielded ctx API calls
    op: str               #: API name, e.g. "noc_write_buffer"
    lineno: int           #: source line of the call


@dataclass(frozen=True)
class Witness:
    """A minimal interleaving exhibiting one R3xx hazard."""

    rule_id: str
    kind: str                              #: "race" or "hang"
    steps: Tuple[WitnessStep, ...]
    blocked: Tuple[str, ...] = ()          #: stalled kernels (hang kind)
    note: str = ""

    def to_json(self) -> Dict:
        return {
            "rule_id": self.rule_id,
            "kind": self.kind,
            "steps": [{"kernel": s.kernel, "index": s.index,
                       "op": s.op, "lineno": s.lineno}
                      for s in self.steps],
            "blocked": list(self.blocked),
            "note": self.note,
        }

    @staticmethod
    def from_json(doc: Dict) -> "Witness":
        return Witness(
            rule_id=doc["rule_id"],
            kind=doc["kind"],
            steps=tuple(WitnessStep(kernel=s["kernel"], index=s["index"],
                                    op=s["op"], lineno=s["lineno"])
                        for s in doc["steps"]),
            blocked=tuple(doc.get("blocked", ())),
            note=doc.get("note", ""),
        )

    def digest(self) -> str:
        """Stable 16-hex-digit content digest of the canonical JSON."""
        text = json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one witness replay through the DES."""

    confirmed: bool
    detail: str


# --------------------------------------------------------------------------
# runtime footprints
# --------------------------------------------------------------------------

def _intervals_overlap(one: Tuple[tuple, ...],
                       other: Tuple[tuple, ...]) -> bool:
    for space_a, key_a, lo_a, hi_a, _where in one:
        for space_b, key_b, lo_b, hi_b, _where in other:
            if (space_a, key_a) == (space_b, key_b) \
                    and lo_a < hi_b and lo_b < hi_a:
                return True
    return False


# --------------------------------------------------------------------------
# the race governor
# --------------------------------------------------------------------------

class _ReplayState:
    """Shared hold/release bookkeeping between the two governed kernels."""

    def __init__(self):
        self.release = None             #: simulator Event, armed lazily
        self.recorded: Dict[str, tuple] = {}   #: label -> (op, intervals)

    def record(self, label: str, op: str, operands: Dict) -> None:
        """Record the footprint of the concrete ``operands`` (parameter
        name -> value) a kernel passed to ``op``."""
        self.recorded[label] = (
            op, footprint(op, operands.get, operands.get) or ())


class _CtxProxy:
    """Wraps a kernel ctx, counting yielded API calls like the linearizer.

    Only generator-function attributes (the yielded kernel API) are
    counted; plain attributes and value-position helpers pass through
    untouched, matching the symbolic trace's Call-node count.
    """

    def __init__(self, real, label: str, index: int, role: str,
                 state: _ReplayState):
        self._real = real
        self._label = label
        self._index = index
        self._role = role           #: "hold" or "watch"
        self._state = state
        self._count = 0

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if callable(attr) and inspect.isgeneratorfunction(attr):
            def call(*args, **kwargs):
                return self._governed(name, attr, args, kwargs)
            return call
        return attr

    def _governed(self, name, attr, args, kwargs):
        idx = self._count
        self._count += 1
        result = yield from attr(*args, **kwargs)
        if idx == self._index:
            self._state.record(
                self._label, name,
                inspect.signature(attr).bind(*args, **kwargs).arguments)
            release = self._state.release
            if self._role == "hold":
                if release is not None and not release.triggered:
                    yield release
            elif release is not None and not release.triggered:
                release.succeed()
        return result


def _govern(fn, label: str, index: int, role: str, state: _ReplayState):
    @functools.wraps(fn)
    def governed(ctx):
        yield from fn(_CtxProxy(ctx, label, index, role, state))
    return governed


def _spec_label(spec) -> str:
    return (f"{getattr(spec.fn, '__name__', 'kernel')}@"
            f"{spec.core.coord}/{spec.slot}")


# --------------------------------------------------------------------------
# replay entry point
# --------------------------------------------------------------------------

def replay_witness(builder: Callable[[], tuple], witness: Witness,
                   timeout_s: float = 0.005) -> ReplayResult:
    """Rebuild the program via ``builder`` and replay ``witness``.

    ``builder`` must return a fresh, un-enqueued ``(device, program)``
    pair.  Race witnesses are steered by a ctx governor; hang witnesses
    run free under the Finish watchdog.  ``timeout_s`` is *simulated*
    time, so small values are safe for tiny corpus programs.
    """
    from repro.ttmetal.host import DeviceHangError, EnqueueProgram, Finish

    device, program = builder()
    if witness.kind == "hang":
        EnqueueProgram(device, program, lint="off")
        try:
            Finish(device, timeout_s=timeout_s)
        except DeviceHangError as err:
            stalled = {stall.kernel for stall in err.stalls}
            missing = sorted(set(witness.blocked) - stalled)
            if not missing:
                return ReplayResult(True, "hang reproduced; stalled: "
                                    + ", ".join(sorted(stalled)))
            return ReplayResult(False, "hang reproduced but expected "
                                f"kernels not stalled: {', '.join(missing)}")
        return ReplayResult(False, "program completed; no hang observed")

    if witness.kind != "race" or len(witness.steps) != 2:
        return ReplayResult(False,
                            f"unreplayable witness kind {witness.kind!r}")

    hold, watch = witness.steps
    state = _ReplayState()
    state.release = device.sim.event(name="lint.witness.release")
    governed = 0
    for spec in program.kernels:
        label = _spec_label(spec)
        if label == hold.kernel:
            spec.fn = _govern(spec.fn, label, hold.index, "hold", state)
            spec.launch_cache = None
            governed += 1
        elif label == watch.kernel:
            spec.fn = _govern(spec.fn, label, watch.index, "watch", state)
            spec.launch_cache = None
            governed += 1
    if governed != 2:
        return ReplayResult(False, "witness kernels not found in program")

    EnqueueProgram(device, program, lint="off")
    hung = False
    try:
        Finish(device, timeout_s=timeout_s)
    except DeviceHangError:
        hung = True

    missing = [s.kernel for s in witness.steps if s.kernel not in
               state.recorded]
    if missing:
        why = "program hung" if hung else "program completed"
        return ReplayResult(False, f"{why} before endpoints executed: "
                            + ", ".join(missing) + " never reached its "
                            "witness index")
    op_a, ivs_a = state.recorded[hold.kernel]
    op_b, ivs_b = state.recorded[watch.kernel]
    if _intervals_overlap(ivs_a, ivs_b):
        return ReplayResult(True, f"both endpoints executed in the witness "
                            f"window ({op_a} vs {op_b}) on overlapping "
                            "concrete byte intervals")
    return ReplayResult(False, f"endpoints executed ({op_a} vs {op_b}) but "
                        "runtime intervals do not overlap")

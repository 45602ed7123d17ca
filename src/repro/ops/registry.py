"""The op registry: one :class:`OpSpec` per device workload.

``repro.ops`` generalises the repository beyond the paper's single
Jacobi workload into a small TT-NN-style op library.  Every op is
described by an :class:`OpSpec` bundling

* a problem constructor (``make_problem``) with a uniform
  ``(size, seed, **kw)`` surface for the CLI and the benchmarks,
* single-core **and** multi-core launch builders behind one ``run``
  entry point (``cores=(cores_y, cores_x)``; multi-core shares are
  carved with :func:`repro.core.decomposition.split_domain`),
* a host-side NumPy ``reference`` that is differentially checked at
  readback (bit-exact for matmul and the 9-point stencil, within a
  documented ULP bound for the FFT — see each op module),
* its calibrated roofline/energy ``estimate`` from
  :mod:`repro.perfmodel.ops`,
* the serve facts: how a request's ``(nx, ny, iterations)`` maps to a
  problem (``serve_problem``), the PCIe bytes it moves (``pcie_bytes``)
  and how a drawn width snaps to a valid one (``snap_nx``).

:mod:`repro.serve` and :mod:`repro.perfmodel` ask this table about an
op kind; neither keeps a per-kind copy.

Ops register themselves at import time; ``repro.ops`` imports all three
concrete modules, so ``from repro import ops; ops.get_op("matmul")``
always works.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "OpSpec",
    "OpRunResult",
    "OpCheckError",
    "OPS",
    "register",
    "get_op",
    "list_ops",
    "sha16",
]


class OpCheckError(AssertionError):
    """A device op's readback disagreed with its host reference."""


def sha16(arr: np.ndarray) -> str:
    """First 16 hex chars of the SHA-256 of an array's bytes."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


@dataclass
class OpRunResult:
    """One differential-checked device execution of an op."""

    op: str                          #: registry name
    cores: Tuple[int, int]           #: (cores_y, cores_x) of the launch
    params: Dict                     #: problem parameters (for reports)
    kernel_time_s: float             #: simulated on-device time
    transfer_time_s: float           #: host<->DRAM PCIe time
    energy_j: float                  #: device energy meter reading
    checked: bool                    #: reference comparison ran and passed
    check_detail: str                #: "bit-exact" / "max 1.3 ulp (bound 24)"
    output_sha: str                  #: sha16 of the readback bytes
    fpu_ops: int                     #: tile operations executed
    output: Optional[np.ndarray] = field(default=None, repr=False)

    def to_row(self) -> Dict:
        """JSON-friendly summary (no payload)."""
        return {
            "op": self.op,
            "cores": list(self.cores),
            "params": dict(self.params),
            "kernel_time_s": self.kernel_time_s,
            "transfer_time_s": self.transfer_time_s,
            "energy_j": self.energy_j,
            "checked": self.checked,
            "check_detail": self.check_detail,
            "output_sha": self.output_sha,
            "fpu_ops": self.fpu_ops,
        }


def _same_nx(nx: int) -> int:
    return nx


@dataclass(frozen=True)
class OpSpec:
    """Everything the CLI/bench/serve layers need to know about an op."""

    name: str
    summary: str
    #: (size, seed, **kw) -> problem object (op-specific dataclass)
    make_problem: Callable
    #: (problem, cores=(1,1), device=None, check=True) -> OpRunResult
    run: Callable
    #: problem -> the host-reference array ``run`` checks its readback
    #: against (dtype documented per op)
    reference: Callable
    #: (problem, cores, costs) -> repro.perfmodel.ops.OpEstimate
    estimate: Callable
    #: serve request (nx, ny, iterations) -> (problem, repeats): the op
    #: problem one request runs, executed ``repeats`` times
    serve_problem: Callable
    #: problem -> host<->device bytes one execution moves, both ways
    pcie_bytes: Callable
    #: drawn grid width -> the nearest width ``serve_problem`` accepts
    snap_nx: Callable = _same_nx


OPS: Dict[str, OpSpec] = {}


def register(spec: OpSpec) -> OpSpec:
    """Add an op to the registry (idempotent per name)."""
    OPS[spec.name] = spec
    return spec


def get_op(name: str) -> OpSpec:
    try:
        return OPS[name]
    except KeyError:
        raise KeyError(
            f"unknown op {name!r} (registered: {sorted(OPS)})") from None


def list_ops() -> List[OpSpec]:
    return [OPS[k] for k in sorted(OPS)]

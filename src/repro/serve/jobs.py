"""The ``serve_solve`` job kind: functional answers for served requests.

The event-driven service decides *when* and *where* a request runs; the
answer itself never depends on that placement — the decomposed device
sweep is bit-identical to the global BF16 sweep
(:func:`repro.cpu.jacobi.jacobi_solve_bf16`) for any core allocation.
So functional results are computed in a post-pass, one
:class:`~repro.parallel.jobs.JobSpec` per *unique* problem/backend
configuration, through :func:`repro.parallel.run_jobs`: the pool's
``-j`` fan-out and the content-addressed sweep cache both apply, and
submission-order reassembly keeps the report byte-identical at any
worker count.

The payload per solve is the determinism fingerprint the report embeds:
a SHA-256 of the final grid bits, the FP32 residual, and the interior
extrema (which the discrete maximum principle bounds by the boundary
data — a cheap correctness invariant).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.jobs import JobKind, JobSpec, register_kind
from repro.serve.request import RequestOutcome

__all__ = [
    "ServeSolveConfig",
    "run_solve_postpass",
    "solve_key",
]


@dataclass(frozen=True)
class ServeSolveConfig:
    """One unique solve: workload kind, backend class, shape, budget."""

    backend: str                 #: "device" (BF16 sweep) or "cpu" (FP32)
    nx: int
    ny: int
    iterations: int
    workload: str = "jacobi"


def solve_key(backend: str, nx: int, ny: int, iterations: int,
              workload: str = "jacobi") -> str:
    """Stable key of a unique solve config (the report's ``solves`` map).

    Jacobi keys keep their historical ``backend:HxW:iN`` shape so old
    reports and tests still match; op workloads prefix their kind.
    """
    base = f"{backend}:{ny}x{nx}:i{iterations}"
    return base if workload == "jacobi" else f"{workload}:{base}"


def _run_serve_op(config: ServeSolveConfig) -> Tuple[dict, dict]:
    """Functional fingerprint of one op-workload config.

    The answer is the op's ``OpSpec.reference`` — the host mirror its
    device readback is checked against — which is placement- and
    backend-independent, exactly like the Jacobi post-pass.  Repeats do
    not change the answer, so one execution fingerprints them all.
    """
    import numpy as np

    from repro.ops import get_op

    spec = get_op(config.workload)
    problem, _repeats = spec.serve_problem(config.nx, config.ny,
                                           config.iterations)
    out = spec.reference(problem)
    sha = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
    payload = {"grid_sha": sha, "workload": config.workload}
    obs = {"points": config.nx * config.ny}
    return payload, obs


def _run_serve_solve(config: ServeSolveConfig, seed: int
                     ) -> Tuple[dict, dict]:
    import numpy as np

    from repro.core.grid import LaplaceProblem
    from repro.cpu.jacobi import (jacobi_solve_bf16, jacobi_solve_f32,
                                  residual_f32)
    from repro.dtypes.bf16 import bits_to_f32

    if getattr(config, "workload", "jacobi") != "jacobi":
        return _run_serve_op(config)
    problem = LaplaceProblem(nx=config.nx, ny=config.ny)
    if config.backend == "device":
        bits = jacobi_solve_bf16(problem.initial_grid_bf16(),
                                 config.iterations)
        sha = hashlib.sha256(
            np.ascontiguousarray(bits).tobytes()).hexdigest()
        u = bits_to_f32(bits)
    else:
        u = jacobi_solve_f32(problem.initial_grid_f32(), config.iterations)
        sha = hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest()
    interior = np.asarray(u, dtype=np.float32)[1:-1, 1:-1]
    payload = {
        "grid_sha": sha,
        "residual": float(residual_f32(u)),
        "interior_min": float(interior.min()),
        "interior_max": float(interior.max()),
    }
    obs = {"points": config.nx * config.ny}
    return payload, obs


def _serve_solve_from_payload(config, seed, payload):
    return payload


register_kind(JobKind("serve_solve", _run_serve_solve,
                      _serve_solve_from_payload))


def run_solve_postpass(outcomes: Sequence[RequestOutcome],
                       jobs: Optional[int] = None,
                       cache=None, progress=None
                       ) -> Tuple[Dict[str, dict], List[RequestOutcome]]:
    """Compute functional answers for every completed outcome.

    Returns ``(solves, annotated)``: the key → payload map for the
    report, and the outcomes with ``solve_key`` filled in.  Unique
    configurations are solved once (specs in sorted-key order, so the
    spec list — and any cache traffic — is independent of completion
    order).
    """
    from repro.parallel.engine import sweep_results

    wanted: Dict[str, ServeSolveConfig] = {}
    for o in outcomes:
        if o.status == "shed":
            continue
        req = o.request
        key = solve_key(o.backend_used, req.nx, req.ny,
                        req.effective_iterations, req.workload)
        wanted.setdefault(key, ServeSolveConfig(
            backend=o.backend_used, nx=req.nx, ny=req.ny,
            iterations=req.effective_iterations, workload=req.workload))
    keys = sorted(wanted)
    specs = [JobSpec(kind="serve_solve", config=wanted[k]) for k in keys]
    results = sweep_results(specs, jobs=jobs, cache=cache,
                            progress=progress)
    solves = dict(zip(keys, results))
    annotated: List[RequestOutcome] = []
    for o in outcomes:
        if o.status == "shed":
            annotated.append(o)
            continue
        req = o.request
        annotated.append(replace(o, solve_key=solve_key(
            o.backend_used, req.nx, req.ny, req.effective_iterations,
            req.workload)))
    return solves, annotated

"""Max-min fair bandwidth allocation over shared resources.

Used by the Tier-2 scaling model: each core's DRAM traffic is a *flow*
crossing a set of capacitated resources (its own NoC link, the target DRAM
bank(s), the NoC-to-DRAM bisection).  Steady-state per-flow rates follow
the classic water-filling algorithm: repeatedly saturate the most
constrained resource, freeze its flows at the fair share, and continue
with the residual network.

Demands are optional: a flow with a finite demand never receives more than
it asks for, and the surplus is redistributed (demand-bounded max-min
fairness).
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence

__all__ = ["max_min_fair_rates"]


def max_min_fair_rates(
    capacities: Mapping[str, float],
    flows: Mapping[str, Sequence[str]],
    demands: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Water-filling max-min fair rates for ``flows`` over ``capacities``.

    Returns the allocated rate for every flow.  Demand-bounded: a flow with
    ``demands[f]`` set is frozen at its demand if the fair share exceeds it.
    """
    demands = dict(demands or {})
    residual = {r: float(c) for r, c in capacities.items()}
    active = {f: list(rs) for f, rs in flows.items()}
    rates: Dict[str, float] = {f: 0.0 for f in flows}

    # Freeze any demand-limited flows eagerly whenever their demand is the
    # binding constraint; otherwise freeze the bottleneck resource's flows.
    for _ in range(len(flows) + len(capacities) + 1):
        if not active:
            break
        # Count active flows per resource.
        users: Dict[str, int] = {}
        for f, rs in active.items():
            for r in rs:
                users[r] = users.get(r, 0) + 1
        # Fair share increment offered by each resource.
        share = {r: residual[r] / n for r, n in users.items() if n > 0}
        if not share:
            break
        bottleneck = min(share, key=lambda r: (share[r], r))
        inc = share[bottleneck]

        # Does any demand bind before the bottleneck share?
        demand_limited = [
            f for f in active
            if f in demands and demands[f] - rates[f] <= inc + 1e-18
        ]
        if demand_limited:
            # Freeze the smallest remaining demand first.
            f = min(demand_limited, key=lambda f: (demands[f] - rates[f], f))
            inc_f = max(demands[f] - rates[f], 0.0)
            rates[f] += inc_f
            for r in active[f]:
                residual[r] -= inc_f
            del active[f]
            continue

        # Give every active flow `inc`, saturating the bottleneck.
        for f, rs in list(active.items()):
            rates[f] += inc
            for r in rs:
                residual[r] -= inc
        for f in [f for f, rs in active.items() if bottleneck in rs]:
            del active[f]
        residual[bottleneck] = 0.0

    # Numerical guard: no resource may end over-committed.
    for r, c in capacities.items():
        used = sum(rates[f] for f, rs in flows.items() if r in rs)
        if used > c * (1 + 1e-9):
            raise AssertionError(
                f"resource {r!r} over-committed: {used:g} > {c:g}")
    return rates

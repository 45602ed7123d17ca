"""Multi-card machines: several e150s on one PCIe host.

Grayskull cards cannot reach each other's memory (the paper: halo routing
through the host "is not supported currently by tt-metal"), so a cluster
is simply N independent devices whose programs run concurrently.  Wall
time is the slowest card's time; power and energy sum across cards — the
model behind the ×2 / ×4 card rows of Table VIII.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.arch.device import GrayskullDevice
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel

__all__ = ["Cluster"]


class Cluster:
    """N independent e150 cards (each with its own simulated clock)."""

    def __init__(self, n_cards: int, costs: CostModel = DEFAULT_COSTS,
                 dram_bank_capacity: Optional[int] = None):
        if n_cards <= 0:
            raise ValueError("a cluster needs at least one card")
        self.costs = costs
        self.cards: List[GrayskullDevice] = [
            GrayskullDevice(costs, dram_bank_capacity=dram_bank_capacity,
                            device_id=i)
            for i in range(n_cards)
        ]

    @property
    def n_cards(self) -> int:
        return len(self.cards)

    def __iter__(self):
        return iter(self.cards)

    def __getitem__(self, i: int) -> GrayskullDevice:
        return self.cards[i]

    @property
    def wall_time_s(self) -> float:
        """Cluster wall time: the slowest card's clock."""
        return max(card.sim.now for card in self.cards)

    @property
    def energy_j(self) -> float:
        """Total energy: each card integrates its own power, and a card
        that finishes before the slowest one idles until the cluster wall
        time, so

            ``energy_j == Σ card.energy_j + Σ (wall − card.sim.now) · idle_w``

        Solves with halo exchange keep their barrier stalls and host
        staging in :class:`repro.cluster.ClusterResult` instead."""
        wall = self.wall_time_s
        total = 0.0
        for card in self.cards:
            total += card.energy.energy_j
            idle = wall - card.sim.now
            if idle > 0:
                total += idle * self.costs.card_power_idle_w
        return total

    def map(self, fn: Callable[[GrayskullDevice], object]) -> list:
        """Apply ``fn`` to every card (e.g. to build per-card programs)."""
        return [fn(card) for card in self.cards]

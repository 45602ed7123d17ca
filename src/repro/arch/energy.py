"""Energy accounting: TT-SMI-style card power integration.

The paper's central energy observation (Section VII) is that the e150
draws a roughly constant 50–55 W regardless of how many Tensix cores are
busy, so card energy is essentially ``power × wall time`` — which is why
using all 108 workers is ~19× more energy-efficient than using one.

:class:`EnergyMeter` integrates card power over simulated time with
step-wise changes in the active-core count, mirroring how TT-SMI samples
the card.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.sim import Simulator

__all__ = ["EnergyMeter"]


@dataclass
class _Interval:
    t_start: float
    active_cores: int


class EnergyMeter:
    """Integrates a card's power draw over simulated time."""

    def __init__(self, sim: Simulator, costs: CostModel = DEFAULT_COSTS):
        self.sim = sim
        self.costs = costs
        self._energy_j = 0.0
        self._current = _Interval(t_start=sim.now, active_cores=0)

    def _flush(self) -> None:
        dt = self.sim.now - self._current.t_start
        if dt > 0:
            watts = self.costs.card_power_w(self._current.active_cores)
            self._energy_j += watts * dt
        self._current.t_start = self.sim.now

    def set_active_cores(self, n: int) -> None:
        """Record a change in how many Tensix cores are executing kernels."""
        if n < 0:
            raise ValueError("active core count cannot be negative")
        self._flush()
        self._current.active_cores = n

    @property
    def active_cores(self) -> int:
        return self._current.active_cores

    @property
    def energy_j(self) -> float:
        """Energy consumed up to the current simulated time."""
        self._flush()
        return self._energy_j

    @property
    def power_w(self) -> float:
        """Instantaneous modelled power draw."""
        return self.costs.card_power_w(self._current.active_cores)

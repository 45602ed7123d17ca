"""Performance model: calibration constants and many-core scaling.

* :mod:`repro.perfmodel.calibration` — every timing constant used by the
  simulator, each derived from a specific measurement in the paper.
* :mod:`repro.perfmodel.flows` — max-min fair bandwidth allocation over
  shared NoC/DRAM resources (Tier-2 contention model).
* :mod:`repro.perfmodel.scaling` — analytic multi-core / multi-card
  steady-state model used for Tables VII and VIII.
* :mod:`repro.perfmodel.cpumodel` — Xeon 8260M performance/energy model.
* :mod:`repro.perfmodel.ops` — roofline/energy estimates for the
  :mod:`repro.ops` workload library.
"""

from repro.perfmodel.calibration import CostModel, DEFAULT_COSTS
from repro.perfmodel.cpumodel import XeonModel
from repro.perfmodel.flows import max_min_fair_rates
from repro.perfmodel.ops import OpEstimate
from repro.perfmodel.scaling import JacobiScalingModel, MulticoreResult

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "JacobiScalingModel",
    "MulticoreResult",
    "OpEstimate",
    "XeonModel",
    "max_min_fair_rates",
]

"""Performance model: calibration constants and many-core scaling.

* :mod:`repro.perfmodel.calibration` — every timing constant used by the
  simulator, each derived from a specific measurement in the paper.
* :mod:`repro.perfmodel.scaling` — the one closed form of the stencil
  family: analytic multi-core / multi-card steady state, with closed-form
  column contention, for any ``StencilSpec`` (Tables VII and VIII, and
  the ``stencil9`` op).
* :mod:`repro.perfmodel.cpumodel` — Xeon 8260M performance/energy model.
* :mod:`repro.perfmodel.ops` — roofline/energy estimates for the
  :mod:`repro.ops` workload library.
"""

from repro.perfmodel.calibration import CostModel, DEFAULT_COSTS
from repro.perfmodel.cpumodel import XeonModel
from repro.perfmodel.ops import OpEstimate
from repro.perfmodel.scaling import JacobiScalingModel, MulticoreResult

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "JacobiScalingModel",
    "MulticoreResult",
    "OpEstimate",
    "XeonModel",
]

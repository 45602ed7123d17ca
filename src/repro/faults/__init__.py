"""Deterministic fault injection for the simulated Grayskull.

The fault plane has three layers:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: a frozen, seeded
  description of every fault a campaign will inject (DRAM bit-flips, NoC
  delay/drop, kernel hangs, PCIe transfer corruption, solver-state flips,
  core failures).  Fault times are *simulated* seconds and iteration
  indices — never wall-clock — so a plan replays bit-identically.
* :mod:`repro.faults.injector` — :class:`FaultInjector`: arms a plan on a
  device (``device.fault_injector``) and logs every injection to a
  :class:`~repro.analysis.resilience.FaultTrace`.
* :mod:`repro.faults.campaign` — end-to-end campaigns combining the
  device-level faults with the resilient solver
  (:func:`repro.core.solver.solve_resilient`) and the ``Finish`` watchdog
  (:func:`run_hang_demo`).
"""

from repro.faults.campaign import (
    CampaignConfig,
    render_campaign_sweep,
    run_campaign,
    run_hang_demo,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CardFailure,
    CoreFailure,
    DramBitFlip,
    FaultPlan,
    KernelHang,
    NocFault,
    PcieCorruption,
    SolverBitFlip,
)

__all__ = [
    "CampaignConfig",
    "CardFailure",
    "CoreFailure",
    "DramBitFlip",
    "FaultInjector",
    "FaultPlan",
    "KernelHang",
    "NocFault",
    "PcieCorruption",
    "SolverBitFlip",
    "render_campaign_sweep",
    "run_campaign",
    "run_hang_demo",
]

"""Seeded fault-injection campaigns: device phase + solver phase.

:func:`run_campaign` drives the whole resilience story from one seed:

1. **Device phase** — a small simulated e150 with an installed
   :class:`~repro.faults.injector.FaultInjector`: DRAM bit-flips land and
   are ECC-scrubbed on read, NoC disturbances stretch transfer latencies,
   and PCIe corruption forces the host enqueue operations through their
   retry-with-backoff path.
2. **Solver phase** — :func:`repro.core.solver.solve_resilient` converges
   under injected state corruption and core failures via checkpoint/
   restart and degraded-mode remapping.

Everything is keyed off the :class:`~repro.faults.plan.FaultPlan`'s seed
and simulated time, so running the same config twice yields byte-identical
fault traces (:meth:`FaultTrace.to_text`) — the CI replay check depends on
this.

:func:`run_hang_demo` is the watchdog showcase: a kernel wedges mid-run
and ``Finish(device, timeout_s=...)`` raises
:class:`~repro.ttmetal.host.DeviceHangError` naming the stalled core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.analysis.resilience import FaultTrace, ResilienceReport
from repro.arch.device import GrayskullDevice
from repro.arch.noc import ReadJob
from repro.core.grid import LaplaceProblem
from repro.core.solver import ResilienceConfig, solve_resilient
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, KernelHang
from repro.ttmetal.host import (CreateKernel, DeviceHangError, EnqueueProgram,
                                EnqueueReadBuffer, EnqueueWriteBuffer, Finish,
                                Program)
from repro.ttmetal.buffers import create_buffer

__all__ = ["CampaignConfig", "run_campaign", "render_campaign_sweep",
           "run_hang_demo"]

#: device-phase DRAM bank size: small, so random flip addresses often land
#: inside the exercised buffer.
_BANK_BYTES = 1 << 20
#: simulated horizon for device-level fault times.
_HORIZON_S = 1e-4


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: problem size, decomposition and fault counts."""

    seed: int = 0
    nx: int = 64
    ny: int = 64
    iterations: int = 64
    cores: Tuple[int, int] = (2, 2)
    dram_flips: int = 3        #: device-phase soft errors (ECC-scrubbed)
    noc_faults: int = 2
    pcie_corruptions: int = 1
    solver_flips: int = 2      #: uncorrectable strikes on solver state
    core_failures: int = 1
    checkpoint_every: int = 8
    ecc: bool = True

    def plan(self) -> FaultPlan:
        return FaultPlan.generate(
            self.seed,
            n_dram_flips=self.dram_flips,
            n_noc_faults=self.noc_faults,
            n_pcie=self.pcie_corruptions,
            n_solver_flips=self.solver_flips,
            n_core_failures=self.core_failures,
            horizon_s=_HORIZON_S,
            bank_bytes=_BANK_BYTES,
            iterations=self.iterations,
            interior=(self.ny, self.nx),
            cores=self.cores)


def _device_phase(cfg: CampaignConfig, plan: FaultPlan,
                  trace: FaultTrace, report: ResilienceReport) -> None:
    """Exercise DRAM ECC, NoC disturbances and the PCIe retry path."""
    device = GrayskullDevice(dram_bank_capacity=_BANK_BYTES)
    injector = FaultInjector(device, plan, trace=trace, ecc=cfg.ecc)
    injector.install()

    # Let every timed fault land before traffic starts.
    device.sim.run(until=_HORIZON_S)

    # Host -> DRAM -> host round trip; injected PCIe corruption forces the
    # enqueue operations through detection + exponential-backoff retry.
    payload = (np.arange(4096, dtype=np.uint16) & 0xFF).astype(np.uint8)
    buf = create_buffer(device, payload.nbytes)
    EnqueueWriteBuffer(device, buf, payload)
    out = EnqueueReadBuffer(device, buf)
    report.note("pcie round-trip intact", bool(np.array_equal(out, payload)))

    # Consume armed NoC faults with plain reads (one per armed fault).
    link0 = device.noc0.new_link("campaign0")
    link1 = device.noc1.new_link("campaign1")
    for fault in plan.noc:
        noc = device.noc0 if fault.noc_id == 0 else device.noc1
        link = link0 if fault.noc_id == 0 else link1
        ev = noc.read_burst(link, [ReadJob(bank_id=0, addr=0, size=256)])
        device.sim.run(until=ev)

    # A full-bank read sweeps the ECC scrubber over every injected flip.
    corrected, _uncorrectable = injector.scrub_banks()
    report.note("dram flips corrected by ECC",
                f"{corrected}/{len(plan.dram)}")
    report.note("noc faults consumed",
                device.noc0.injected_delays + device.noc0.injected_drops
                + device.noc1.injected_delays + device.noc1.injected_drops)
    injector.uninstall()


def run_campaign(cfg: CampaignConfig,
                 resilience: Optional[ResilienceConfig] = None
                 ) -> ResilienceReport:
    """Run the full campaign; returns the report (trace included)."""
    plan = cfg.plan()
    report = ResilienceReport(
        title=f"Fault-injection campaign (seed={cfg.seed})")
    trace = report.trace
    report.note("plan", plan.describe())

    _device_phase(cfg, plan, trace, report)

    problem = LaplaceProblem(nx=cfg.nx, ny=cfg.ny)
    res = solve_resilient(
        problem, cfg.iterations, cores=cfg.cores, faults=plan,
        config=resilience or ResilienceConfig(
            checkpoint_every=cfg.checkpoint_every),
        trace=trace)
    report.note("solver residual", f"{res.residual:.6g}")
    report.note("solver restarts", res.restarts)
    report.note("solver detected SDC", res.detected_sdc)
    report.note("solver executed sweeps",
                f"{res.executed_sweeps} for {cfg.iterations} useful")
    report.note("solver failed cores", list(res.failed_cores))
    report.note("solver degraded load factor", f"{res.degraded_factor:.4g}")
    report.note("solver time (modelled)", f"{res.time_s:.6g} s")
    return report


def render_campaign_sweep(outcomes) -> str:
    """Deterministic multi-campaign summary (byte-stable across ``-j``).

    Renders every campaign report in submission order plus a summary
    table of per-seed invariants (trace events, restarts, detected SDC,
    residual).  Only deterministic fields appear here — worker ids and
    wall-clock live in :func:`repro.parallel.render_job_report`, which
    ``repro faults --seeds ... --report`` prints separately.
    """
    from repro.analysis.report import Table
    from repro.parallel import outcomes_trace

    blocks = []
    summary = Table("Campaign sweep summary",
                    ["seed", "status", "trace events", "restarts",
                     "detected SDC", "residual"])
    for out in outcomes:
        cfg = out.spec.config
        if out.record.ok:
            report = out.result
            blocks.append(report.render())
            summary.add_row(cfg.seed, "ok", len(report.trace),
                            report.outcome.get("solver restarts", "-"),
                            report.outcome.get("solver detected SDC", "-"),
                            report.outcome.get("solver residual", "-"))
        else:
            summary.add_row(cfg.seed, "ISOLATED", "-", "-", "-", "-")
    failures = outcomes_trace(outcomes)
    blocks.append(summary.render())
    if len(failures):
        blocks.append("isolated jobs (fault-plane vocabulary):\n"
                      + failures.to_text().rstrip())
    return "\n\n".join(blocks)


def _poll_kernel(ctx):
    """Demo data-mover kernel: a fixed run of small DRAM reads."""
    buf = ctx.arg("buf")
    l1 = ctx.arg("l1")
    for _ in range(ctx.arg("n")):
        yield from ctx.noc_read_buffer(buf, 0, l1, 64)
        yield from ctx.noc_async_read_barrier()


def run_hang_demo(seed: int = 0, timeout_s: float = 1e-3,
                  trace: Optional[FaultTrace] = None) -> DeviceHangError:
    """Inject a kernel hang and let the ``Finish`` watchdog catch it.

    Two cores run the same polling kernel; one wedges mid-run (the hang
    lands on its dm0 slot at a seeded simulated time).  Returns the
    :class:`DeviceHangError` the watchdog raised — its ``stalls`` name the
    wedged core.  Raises ``RuntimeError`` if the watchdog failed to fire.
    """
    log = trace if trace is not None else FaultTrace()
    device = GrayskullDevice(dram_bank_capacity=_BANK_BYTES)
    # One deterministic hang on core (0,0)'s reader, early in the run.
    plan = FaultPlan(seed=seed, hangs=(
        KernelHang(t=timeout_s / 100, core=(0, 0), slot="dm0"),))
    FaultInjector(device, plan, trace=log).install()

    buf = create_buffer(device, 4096)
    program = Program(device)
    for coord in ((0, 0), (1, 0)):
        core = device.core(*coord)
        l1 = core.allocate_l1(1024)
        CreateKernel(program, _poll_kernel, core, "dm0",
                     args={"buf": buf, "l1": l1, "n": 64})
    EnqueueProgram(device, program)
    try:
        Finish(device, timeout_s=timeout_s)
    except DeviceHangError as err:
        log.record(device.sim.now, "watchdog", "Finish", "fired",
                   f"stalled={len(err.stalls)}")
        return err
    raise RuntimeError("watchdog did not fire")  # pragma: no cover

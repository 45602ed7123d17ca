"""Host-side API: build programs, move buffers, launch kernels.

Mirrors the tt-metal host workflow the paper's host code uses::

    program = Program(device)
    cb_in = CreateCircularBuffer(program, core, CB_IN0, page_size=2048, n_pages=4)
    CreateKernel(program, reader_kernel, core, DATA_MOVER_0, args={...})
    CreateKernel(program, compute_kernel, core, COMPUTE, args={...})
    EnqueueWriteBuffer(device, buf, host_data)
    handle = EnqueueProgram(device, program)
    Finish(device)
    result = EnqueueReadBuffer(device, buf)

``EnqueueProgram`` spawns one simulator process per kernel;
``Finish`` drives the device's clock until all of them complete and
returns the program's wall time.  Host↔DRAM transfers ride the PCIe
server, so reported solve times can include transfer overhead exactly as
the paper's measurements do.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1, TensixCore
from repro.lint.findings import LintError, LintWarning
from repro.sim import Process, SimulationError
from repro.ttmetal.buffers import Buffer
from repro.ttmetal.kernel_api import ComputeCtx, DataMoverCtx

__all__ = [
    "Program",
    "ProgramHandle",
    "CoreStall",
    "DeviceHangError",
    "PcieTransferError",
    "LintError",
    "LintWarning",
    "CreateKernel",
    "CreateCircularBuffer",
    "CreateSemaphore",
    "EnqueueWriteBuffer",
    "EnqueueReadBuffer",
    "EnqueueProgram",
    "Finish",
]

#: default retry budget for host↔DRAM transfers on detected corruption.
PCIE_MAX_RETRIES = 4


@dataclass(frozen=True)
class CoreStall:
    """One stalled kernel process in a watchdog report."""

    core: tuple                 #: (x, y) coordinate of the Tensix core
    slot: str                   #: dm0 / dm1 / compute
    kernel: str                 #: process name
    waiting_on: str             #: name of the event the process is blocked on
    since_s: float              #: simulated time the wait started

    def describe(self) -> str:
        return (f"core {self.core}/{self.slot}: {self.kernel} waiting on "
                f"{self.waiting_on} since t={self.since_s:g}s")


class DeviceHangError(SimulationError):
    """``Finish(device, timeout_s=...)``'s watchdog fired.

    Carries a structured per-core stall report (:attr:`stalls`) naming
    every kernel process that had not completed when the simulated
    timeout expired, and what each was waiting on.
    """

    def __init__(self, stalls: List[CoreStall], t: float, timeout_s: float):
        self.stalls = list(stalls)
        self.t = t
        self.timeout_s = timeout_s
        cores = sorted({s.core for s in self.stalls})
        lines = [f"device hang: {len(self.stalls)} kernel process(es) on "
                 f"core(s) {cores} still stalled after "
                 f"{timeout_s:g}s (t={t:g}s)"]
        lines += [f"  - {s.describe()}" for s in self.stalls]
        super().__init__("\n".join(lines))


class PcieTransferError(RuntimeError):
    """A host↔DRAM transfer kept failing its integrity check after retries."""

KernelFn = Callable[..., object]  # generator function taking a ctx


@dataclass
class _KernelSpec:
    fn: KernelFn
    core: TensixCore
    slot: str
    args: Dict
    #: memoised launch state ``(device, merged_args, process_name)`` —
    #: re-enqueueing the same program skips the runtime-arg merge and the
    #: process-name formatting (see :func:`_prepare_launch`).
    launch_cache: Optional[tuple] = None


@dataclass(frozen=True)
class _CbSpec:
    """One CreateCircularBuffer record (consumed by ``repro.lint``)."""

    core: TensixCore
    cb_id: int
    page_size: int
    n_pages: int
    dtype: str


@dataclass(frozen=True)
class _SemSpec:
    """One CreateSemaphore record (consumed by ``repro.lint``)."""

    core: TensixCore
    sem_id: int
    initial: int


@dataclass
class ProgramHandle:
    """A launched program: its processes and start time."""

    program: "Program"
    processes: List[Process]
    t_start: float
    t_end: Optional[float] = None
    #: kernel specs aligned with :attr:`processes` (for stall reports).
    kernel_specs: Optional[List[_KernelSpec]] = None

    @property
    def duration_s(self) -> float:
        if self.t_end is None:
            raise RuntimeError("program not finished; call Finish(device)")
        return self.t_end - self.t_start


class Program:
    """A set of kernels bound to cores, plus their CB/semaphore config."""

    def __init__(self, device: GrayskullDevice):
        self.device = device
        self.kernels: List[_KernelSpec] = []
        self.circular_buffers: List[_CbSpec] = []
        self.semaphores: List[_SemSpec] = []

    @property
    def cores(self) -> List[TensixCore]:
        seen = {}
        for spec in self.kernels:
            seen[spec.core.coord] = spec.core
        return list(seen.values())


def CreateKernel(program: Program, fn: KernelFn,
                 core: Union[TensixCore, Sequence[TensixCore]],
                 slot: str, args: Optional[Dict] = None) -> None:
    """Bind a kernel generator function to one or more cores.

    ``slot`` is one of ``DATA_MOVER_0`` / ``DATA_MOVER_1`` / ``COMPUTE``.
    ``args`` become the kernel's runtime arguments (``ctx.arg(name)``);
    pass a per-core dict by calling once per core.
    """
    if slot not in (DATA_MOVER_0, DATA_MOVER_1, COMPUTE):
        raise ValueError(f"unknown kernel slot {slot!r}")
    cores = [core] if isinstance(core, TensixCore) else list(core)
    for c in cores:
        if not c.is_worker:
            raise ValueError(f"core {c.coord} is storage-only; kernels "
                             "may only run on worker cores")
        if any(s.core is c and s.slot == slot for s in program.kernels):
            raise ValueError(f"core {c.coord} already has a {slot} kernel")
        program.kernels.append(_KernelSpec(fn, c, slot, dict(args or {})))


def CreateCircularBuffer(program: Program,
                         core: Union[TensixCore, Sequence[TensixCore]],
                         cb_id: int, page_size: int, n_pages: int,
                         dtype: str = "bf16") -> None:
    """Configure a circular buffer on one or more cores.

    ``dtype``: "bf16" (Grayskull) or "fp32" (the Wormhole-precision mode
    the paper's future work targets).
    """
    cores = [core] if isinstance(core, TensixCore) else list(core)
    for c in cores:
        c.create_cb(cb_id, page_size, n_pages, dtype=dtype)
        program.circular_buffers.append(
            _CbSpec(c, cb_id, page_size, n_pages, dtype))


def CreateSemaphore(program: Program,
                    core: Union[TensixCore, Sequence[TensixCore]],
                    sem_id: int, initial: int = 0) -> None:
    """Configure a semaphore on one or more cores."""
    cores = [core] if isinstance(core, TensixCore) else list(core)
    for c in cores:
        c.create_semaphore(sem_id, initial)
        program.semaphores.append(_SemSpec(c, sem_id, initial))


def _pcie_corruption(device: GrayskullDevice,
                     nbytes: int) -> Optional[tuple[int, int]]:
    """Ask the installed fault injector (if any) whether this transfer is
    corrupted; returns ``(byte_offset, bit)`` or ``None``."""
    injector = getattr(device, "fault_injector", None)
    if injector is None:
        return None
    return injector.corrupt_pcie(nbytes)


def _pcie_backoff(device: GrayskullDevice, attempt: int) -> None:
    """Exponential backoff between transfer retries, in simulated time."""
    delay = device.costs.pcie_latency * (2 ** attempt)
    injector = getattr(device, "fault_injector", None)
    if injector is not None:
        injector.record_pcie_retry(attempt, delay)
    device.sim.run(until=device.sim.timeout(delay))


def EnqueueWriteBuffer(device: GrayskullDevice, buf: Buffer,
                       data: np.ndarray, blocking: bool = True,
                       max_retries: int = PCIE_MAX_RETRIES) -> float:
    """Host → DRAM transfer over PCIe; returns the transfer time.

    If an installed fault injector corrupts the transfer, the host-side
    integrity check (modelling the link CRC) detects it and the transfer
    is retried with exponential backoff — up to ``max_retries`` times,
    after which :class:`PcieTransferError` is raised.  Non-blocking
    transfers cannot be verified and keep their corruption.
    """
    payload = np.ascontiguousarray(data)
    if payload.nbytes > buf.size:
        raise ValueError(
            f"payload of {payload.nbytes} B exceeds buffer of {buf.size} B")
    t0 = device.sim.now
    attempt = 0
    while True:
        corruption = _pcie_corruption(device, payload.nbytes)
        if corruption is None:
            buf.write_host(payload)
        else:
            bad = payload.view(np.uint8).ravel().copy()
            off, bit = corruption
            bad[off % bad.size] ^= np.uint8(1 << bit)
            buf.write_host(bad)
        ev = device.pcie.submit(payload.nbytes)
        if blocking:
            device.sim.run(until=ev)
        if corruption is None or not blocking:
            break
        attempt += 1
        if attempt > max_retries:
            raise PcieTransferError(
                f"host→DRAM transfer of {payload.nbytes} B failed its "
                f"integrity check {attempt} times")
        _pcie_backoff(device, attempt)
    return device.sim.now - t0


def EnqueueReadBuffer(device: GrayskullDevice, buf: Buffer,
                      offset: int = 0, size: Optional[int] = None,
                      blocking: bool = True,
                      max_retries: int = PCIE_MAX_RETRIES) -> np.ndarray:
    """DRAM → host transfer over PCIe; returns the bytes.

    Injected transfer corruption is detected by the host CRC check and
    re-read with exponential backoff, like the write path.
    """
    attempt = 0
    while True:
        out = buf.read_host(offset, size)
        corruption = _pcie_corruption(device, out.nbytes)
        if corruption is not None:
            off, bit = corruption
            out[off % out.size] ^= np.uint8(1 << bit)
        ev = device.pcie.submit(out.nbytes)
        if blocking:
            device.sim.run(until=ev)
        if corruption is None or not blocking:
            return out
        attempt += 1
        if attempt > max_retries:
            raise PcieTransferError(
                f"DRAM→host transfer of {out.nbytes} B failed its "
                f"integrity check {attempt} times")
        _pcie_backoff(device, attempt)


def _prepare_launch(spec: _KernelSpec, device: GrayskullDevice) -> tuple:
    """Memoised per-kernel launch setup: merged runtime args + process name.

    The merged dict is safe to share across launches because every kernel
    context copies it on construction; the cache is keyed on the device so
    a spec enqueued on a different device is re-prepared.
    """
    cache = spec.launch_cache
    if cache is None or cache[0] is not device:
        args = dict(spec.args)
        args.setdefault("_device", device)
        name = (f"{getattr(spec.fn, '__name__', 'kernel')}@"
                f"{spec.core.coord}/{spec.slot}")
        cache = spec.launch_cache = (device, args, name)
    return cache


def _maybe_lint(program: Program, mode: Optional[str]) -> None:
    """Run the static verifier over ``program`` per the lint mode.

    ``mode`` is ``"off"``/``"warn"``/``"strict"``; ``None`` falls back to
    the ``REPRO_LINT`` environment variable (default ``"warn"``).  Warn
    mode emits one aggregated :class:`LintWarning`; strict mode raises
    :class:`LintError` on any finding.  When a ``repro.lint.capture()``
    block is active, findings are routed there instead.  Lint-internal
    failures never break a run.
    """
    if mode is None:
        mode = os.environ.get("REPRO_LINT", "warn")
    if mode not in ("off", "warn", "strict"):
        raise ValueError(f"unknown lint mode {mode!r} "
                         "(expected 'off', 'warn' or 'strict')")
    if mode == "off":
        return
    from repro import lint as _lint
    try:
        report = _lint.lint_program(program)
    except Exception as exc:  # the verifier must never break a launch
        warnings.warn(f"repro.lint failed on this program: {exc!r}",
                      RuntimeWarning, stacklevel=3)
        return
    if not report:
        return
    if _lint.deliver(report):
        return
    if mode == "strict":
        raise LintError(report)
    warnings.warn("\n" + report.render(), LintWarning, stacklevel=3)


def EnqueueProgram(device: GrayskullDevice, program: Program,
                   lint: Optional[str] = None) -> ProgramHandle:
    """Launch every kernel of ``program`` as a simulator process.

    ``lint`` selects the static-verifier mode (``"off"``, ``"warn"``,
    ``"strict"``); ``None`` defers to ``REPRO_LINT`` (default: warn).
    """
    if not program.kernels:
        raise ValueError("program has no kernels")
    _maybe_lint(program, lint)
    procs: List[Process] = []
    for spec in program.kernels:
        _device, args, name = _prepare_launch(spec, device)
        if spec.slot == COMPUTE:
            ctx = ComputeCtx(spec.core, args)
        else:
            ctx = DataMoverCtx(spec.core, spec.slot, args)
        procs.append(device.sim.process(spec.fn(ctx), name=name))
    device.energy.set_active_cores(len(program.cores))
    handle = ProgramHandle(program=program, processes=procs,
                           t_start=device.sim.now,
                           kernel_specs=list(program.kernels))
    if not hasattr(device, "_pending_programs"):
        device._pending_programs = []  # type: ignore[attr-defined]
    device._pending_programs.append(handle)  # type: ignore[attr-defined]
    return handle


def _stall_report(pending: List[ProgramHandle]) -> List[CoreStall]:
    """Per-core stall report over every still-alive kernel process."""
    stalls: List[CoreStall] = []
    for handle in pending:
        specs = handle.kernel_specs or [None] * len(handle.processes)
        for proc, spec in zip(handle.processes, specs):
            if not proc.is_alive:
                continue
            target = proc._waiting_on
            waiting = (target.name or repr(target)) if target is not None \
                else "(never resumed)"
            stalls.append(CoreStall(
                core=spec.core.coord if spec is not None else (-1, -1),
                slot=spec.slot if spec is not None else "?",
                kernel=proc.name,
                waiting_on=waiting,
                since_s=proc._wait_since))
    return stalls


def _abort_hung(device: GrayskullDevice, pending: List[ProgramHandle],
                timeout_s: float) -> None:
    """Watchdog action: interrupt stranded kernels, raise the hang report."""
    stalls = _stall_report(pending)
    for handle in pending:
        for proc in handle.processes:
            if proc.is_alive:
                # Join the process first so its (intentional) death is not
                # reported as an unhandled crash, then interrupt it.
                proc.add_callback(lambda _e: None)
                proc.interrupt(cause="watchdog")
    # Drain the interrupt pokes so the kernel generators unwind now.
    try:
        device.sim.run(max_events=100_000)
    except SimulationError:  # pragma: no cover - defensive
        pass
    device._pending_programs = []  # type: ignore[attr-defined]
    device.energy.set_active_cores(0)
    raise DeviceHangError(stalls, t=device.sim.now, timeout_s=timeout_s)


def Finish(device: GrayskullDevice,
           max_events: Optional[int] = None,
           timeout_s: Optional[float] = None) -> float:
    """Run the device until all enqueued programs complete.

    Returns the wall time since the earliest unfinished program started.

    ``timeout_s`` arms a watchdog: if any kernel process is still alive
    after that much *simulated* time (or the simulation deadlocks before
    then), every stranded process is interrupted (via
    :meth:`repro.sim.Process.interrupt`) and :class:`DeviceHangError` is
    raised with a per-core stall report.
    """
    pending: List[ProgramHandle] = getattr(device, "_pending_programs", [])
    if not pending:
        return 0.0
    t0 = min(h.t_start for h in pending)
    if timeout_s is None:
        for handle in pending:
            for proc in handle.processes:
                device.sim.run(until=proc, max_events=max_events)
            handle.t_end = device.sim.now
        device._pending_programs = []  # type: ignore[attr-defined]
        device.energy.set_active_cores(0)
        return device.sim.now - t0

    sim = device.sim
    procs = [p for h in pending for p in h.processes]
    gate = sim.all_of(procs)
    deadline = sim.timeout(timeout_s)
    race = sim.any_of([gate, deadline])
    try:
        idx, _ = sim.run(until=race, max_events=max_events)
    except SimulationError as exc:
        if "deadlock" in str(exc):
            # The queue drained with kernels stranded before the deadline:
            # a hard hang — same watchdog action, reported immediately.
            _abort_hung(device, pending, timeout_s)
        raise
    except BaseException as exc:
        crashed = [p for p in procs if p.triggered and not p._ok]
        name = crashed[0].name if crashed else "<unknown>"
        raise SimulationError(
            f"process {name!r} crashed at t={sim.now:g}s") from exc
    if idx == 1:  # the deadline beat the kernels
        _abort_hung(device, pending, timeout_s)
    for handle in pending:
        handle.t_end = sim.now
    device._pending_programs = []  # type: ignore[attr-defined]
    device.energy.set_active_cores(0)
    return sim.now - t0

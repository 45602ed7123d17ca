"""Determinism regression tests for the engine fast paths.

Every optimisation in the simulator (run-loop inlining, synchronous CB
try-paths, fused charge regions, burst coalescing) is required to leave
the *simulation* bit-identical: same final simulated time, same number
of processed events, same solver output bits.  These tests pin that
contract by running the Table I single-core Jacobi and a 4-core
multicore Jacobi twice in-process.
"""

import hashlib

import numpy as np
import pytest

from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_initial import InitialConfig, InitialJacobiRunner
from repro.core.jacobi_optimized import OptimizedJacobiRunner


def _grid_sha(grid_bits) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(grid_bits).tobytes()).hexdigest()


def _run_single_core():
    """The Table I workload shape: initial single-core Jacobi."""
    dev = GrayskullDevice(dram_bank_capacity=16 << 20)
    res = InitialJacobiRunner(dev, LaplaceProblem(nx=64, ny=64),
                              InitialConfig.initial()).run(2)
    return {
        "sim_now": dev.sim.now,
        "events": dev.sim.events_processed,
        "kernel_time_s": res.kernel_time_s,
        "grid_sha": _grid_sha(res.grid_bits),
    }


def _run_multicore():
    """A 4-core (2x2) optimised multicore Jacobi."""
    dev = GrayskullDevice(dram_bank_capacity=16 << 20)
    res = OptimizedJacobiRunner(dev, LaplaceProblem(nx=64, ny=64),
                                cores_y=2, cores_x=2).run(2)
    return {
        "sim_now": dev.sim.now,
        "events": dev.sim.events_processed,
        "kernel_time_s": res.kernel_time_s,
        "grid_sha": _grid_sha(res.grid_bits),
    }


WORKLOADS = [("single_core", _run_single_core),
             ("multicore_2x2", _run_multicore)]


@pytest.mark.parametrize("name,run", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
def test_repeat_runs_bit_identical(name, run):
    """Two identical runs in one process agree on every invariant."""
    a, b = run(), run()
    assert a == b

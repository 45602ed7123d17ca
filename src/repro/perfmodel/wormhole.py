"""Wormhole projection: the paper's "next card" future work, modelled.

Section VIII: "[we] intend to explore porting our approach to the
Wormhole card which, with support for FP32 by the FPU will enable
increased precision, along with the ability to connect the cards to
explore scaling up in more detail."

This module holds the cost model of a Wormhole-class card; the Tier-2
Jacobi model projects onto it as onto the e150:
``JacobiScalingModel(WORMHOLE_COSTS).run(..., dtype="fp32")``.  It is
clearly labelled as a *projection* (no Wormhole measurements exist in
the paper to calibrate against).  Assumptions, from Tenstorrent's public
n150 specifications and the Grayskull-calibrated per-op costs:

* 72 worker Tensix cores on an 8×10 grid at 1.0 GHz (per-op costs scale
  with the clock: ×1.2 slower per cycle-equivalent than the 1.2 GHz
  Grayskull);
* 12 GB GDDR6 in 6 banks at roughly twice the per-bank service rate;
* the same 16384-bit FPU, now also accepting FP32: a tile holds 512
  FP32 elements, so FP32 halves the per-point compute rate and doubles
  the DRAM traffic;
* cards connect over Ethernet (2 × 100 Gb/s usable here, the
  ``card_link_*`` fields), so multi-card runs exchange one halo row each
  way per iteration and stay *numerically correct* — unlike the
  Grayskull experiment;
* card power ~160 W board limit; the roughly-load-independent behaviour
  observed on the e150 is assumed to carry over at ~110–130 W.
"""

from __future__ import annotations

from repro.perfmodel.calibration import DEFAULT_COSTS

__all__ = ["WORMHOLE_COSTS", "FP32_TILE_ELEMS"]

#: The 16384-bit FPU holds 512 FP32 elements per tile.
FP32_TILE_ELEMS = 512

_CLOCK_RATIO = 1.2 / 1.0  # Grayskull 1.2 GHz -> Wormhole 1.0 GHz

#: Projected Wormhole (n150-class) cost model.
WORMHOLE_COSTS = DEFAULT_COSTS.with_overrides(
    clock_hz=1.0e9,
    grid_width=10,
    grid_height=8,
    n_worker_cores=72,
    n_dram_banks=6,
    dram_bytes=12 << 30,
    dram_bank_bw=DEFAULT_COSTS.dram_bank_bw * 2.0,      # GDDR6
    noc_aggregate_bw=DEFAULT_COSTS.dram_bank_bw * 2.0 * 6,
    noc_column_bw=DEFAULT_COSTS.noc_column_bw * 1.5,
    # cycle-counted per-op costs scale with the slower clock
    fpu_op=DEFAULT_COSTS.fpu_op * _CLOCK_RATIO,
    cb_op=DEFAULT_COSTS.cb_op * _CLOCK_RATIO,
    core_loop_batch=DEFAULT_COSTS.core_loop_batch * _CLOCK_RATIO,
    memcpy_rate=DEFAULT_COSTS.memcpy_rate / _CLOCK_RATIO,
    card_power_idle_w=95.0,
    card_power_base_w=110.0,
    card_power_span_w=20.0,
    # inter-card halo exchange over 2 × 100 GbE
    card_link_bw=25e9,
    card_link_latency=2e-6,
)

"""Benchmarks for the future-work extensions (paper Section VIII).

Not tables from the paper — these quantify the three directions its
conclusions sketch: SRAM-resident execution with neighbour comms, more
complex stencils (advection), and the Wormhole card with FP32 and
connected multi-card scaling.
"""

import pytest

from repro.analysis.report import Table
from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_optimized import OptimizedJacobiRunner
from repro.core.jacobi_sram import SramJacobiRunner
from repro.core.stencil import StencilRunner, StencilSpec
from repro.perfmodel.scaling import JacobiScalingModel
from repro.perfmodel.wormhole import WormholeModel


def _device():
    return GrayskullDevice(dram_bank_capacity=32 << 20)


def test_sram_resident_vs_dram_streaming(benchmark):
    """Section VIII: 'copying the domain into local SRAM and operating
    from there' — quantified against the DRAM-streaming kernel."""
    def run():
        p = LaplaceProblem(nx=512, ny=128)
        rows = []
        for cy in (1, 2, 4, 8):
            sram = SramJacobiRunner(_device(), p, cores_y=cy).run(
                500, sim_iterations=4, read_back=False)
            stream = OptimizedJacobiRunner(_device(), p,
                                           cores_y=cy, cores_x=1).run(
                500, sim_iterations=4, read_back=False)
            rows.append((cy, sram.gpts, stream.gpts))
        return rows
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table("Extension: SRAM-resident vs DRAM-streaming Jacobi "
              "(512x128, GPt/s)",
              ["cores (Y)", "SRAM-resident", "DRAM-streaming", "speedup"])
    for cy, s, d in rows:
        t.add_row(cy, f"{s:.3f}", f"{d:.3f}", f"{s / d:.2f}x")
    print("\n" + t.render())
    assert all(s > d for _cy, s, d in rows)


def test_stencil_term_count_scaling(benchmark):
    """Weighted stencils: cost grows with the number of terms."""
    def run():
        p = LaplaceProblem(nx=1024, ny=64)
        out = []
        for name, spec in [("advection-3", StencilSpec.advection_upwind(0.4, 0.2)),
                           ("average-4", StencilSpec.weighted(
                               west=0.25, east=0.25, north=0.25, south=0.25)),
                           ("diffusion-5", StencilSpec.diffusion(0.2))]:
            r = StencilRunner(_device(), p, spec).run(
                50, sim_iterations=2, read_back=False)
            out.append((name, len(spec.groups), r.gpts))
        return out
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table("Extension: generic stencil cost vs active terms "
              "(1024x64, 1 core)", ["stencil", "terms", "GPt/s"])
    for name, n, g in rows:
        t.add_row(name, n, f"{g:.3f}")
    print("\n" + t.render())
    gpts = [g for _n, _t, g in rows]
    assert gpts[0] > gpts[1] > gpts[2]


def test_wormhole_projection(benchmark):
    """Section VIII: FP32 + connected cards, projected."""
    def run():
        gs = JacobiScalingModel().run(9216, 1024, 5000, 12, 9)
        wh = WormholeModel()
        rows = [("Grayskull 108c BF16 (measured model)", gs.gpts,
                 gs.energy_j)]
        for dtype in ("bf16", "fp32"):
            r = wh.run(9216, 1024, 5000, 8, 9, dtype=dtype)
            rows.append((f"Wormhole 72c {dtype.upper()}", r.gpts,
                         r.energy_j))
        r4 = wh.run(9216, 1024, 5000, 8, 9, n_cards=4, dtype="fp32")
        rows.append(("Wormhole x4 FP32 (correct halos)", r4.gpts,
                     r4.energy_j))
        return rows
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table("Extension: Wormhole projection (1024x9216, 5000 iters)",
              ["configuration", "GPt/s", "Energy J"])
    for name, g, e in rows:
        t.add_row(name, f"{g:.2f}", f"{e:.0f}")
    t.add_footnote("projection: no Wormhole measurements exist in the "
                   "paper; assumptions in repro/perfmodel/wormhole.py")
    print("\n" + t.render())
    by_name = {r[0]: r[1] for r in rows}
    assert by_name["Wormhole 72c FP32"] < by_name["Wormhole 72c BF16"]
    assert by_name["Wormhole x4 FP32 (correct halos)"] > \
        3 * by_name["Wormhole 72c FP32"]

#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table & figure.

Runs every experiment driver at the paper's problem scale (same code the
benchmarks call) and writes the fidelity log.  Takes a few minutes::

    python scripts/generate_experiments_md.py
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import TABLES, figures, run_table

HEADER = """\
# EXPERIMENTS — paper vs. measured

Fidelity log for the reproduction of Brown & Barton, *"Accelerating
stencils on the Tenstorrent Grayskull RISC-V accelerator"* (SC 2024
workshops).  Every table below was regenerated by the corresponding
driver in `src/repro/experiments/` at the paper's problem scale;
`ratio = measured / paper` per cell.  Regenerate this file with
`python scripts/generate_experiments_md.py`, or the individual tables
with `pytest benchmarks/ --benchmark-only`.

**Reading the ratios.**  The substrate here is a calibrated simulator,
not the authors' silicon, so the goal is *shape fidelity*: orderings,
knees and crossovers should match; absolute numbers should be in-band.
Constants were calibrated from a handful of the paper's cells (flagged
below); every other cell is a genuine prediction of the model.

"""

#: formatted with the measured sweep wall-clocks and appended to HEADER.
PARALLEL_NOTE = """\
**Sweep engine.**  The streaming tables (III–VII) and Table VIII run
through the `repro.parallel` process-pool engine
(`python -m repro -j N table ...`, `docs/parallel_sweeps.md`); output
is byte-identical at any `-j`, and results are cached content-addressed
on (repro version, config, seed) so an unchanged regeneration is
near-free.  On the host that produced this file ({cores} CPU core(s)
visible), Table V's replication sweep took {t1:.1f} s at `-j 1` and
{tn:.1f} s at `-j {jmax}`.  Wall-clock speedup tracks the *host's*
core count — the simulated results themselves are machine-independent.

"""

SUMMARY_NOTES = """\
## Known deviations (and why)

1. **Table I, `Initial` / `Data write optimised`** (~1.3–1.45× fast,
   nearly tied): the paper's fully-enabled first build runs at
   ~40 ms/iteration while its own Table II components sum to only
   ~21 ms/iteration — a non-additive interaction our simulator does not
   have a mechanism for.  We reproduce the component-sum behaviour; the
   10 % initial→write-opt split is inside that missing interaction.
2. **Table II, write-only row** (1.53×): the per-request non-contiguous
   write penalty in the paper varies with request size (≈18 ns at 4 B,
   ≈45 ns at 64 B); we use the 64 B calibration, which makes the 4 B
   Table IV write rows ~1.6× slow instead.
3. **Tables III/IV, large-batch rows** (~1.3×): the simulated reader
   exposes one completion latency per row barrier that the paper's
   kernel evidently hides; sub-millisecond effect, only visible when the
   whole run is ~11 ms.
4. **Table III/IV, sync reads at 1–4 KB batches** (~1.9×): in the
   paper's data the *per-request* cost of a synchronous read shrinks
   from 755 ns (4 B) to ~520 ns (1 KB); our fixed issue+latency model
   keeps it constant.
5. **Tables VI/VII interleaved cells** (~1.2–1.5×; up to ~4.7× for
   interleaved multi-core): page-split overheads are modelled linearly,
   and our interleaved streams keep scaling with cores — 8 banks really
   do provide the bandwidth — while the paper's stay flat at ~0.007 s.
   The paper attributes its flatness only loosely to "NoC and/or DDR
   bandwidth", and its own Table VIII (88 GB/s aggregate at 108 cores)
   is inconsistent with any hard ~25 GB/s device-wide cap, so we chose
   to keep the physically coherent model and record the difference.
6. **Table VIII**: the paper lists the 8-core run as a 4×4 geometry
   (16 cores); we use 2×4.  The 2-core row is superlinear in the paper
   (2.48× one core); the model cannot produce >2× and lands at 0.78.
7. **BF16 accuracy** (not evaluated in the paper): BF16 Jacobi stalls at
   a rounding fixed point well before FP32 convergence (max error ~0.17
   on a 32×32 unit problem, ~32 °C on the 96×64 heat-spreader example).
   The paper compares BF16 against FP32 throughput but never validates
   accuracy; this repository quantifies that caveat
   (`tests/integration/test_end_to_end.py`,
   `examples/heat_spreader.py`).

## Functional fidelity

The simulated device's answers are **bit-identical** to the independent
BF16 reference (`repro.cpu.jacobi.jacobi_solve_bf16`) for both kernel
generations, all Table-I variants, all multi-core decompositions and all
iteration counts tested — see `tests/core/` and `tests/integration/`.
The alignment bugs of Section IV-B reproduce mechanically: disabling the
Listing-4 helper corrupts the answer
(`tests/core/test_jacobi_initial.py::TestAlignmentBugDemo`), and the
multi-card runs deviate from the true solution near the card cuts
exactly as the paper concedes
(`tests/core/test_multicore.py::TestMulticard`).

## Beyond the tables: extensions and their benchmarks

The paper's Section-VIII future work is implemented and quantified in
`benchmarks/test_extensions.py` and `benchmarks/test_ablations.py`:
generic stencils incl. upwind advection (`repro.core.stencil`),
SRAM-resident execution with NoC halo exchange — 1.3–1.4× over DRAM
streaming (`repro.core.jacobi_sram`), a Wormhole FP32 projection
(`repro.perfmodel.wormhole`), and mixed-precision defect correction
(`repro.core.refinement`) which repairs the BF16 stall noted above.

## Calibration provenance

Constants calibrated directly from paper cells (everything else is
predicted): `read_issue`/`read_latency`/`write_issue`/`write_latency`
(Table III, 4 B rows), `noncontig_read` (Table IV 4 B), `noncontig_write`
(Table IV 64 B), `noc_link_bw` (Table III 16384 B), `dram_bank_bw`
(Table VII 2-core), `noc_column_bw` (Table VIII 108-core),
`replay_coalesce` (Table V ×32), `page_overhead_*` (Table VI 1 K),
`memcpy_rate` (Section V memcpy experiment), `memcpy_call` (Table II
memcpy-only), `fpu_op` (Table II compute-only), `core_loop_batch`
(Table II all-off), `overlap_loss` (Table VIII 1-core), CPU and card
power (Table VIII energies).  Each derivation is written out in
`src/repro/perfmodel/calibration.py` and re-checked by
`tests/perfmodel/test_calibration.py`.
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-j", "--jobs", type=int, default=0,
                    help="worker processes for the sweep-backed tables "
                         "(default 0 = all cores)")
    args = ap.parse_args()
    jmax = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)

    t0 = time.time()
    sections = []
    results = []

    def add(result, runtime):
        results.append(result)
        block = [f"## {result.title}", "", "```", result.table.render(),
                 "```", ""]
        worst = result.worst_ratio()
        if worst is not None:
            block.append(f"Worst-row deviation: **{worst:.2f}×**; "
                         f"regenerated in {runtime:.1f}s.")
        for note in result.notes:
            block.append(f"- {note}")
        block.append("")
        sections.append("\n".join(block))
        print(f"  {result.experiment_id}: worst ratio "
              f"{worst:.2f}x ({runtime:.1f}s)" if worst else
              f"  {result.experiment_id}: done ({runtime:.1f}s)")

    # Table V doubles as the -j 1 vs -j max wall-clock measurement for
    # the preamble (cache off so both runs really compute).
    t = time.time()
    run_table(5, jobs=1, cache=False)
    t5_seq = time.time() - t

    for number in TABLES:
        t = time.time()
        add(run_table(number, jobs=jmax, cache=False), time.time() - t)
        if number == 5:
            t5_par = time.time() - t

    fig_block = ["## Figures 1–6", "",
                 "The paper's figures are architecture/layout diagrams, "
                 "not data plots.  Each is regenerated as a text rendering "
                 "computed from the live simulator objects "
                 "(`repro.experiments.figures`); `pytest benchmarks/"
                 "test_figures.py --benchmark-only` writes them to "
                 "`benchmarks/output/`.", ""]
    for fig_id, text in figures.all_figures().items():
        fig_block += [f"### {fig_id}", "", "```", text, "```", ""]
    sections.append("\n".join(fig_block))

    summary = ["## Summary", "",
               "| experiment | worst measured/paper ratio |",
               "|---|---|"]
    for r in results:
        worst = r.worst_ratio()
        summary.append(f"| {r.experiment_id} | "
                       f"{worst:.2f}× |" if worst else
                       f"| {r.experiment_id} | n/a |")
    summary.append("")

    preamble = HEADER + PARALLEL_NOTE.format(
        cores=os.cpu_count() or 1, jmax=jmax, t1=t5_seq, tn=t5_par)
    out = preamble + "\n".join(summary) + "\n" + "\n".join(sections) \
        + "\n" + SUMMARY_NOTES
    path = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")
    with open(path, "w") as fh:
        fh.write(out)
    print(f"wrote {os.path.abspath(path)} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()

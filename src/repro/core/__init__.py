"""The paper's contribution: stencil kernels for the Grayskull.

* :mod:`repro.core.grid` — the Laplace problem, boundary conditions and
  the 256-bit-aligned DRAM layout of Fig. 5.
* :mod:`repro.core.decomposition` — 32×32 tile batches (Fig. 4),
  1024-element row batches (Fig. 6) and multi-core domain splits.
* :mod:`repro.core.jacobi_initial` — the Section-IV kernel generation
  (non-contiguous 34×34 reads, 4-CB memcpy extraction, Listing-2 compute,
  Listing-4 aligned reads) with the write-sync and double-buffering
  variants of Table I and the component toggles of Table II.
* :mod:`repro.core.stencil` — the Section-VI kernel generation
  (contiguous row reads, rotating 4-row buffer, ``cb_set_rd_ptr``
  zero-copy), generated from a :class:`StencilSpec`;
  :mod:`repro.core.jacobi_optimized` runs it on Listing 2's spec.
* :mod:`repro.core.multicore` — the paper's multi-card answer with
  frozen inter-card halos (multi-core answers on one card equal
  :func:`repro.cpu.jacobi.jacobi_solve_bf16`).
* :mod:`repro.core.solver` — the :class:`JacobiSolver` facade.
"""

from repro.core.grid import AlignedDomain, LaplaceProblem
from repro.core.jacobi_sram import SramJacobiRunner
from repro.core.refinement import solve_defect_correction
from repro.core.solver import (JacobiResult, JacobiSolver, ResilienceConfig,
                               ResilientJacobiResult, solve_resilient)
from repro.core.stencil import StencilRunner, StencilSpec

__all__ = [
    "AlignedDomain",
    "JacobiResult",
    "JacobiSolver",
    "LaplaceProblem",
    "ResilienceConfig",
    "ResilientJacobiResult",
    "SramJacobiRunner",
    "StencilRunner",
    "StencilSpec",
    "solve_defect_correction",
    "solve_resilient",
]

"""The optimised Jacobi kernel (Section VI): row batches and zero-copy CBs.

Redesign driven by the Section-V lessons:

* **fewer, larger, contiguous reads** — the domain is swept in
  1024-element row chunks (Fig. 6); each batch is one contiguous read of
  ``width+2`` elements (the chunk plus its x halos), aligned with the
  Listing-4 helper;
* **no replicated reads** — a rotating 4-row local buffer holds the
  current, previous and next rows, so every DRAM row is fetched once per
  column sweep;
* **no memcpy** — the compute kernel re-points each input CB's read
  pointer into the rotating buffer with the paper's ``cb_set_rd_ptr``
  extension: the x−1 / x+1 tiles are just the same row at element offsets
  0 / 2, and y−1 / y+1 are the neighbouring slots.

The kernels are the stencil family's (:mod:`repro.core.stencil`) run on
Listing 2's spec, :meth:`StencilSpec.jacobi`; this module keeps the
Section-VI variant knobs and the runner name the experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.stencil import StencilRunner, StencilSpec
from repro.dtypes.tiles import TILE_ELEMS

__all__ = ["OptimizedConfig", "OptimizedJacobiRunner"]


@dataclass(frozen=True)
class OptimizedConfig:
    """Section-VI variant knobs."""

    chunk: int = TILE_ELEMS          #: row-batch width in elements
    interleaved: bool = True         #: spread d1/d2 over the 8 banks
    page_size: int = 32 << 10        #: interleave page (Table VI optimum)
    accumulate_in_dst: bool = False  #: the paper's rejected FPU ablation


class OptimizedJacobiRunner(StencilRunner):
    """Host driver for the Section-VI kernels over a core grid."""

    def __init__(self, device: GrayskullDevice, problem: LaplaceProblem,
                 config: Optional[OptimizedConfig] = None,
                 cores_y: int = 1, cores_x: int = 1):
        self.config = cfg = config or OptimizedConfig()
        spec = StencilSpec.jacobi("dst" if cfg.accumulate_in_dst else "pack")
        super().__init__(device, problem, spec, cores_y, cores_x,
                         chunk=cfg.chunk, interleaved=cfg.interleaved,
                         page_size=cfg.page_size)

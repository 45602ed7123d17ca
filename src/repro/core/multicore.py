"""Functional multi-card execution without inter-card halos.

Timing for large core counts comes from the Tier-2 model
(:mod:`repro.perfmodel.scaling`).  On one card the cores exchange halos
through the shared DRAM images with a barrier per iteration, so the
decomposed answer *is* the global BF16 sweep
(:func:`repro.cpu.jacobi.jacobi_solve_bf16`).  Across cards it is not:
Grayskull cards cannot reach each other's memory, and the paper runs the
multi-card experiment *without* inter-card halo exchange ("strictly
speaking this will not provide the correct answer").
:func:`run_multicard_functional` reproduces that: each card's block keeps
its initial values as frozen halos at the card cuts, so the multi-card
answer measurably deviates from the true solution — exactly the caveat
the paper documents.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.decomposition import split_extent
from repro.cpu.jacobi import jacobi_step_bf16

__all__ = ["run_multicard_functional"]


def run_multicard_functional(grid_bits: np.ndarray, iterations: int,
                             n_cards: int) -> np.ndarray:
    """The paper's multi-card run: per-card blocks with *frozen* cut halos.

    The domain is split across cards in Y.  Each card evolves its block
    independently; the rows just outside a card's block never update (no
    inter-card communication), so boundary information cannot propagate
    across cuts.
    """
    u = np.asarray(grid_bits, dtype=np.uint16).copy()
    ny = u.shape[0] - 2
    if n_cards <= 0:
        raise ValueError("n_cards must be positive")
    blocks: List[np.ndarray] = []
    cuts = split_extent(ny, n_cards)
    for y0, h in cuts:
        # Copy: the card owns a private image including frozen halos.
        blocks.append(u[y0:y0 + h + 2, :].copy())
    for _ in range(iterations):
        for i, b in enumerate(blocks):
            stepped = jacobi_step_bf16(b)
            # Interior update only; the halo rows stay at their initial
            # values (stale) because no card ever sends them.
            b[1:-1, 1:-1] = stepped[1:-1, 1:-1]
    out = u.copy()
    for (y0, h), b in zip(cuts, blocks):
        out[y0 + 1:y0 + h + 1, 1:-1] = b[1:-1, 1:-1]
    return out

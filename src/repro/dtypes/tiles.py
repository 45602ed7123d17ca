"""32×32 BF16 tiles — the unit of FPU computation.

The Grayskull FPU is a 16384-bit wide engine: at BF16 (16 bits/element)
one operation covers 1024 elements, i.e. a 32×32 tile.  tt-metal's unpack
→ math → pack pipeline moves tiles between circular buffers and the
destination registers; this module provides the tile geometry and
conversions between row-major 2-D domains and flat tile payloads.

Note on layout: real silicon stores tiles in a "tilized" 16×16-face order;
the paper's kernels never observe that layout (the unpacker hides it), so
our tiles are row-major 32×32 — the programmer-visible abstraction.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.bf16 import BF16_BYTES

__all__ = [
    "TILE_DIM",
    "TILE_ELEMS",
    "TILE_NBYTES",
    "domain_to_tiles",
    "tiles_to_domain",
]

#: Tile edge length in elements (32 × 32 BF16 = 16384 bits, the FPU width).
TILE_DIM = 32
#: Elements per tile.
TILE_ELEMS = TILE_DIM * TILE_DIM
#: Bytes per BF16 tile.
TILE_NBYTES = TILE_ELEMS * BF16_BYTES


def domain_to_tiles(domain_bits: np.ndarray) -> np.ndarray:
    """Split a 2-D BF16 bit-pattern array into a grid of 32×32 tiles.

    Returns a ``(ny, nx, 32, 32) uint16`` view-copy; both dimensions of the
    input must be multiples of :data:`TILE_DIM` (the paper pads domains to
    guarantee this — see Fig. 4).
    """
    d = np.asarray(domain_bits, dtype=np.uint16)
    h, w = d.shape
    if h % TILE_DIM or w % TILE_DIM:
        raise ValueError(
            f"domain {h}x{w} is not a multiple of the {TILE_DIM}-element tile")
    ny, nx = h // TILE_DIM, w // TILE_DIM
    return (d.reshape(ny, TILE_DIM, nx, TILE_DIM)
             .transpose(0, 2, 1, 3)
             .copy())


def tiles_to_domain(tiles: np.ndarray) -> np.ndarray:
    """Inverse of :func:`domain_to_tiles`."""
    t = np.asarray(tiles, dtype=np.uint16)
    if t.ndim != 4 or t.shape[2:] != (TILE_DIM, TILE_DIM):
        raise ValueError(f"expected (ny,nx,{TILE_DIM},{TILE_DIM}), got {t.shape}")
    ny, nx = t.shape[:2]
    return (t.transpose(0, 2, 1, 3)
             .reshape(ny * TILE_DIM, nx * TILE_DIM)
             .copy())

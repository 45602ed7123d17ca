"""Tile geometry tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes.tiles import (
    TILE_DIM,
    TILE_ELEMS,
    TILE_NBYTES,
    domain_to_tiles,
    tiles_to_domain,
)


class TestConstants:
    def test_fpu_width(self):
        # 16384-bit SIMD at 16 bits/element = 1024 elements = 32x32
        assert TILE_DIM * TILE_DIM == TILE_ELEMS == 16384 // 16
        assert TILE_NBYTES == 2048


class TestDomainTiling:
    def test_roundtrip(self, rng):
        dom = rng.integers(0, 2 ** 16, (96, 64), dtype=np.uint16)
        tiles = domain_to_tiles(dom)
        assert tiles.shape == (3, 2, 32, 32)
        assert np.array_equal(tiles_to_domain(tiles), dom)

    def test_tile_content_matches_block(self, rng):
        dom = rng.integers(0, 2 ** 16, (64, 64), dtype=np.uint16)
        tiles = domain_to_tiles(dom)
        assert np.array_equal(tiles[1, 0], dom[32:64, 0:32])
        assert np.array_equal(tiles[0, 1], dom[0:32, 32:64])

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            domain_to_tiles(np.zeros((33, 32), dtype=np.uint16))

    def test_bad_tile_array_rejected(self):
        with pytest.raises(ValueError):
            tiles_to_domain(np.zeros((2, 2, 16, 16), dtype=np.uint16))


@settings(max_examples=30, deadline=None)
@given(ny=st.integers(1, 4), nx=st.integers(1, 4), seed=st.integers(0, 999))
def test_tiling_is_a_bijection(ny, nx, seed):
    rng = np.random.default_rng(seed)
    dom = rng.integers(0, 2 ** 16, (ny * TILE_DIM, nx * TILE_DIM),
                       dtype=np.uint16)
    assert np.array_equal(tiles_to_domain(domain_to_tiles(dom)), dom)

"""Tests for partitioning schemes (Figure 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    PixelRegion,
    block_regions,
    pixel_regions,
    region_grid_shape,
    sequence_ranges,
)


def _coverage_ok(regions, width, height):
    """Regions tile the frame exactly: disjoint and complete."""
    seen = np.zeros(width * height, dtype=int)
    for r in regions:
        seen[r.pixels] += 1
    return np.all(seen == 1)


def test_paper_block_layout():
    """320x240 in 80x80 blocks: a 4x3 grid of 12 blocks (the paper's run)."""
    regions = block_regions(320, 240, 80, 80)
    assert len(regions) == 12
    assert all(r.n_pixels == 6400 for r in regions)
    assert region_grid_shape(regions) == (4, 3)
    assert _coverage_ok(regions, 320, 240)


def test_block_regions_clip_at_edges():
    regions = block_regions(100, 70, 80, 80)
    assert len(regions) == 2
    assert regions[0].n_pixels == 80 * 70
    assert regions[1].n_pixels == 20 * 70
    assert _coverage_ok(regions, 100, 70)


@given(
    width=st.integers(1, 64),
    height=st.integers(1, 64),
    bw=st.integers(1, 64),
    bh=st.integers(1, 64),
)
@settings(max_examples=60)
def test_block_regions_always_tile(width, height, bw, bh):
    assert _coverage_ok(block_regions(width, height, bw, bh), width, height)


def test_pixel_regions_extreme():
    regions = pixel_regions(4, 3)
    assert len(regions) == 12
    assert all(r.n_pixels == 1 for r in regions)
    assert _coverage_ok(regions, 4, 3)


def test_pixel_region_flat_indices_row_major():
    r = PixelRegion(1, 1, 3, 3, width=4)
    np.testing.assert_array_equal(r.pixels, [5, 6, 9, 10])


def test_pixel_region_validation():
    with pytest.raises(ValueError):
        PixelRegion(2, 0, 2, 1, width=4)  # zero width
    with pytest.raises(ValueError):
        PixelRegion(0, 0, 5, 1, width=4)  # exceeds frame


def test_sequence_ranges_equal_split():
    assert sequence_ranges(45, 3) == [(0, 15), (15, 30), (30, 45)]


def test_sequence_ranges_weighted():
    """Paper testbed weights 2:1:1 give the fast machine half the frames."""
    ranges = sequence_ranges(44, 3, weights=[2.0, 1.0, 1.0])
    assert ranges == [(0, 22), (22, 33), (33, 44)]


def test_sequence_ranges_more_parts_than_frames():
    ranges = sequence_ranges(2, 5)
    assert ranges == [(0, 1), (1, 2)]


@given(
    n_frames=st.integers(1, 200),
    n_parts=st.integers(1, 12),
)
@settings(max_examples=60)
def test_sequence_ranges_cover_exactly(n_frames, n_parts):
    ranges = sequence_ranges(n_frames, n_parts)
    covered = []
    for a, b in ranges:
        assert a < b
        covered.extend(range(a, b))
    assert covered == list(range(n_frames))


def test_sequence_ranges_validation():
    with pytest.raises(ValueError):
        sequence_ranges(10, 0)
    with pytest.raises(ValueError):
        sequence_ranges(10, 2, weights=[1.0, -1.0])


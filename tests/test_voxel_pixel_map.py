"""Tests for the voxel -> pixel-list map, including a model-based property
test against a dict-of-sets reference implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import VoxelPixelMap

N_VOX, N_PIX = 20, 50


def test_empty_map_queries():
    m = VoxelPixelMap(N_VOX, N_PIX)
    assert m.n_entries == 0
    assert m.pixels_for_voxels(np.array([0, 1])).size == 0
    assert m.voxels_of_pixel(0).size == 0


def test_add_and_query():
    m = VoxelPixelMap(N_VOX, N_PIX)
    m.add_marks(np.array([3, 3, 7]), np.array([10, 11, 10]))
    np.testing.assert_array_equal(m.pixels_for_voxels(np.array([3])), [10, 11])
    np.testing.assert_array_equal(m.pixels_for_voxels(np.array([7])), [10])
    np.testing.assert_array_equal(m.pixels_for_voxels(np.array([3, 7])), [10, 11])
    np.testing.assert_array_equal(m.voxels_of_pixel(10), [3, 7])


def test_duplicates_coalesced():
    m = VoxelPixelMap(N_VOX, N_PIX)
    m.add_marks(np.array([1, 1, 1]), np.array([2, 2, 2]))
    assert m.n_entries == 1
    m.add_marks(np.array([1]), np.array([2]))
    assert m.n_entries == 1


def test_remove_pixels():
    m = VoxelPixelMap(N_VOX, N_PIX)
    m.add_marks(np.array([0, 1, 2]), np.array([5, 5, 6]))
    m.remove_pixels(np.array([5]))
    assert m.n_entries == 1
    np.testing.assert_array_equal(m.pixels_for_voxels(np.array([2])), [6])
    assert m.pixels_for_voxels(np.array([0, 1])).size == 0


def test_replace_pixel_marks():
    m = VoxelPixelMap(N_VOX, N_PIX)
    m.add_marks(np.array([0, 1]), np.array([5, 5]))
    m.replace_pixel_marks(np.array([5]), np.array([9]), np.array([5]))
    np.testing.assert_array_equal(m.voxels_of_pixel(5), [9])


def test_out_of_range_rejected():
    m = VoxelPixelMap(N_VOX, N_PIX)
    with pytest.raises(IndexError):
        m.add_marks(np.array([N_VOX]), np.array([0]))
    with pytest.raises(IndexError):
        m.add_marks(np.array([0]), np.array([N_PIX]))
    with pytest.raises(IndexError):
        m.add_marks(np.array([-1]), np.array([0]))


def test_copy_is_independent():
    m = VoxelPixelMap(N_VOX, N_PIX)
    m.add_marks(np.array([0]), np.array([0]))
    c = m.copy()
    c.add_marks(np.array([1]), np.array([1]))
    assert m.n_entries == 1 and c.n_entries == 2


def test_memory_bytes_grows():
    m = VoxelPixelMap(N_VOX, N_PIX)
    before = m.memory_bytes()
    m.add_marks(np.arange(10), np.arange(10))
    assert m.memory_bytes() > before


def test_validation():
    with pytest.raises(ValueError):
        VoxelPixelMap(0, 10)


pairs = st.lists(st.tuples(st.integers(0, N_VOX - 1), st.integers(0, N_PIX - 1)), max_size=20)
pixel_ids = st.lists(st.integers(0, N_PIX - 1), max_size=10)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), pairs),
        st.tuples(st.just("remove"), pixel_ids),
        st.tuples(st.just("replace"), st.tuples(pixel_ids, pairs)),
    ),
    max_size=12,
)


@given(
    ops=ops,
    query=st.lists(st.integers(0, N_VOX - 1), max_size=8),
    n_vox=st.sampled_from([N_VOX, 32767, 32768]),
)
@settings(max_examples=120, deadline=None)
def test_matches_dict_of_sets_model(ops, query, n_vox):
    """Model-based: the per-pixel CSR map behaves like a dict voxel ->
    set(pixel), on either side of its int16/int32 voxel-id boundary (voxel
    ids are drawn from the top of the range there)."""
    top = n_vox - N_VOX  # offset into the highest voxel ids

    def split(payload):
        return (np.array([v + top for v, _ in payload], dtype=np.int64),
                np.array([p for _, p in payload], dtype=np.int64))

    m = VoxelPixelMap(n_vox, N_PIX)
    assert m._voxels.dtype == (np.int16 if n_vox <= 32767 else np.int32)
    model: dict[int, set[int]] = {}
    for op, payload in ops:
        if op in ("remove", "replace"):
            cleared = payload if op == "remove" else payload[0]
            for s in model.values():
                s.difference_update(cleared)
        if op in ("add", "replace"):
            added = payload if op == "add" else payload[1]
            for vi, pi in added:
                model.setdefault(vi + top, set()).add(pi)
        if op == "add":
            m.add_marks(*split(payload))
        elif op == "remove":
            m.remove_pixels(np.array(payload, dtype=np.int64))
        else:
            m.replace_pixel_marks(np.array(payload[0], dtype=np.int64), *split(payload[1]))
    voxels = np.array(query, dtype=np.int64) + top
    expected = sorted(set().union(*(model.get(v, set()) for v in voxels.tolist())))
    got = m.pixels_for_voxels(voxels)
    assert got.dtype == np.int64 and got.tolist() == expected
    assert m.n_entries == sum(len(s) for s in model.values())
    for pixel in range(N_PIX):
        want = sorted(v for v, s in model.items() if pixel in s)
        assert m.voxels_of_pixel(pixel).tolist() == want
    restored = m.copy()
    assert restored.pixels_for_voxels(voxels).tolist() == expected

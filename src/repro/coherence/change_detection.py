"""Inter-frame change detection: which voxels change between two frames.

"If a particular voxel experiences some sort of change (e.g., an object
moving into it) in the next frame, all of the pixels whose rays pass through
that voxel must be updated."

A voxel *changes* when:

* an object present in both frames moved (transform differs) — every voxel
  it may touch in **either** frame changes (the region it vacates and the
  region it enters): the voxels under its bounds that pass the primitive's
  conservative ``may_touch`` test (a ball for a sphere, a capsule for a
  cylinder), both grown by ``_MARGIN_CELLS``;
* an object appears or disappears — its voxels change;
* a light moved or changed color — shading everywhere can change, so every
  voxel changes (full invalidation; the paper's camera-cut rule, applied to
  lights).

Object identity across frames is ``Primitive.prim_id``, which animation
copies preserve.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..accel import UniformGrid
from ..scene import Scene

__all__ = ["changed_voxels", "changed_voxels_once", "scene_signature", "objects_changed"]

#: Safety margin (in fractions of a voxel edge) added around a moved object's
#: bounds and voxel boxes, covering shading-epsilon offsets at surfaces on
#: voxel boundaries.
_MARGIN_CELLS = 0.01

#: Per grid, ``{(id(prev), id(curr)): (prev, curr, voxels)}``; see
#: :func:`changed_voxels_once`.  Weakly keyed: the entries go with the grid.
_CHANGE_SETS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _lights_equal(a, b) -> bool:
    """Exact: any edit, however small, reaches the shading of every pixel."""
    return (
        np.array_equal(a.position, b.position)
        and np.array_equal(a.color, b.color)
        and a.fade_distance == b.fade_distance
        and a.fade_power == b.fade_power
    )


def objects_changed(prev: Scene, curr: Scene) -> list[tuple]:
    """Objects that differ between frames, as ``(prev_obj|None, curr_obj|None)``.

    Pairs are matched by ``prim_id``; a pair with ``None`` on one side is an
    appearance/disappearance.
    """
    prev_by_id = {o.prim_id: o for o in prev.objects}
    curr_by_id = {o.prim_id: o for o in curr.objects}
    changed: list[tuple] = []
    for pid, po in prev_by_id.items():
        co = curr_by_id.get(pid)
        if co is None:
            changed.append((po, None))
        elif not np.array_equal(po.transform.m, co.transform.m):
            changed.append((po, co))
    for pid, co in curr_by_id.items():
        if pid not in prev_by_id:
            changed.append((None, co))
    return changed


def changed_voxels(grid: UniformGrid, prev: Scene, curr: Scene) -> np.ndarray:
    """Flat ids of voxels that change between ``prev`` and ``curr``.

    Returns *all* voxel ids when a global change (light edit) forces full
    invalidation.
    """
    for la, lb in zip(prev.lights, curr.lights):
        if not _lights_equal(la, lb):
            return np.arange(grid.n_voxels, dtype=np.int64)
    if len(prev.lights) != len(curr.lights):
        return np.arange(grid.n_voxels, dtype=np.int64)
    if not np.array_equal(prev.background, curr.background) or not np.array_equal(
        prev.ambient_light, curr.ambient_light
    ):
        return np.arange(grid.n_voxels, dtype=np.int64)

    margin = float(np.min(grid.cell_size)) * _MARGIN_CELLS
    mask = np.zeros(grid.n_voxels, dtype=bool)
    for po, co in objects_changed(prev, curr):
        for obj in (po, co):
            if obj is None:
                continue
            b = obj.bounds()
            if not (np.all(np.isfinite(b.lo)) and np.all(np.isfinite(b.hi))):
                # A moving *infinite* primitive (plane) can affect rays that
                # never enter the voxelized region, which the pixel lists
                # cannot see.  The only safe answer is full invalidation.
                return np.arange(grid.n_voxels, dtype=np.int64)
            ids = grid.voxels_overlapping(b.expanded(margin))
            lo = grid.bounds.lo + grid.unflatten(ids) * grid.cell_size - margin
            mask[ids[obj.may_touch(lo, lo + grid.cell_size + 2.0 * margin)]] = True
    return np.flatnonzero(mask)


def changed_voxels_once(grid: UniformGrid, prev: Scene, curr: Scene, bound: int) -> np.ndarray:
    """:func:`changed_voxels`, once per grid and transition: a farm worker's
    renderers share its grid, so not once per block.  The key is the two
    scenes themselves (the entry holds both, so no id is recycled), since
    one grid may serve two animations; at most ``bound`` entries are kept."""
    memo = _CHANGE_SETS.setdefault(grid, {})
    key = (id(prev), id(curr))
    entry = memo.get(key)
    if entry is None:
        entry = memo.setdefault(key, (prev, curr, changed_voxels(grid, prev, curr)))
        for stale in list(memo)[: max(0, len(memo) - bound)]:
            memo.pop(stale, None)
    return entry[2]


def scene_signature(scene: Scene) -> tuple:
    """A cheap hashable summary used to assert scenes really are identical."""
    return (
        tuple(sorted((o.prim_id, o.transform.m.tobytes()) for o in scene.objects)),
        tuple((light.position.tobytes(), light.color.tobytes()) for light in scene.lights),
        scene.background.tobytes(),
        scene.ambient_light.tobytes(),
    )

"""Nearest-hit and occlusion queries over a scene's object list.

The intersector evaluates primitives against the whole ray batch as a
vectorized broadcast, one ``t``-only ``local_hit`` call per primitive type
(same-type objects stacked on a leading axis), and normals only for the rows
each object wins.  For the handful-of-quadrics scenes of the paper (the
Newton scene has 22 objects) this does far less Python-level work than a
per-ray grid walk would, which is the right trade-off in numpy; the uniform
grid's job in this system is *coherence tracking*, not hit-finding.

The **batch skip** keeps it from paying for what no ray can hit, without
changing a result: it slab-tests the batch's componentwise origin and
direction intervals against every finite object's padded AABB, and an object
no ray can reach is not evaluated, so a frame-division block pays for the
few objects it sees.
"""

from __future__ import annotations

import numpy as np

from ..geometry import MISS, Primitive, RayBatch

__all__ = ["SceneIntersector", "HitRecord", "attenuate"]

#: Most ray·object pairs one stacked ``local_hit`` call holds: a full frame stacks
#: about one object per call, a coherent frame's small batches a whole type.
_STACK_PAIRS = 2**14

#: The batch skip grows boxes by this fraction of (1 + their largest |coordinate|):
#: far more than the few ulps a computed hit can stray outside its exact AABB.
_SKIP_PAD = 1e-9


class HitRecord:
    """Result of a nearest-hit query over a batch.

    Attributes
    ----------
    t : (N,) parametric hit distance (+inf for misses)
    obj_index : (N,) index into the object list (-1 for misses)
    normals : (N, 3) geometric unit normals (zero rows for misses)
    hit : (N,) boolean mask
    """

    __slots__ = ("t", "obj_index", "normals", "hit")

    def __init__(self, t: np.ndarray, obj_index: np.ndarray, normals: np.ndarray):
        self.t = t
        self.obj_index = obj_index
        self.normals = normals
        self.hit = np.isfinite(t)


class SceneIntersector:
    """Vectorized intersector over a fixed object list.

    Parameters
    ----------
    objects:
        The scene's primitives.
    cull_bounds:
        ``True`` (default) runs the batch skip; ``False`` runs no bounds test
        at all (the no-bounds-test reference; its objects are still stacked
        by type, not called one by one).
    """

    def __init__(self, objects: list[Primitive], cull_bounds: bool = True):
        self.objects = list(objects)
        #: Running count of per-ray primitive intersection tests actually
        #: executed (skipped objects excluded).  Monotonic; readers take
        #: deltas.  The increments are O(1) integer adds on
        #: already-materialized arrays, so the counter is always on.
        self.n_primitive_tests = 0
        #: Stack key per object: its type if that overrides ``local_hit``, else its index.
        self._kind = [type(o) if type(o).local_hit is not Primitive.local_hit else i
                      for i, o in enumerate(self.objects)]
        boxes = [o.bounds() for o in self.objects] if cull_bounds else []
        rows = [i for i, b in enumerate(boxes) if np.isfinite([b.lo, b.hi]).all()]
        self._skip_rows = np.array(rows, dtype=np.int64)
        box = np.array([(boxes[i].lo, boxes[i].hi) for i in rows]).reshape(-1, 2, 3)
        pad = _SKIP_PAD * (1.0 + np.abs(box).max(axis=(1, 2))[:, None])
        self._skip_lo, self._skip_hi = box[:, 0] - pad, box[:, 1] + pad

    def _reachable(self, origins: np.ndarray, dirs: np.ndarray, max_dist=None) -> list[int]:
        """Indices of the objects a ray of the batch may reach (within ``max_dist``).

        At ``t >= 0`` every ray lies in ``[o_min + t d_min, o_max + t d_max]``,
        so an object whose box that interval box never overlaps would miss
        every ray.  Infinite objects are always in, everything when a bound
        is not finite (a NaN row).
        """
        reach = np.ones(len(self.objects), dtype=bool)
        if not (self._skip_rows.size and origins.shape[0]):
            return list(range(len(self.objects)))
        o_min, o_max = origins.min(axis=0), origins.max(axis=0)
        d_min, d_max = dirs.min(axis=0), dirs.max(axis=0)
        t_max = np.inf if max_dist is None else max_dist.max()
        if not (np.isfinite([o_min, o_max, d_min, d_max]).all() and t_max >= 0.0):
            return list(range(len(self.objects)))
        lo, hi = self._skip_lo, self._skip_hi
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_hi = (hi - o_min) / d_min  # where o_min + t d_min crosses hi
            t_lo = (lo - o_max) / d_max  # where o_max + t d_max crosses lo
        # A positive component leaves the hi side and enters the lo side at
        # those t; a negative one does the opposite; a zero one never moves.
        enter = np.maximum(np.where(d_max > 0, t_lo, 0.0), np.where(d_min < 0, t_hi, 0.0))
        leave = np.minimum(np.where(d_min > 0, t_hi, np.inf), np.where(d_max < 0, t_lo, np.inf))
        still = ((d_min != 0) | (o_min <= hi)) & ((d_max != 0) | (o_max >= lo))
        ok = (enter.max(axis=1) <= np.minimum(leave.min(axis=1), t_max)) & still.all(axis=1)
        reach[self._skip_rows] = ok
        return np.flatnonzero(reach).tolist()

    def _local_t(self, idxs, origins, dirs, keep=None) -> np.ndarray:
        """``t`` of the objects ``idxs`` over the whole batch, ``(len(idxs), N)``.

        Each object maps the batch into its frame with its own matmul, the
        bits ``Primitive.intersect`` computes; objects of a type that
        overrides ``local_hit`` then share calls of at most ``_STACK_PAIRS``
        ray·object pairs.  ``keep`` receives each object's local rays.
        """
        n = origins.shape[0]
        t = np.empty((len(idxs), n))
        groups: dict = {}
        for pos, idx in enumerate(idxs):
            groups.setdefault(self._kind[idx], []).append(pos)
        per = max(1, _STACK_PAIRS // max(n, 1))
        for group in groups.values():
            for c in range(0, len(group), per):
                chunk = [idxs[pos] for pos in group[c : c + per]]
                local = [self.objects[idx].local_rays(origins, dirs) for idx in chunk]
                lo, ld = local[0] if len(chunk) == 1 else (np.stack(a) for a in zip(*local))
                t[group[c : c + per]] = self.objects[chunk[0]].local_hit(lo, ld)
                if keep is not None:
                    keep.update(zip(chunk, local))
        return t

    def nearest(self, batch: RayBatch) -> HitRecord:
        """Closest intersection per ray.

        The reachable objects' ``t`` rows merge by first-index ``argmin``,
        the strict ``<`` of an object-order scan: ties go to the lowest
        index.  Normals come last, per winning object on the rows it won,
        from the local rays its ``t`` was computed on.
        """
        n = len(batch)
        origins, dirs = batch.origins, batch.dirs
        best_t = np.full(n, MISS)
        best_obj = np.full(n, -1, dtype=np.int64)
        best_n = np.zeros((n, 3), dtype=np.float64)
        idxs = self._reachable(origins, dirs)
        local: dict = {}
        if idxs:
            t = self._local_t(idxs, origins, dirs, local)
            self.n_primitive_tests += t.size
            first = t.argmin(axis=0)
            t_min = t[first, np.arange(n)]
            closer = t_min < best_t
            best_t = np.where(closer, t_min, best_t)
            best_obj = np.where(closer, np.asarray(idxs)[first], best_obj)
        for idx in np.unique(best_obj[best_obj >= 0]).tolist():
            won = np.flatnonzero(best_obj == idx)
            lo, ld = local[idx]
            obj = self.objects[idx]
            best_n[won] = obj.world_normals(obj.local_intersect(lo[won], ld[won])[1])
        return HitRecord(best_t, best_obj, best_n)

    def occlusion(self, idxs, origins, dirs, max_dist, eps: float = 1e-6):
        """Shadow-blocking events of the objects ``idxs`` over the whole batch.

        Returns ``(opaque, events)``: the rays an opaque object blocks, and
        ``(index, transmission, mask)`` per transmissive object that blocks
        a ray, in ``idxs`` order.  One ``t``-only pass; no bounds test.
        """
        t = self._local_t(idxs, origins, dirs)
        self.n_primitive_tests += t.size
        blocking = np.isfinite(t) & (t > eps) & (t < max_dist - eps)
        mats = [self.objects[i].material for i in idxs]
        see = [m is not None and m.finish.is_transmissive for m in mats]
        events = [(i, m.finish.transmission, b) for i, m, s, b in zip(idxs, mats, see, blocking) if s]
        return blocking[~np.array(see, dtype=bool)].any(axis=0), [e for e in events if e[2].any()]

    def shadow_attenuation(
        self,
        origins: np.ndarray,
        dirs: np.ndarray,
        max_dist: np.ndarray,
        eps: float = 1e-6,
    ) -> np.ndarray:
        """Light transmission along shadow segments, in [0, 1] per ray.

        Opaque occluders block completely (0); transmissive occluders filter
        the light by their finish's ``transmission`` (one factor per occluding
        object, the usual POV-style approximation of filtered shadows),
        multiplied in object order.
        """
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        max_dist = np.asarray(max_dist, dtype=np.float64)
        atten = np.ones(origins.shape[0], dtype=np.float64)
        idxs = self._reachable(origins, dirs, max_dist)
        if idxs:
            attenuate(atten, *self.occlusion(idxs, origins, dirs, max_dist, eps))
        return atten


def attenuate(atten: np.ndarray, opaque, events) -> np.ndarray:
    """Filter ``atten`` in place by occlusion events, in the order given."""
    for _, factor, rows in events:
        atten[rows] *= factor
    atten[opaque] = 0.0
    return atten

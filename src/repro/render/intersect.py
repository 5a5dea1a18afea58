"""Nearest-hit and occlusion queries over a scene's object list.

The intersector evaluates each primitive against the whole ray batch as a
vectorized broadcast.  For the handful-of-quadrics scenes of the paper (the
Newton scene has 22 objects) this does far less Python-level work than a
per-ray grid walk would, which is the right trade-off in numpy; the uniform
grid's job in this system is *coherence tracking*, not hit-finding.

Two bounds tests, neither of which changes a result, keep it from paying
for what no ray can hit.  The **batch skip** slab-tests the batch's
componentwise origin and direction intervals against every finite object's
padded AABB: an object no ray can reach is not evaluated, so a
frame-division block pays for the few objects it sees.  The **per-ray
cull** slab-tests objects whose ``intersect_cost_hint`` says the primitive
is expensive (meshes) ray by ray, and prunes by the best hit so far.
"""

from __future__ import annotations

import numpy as np

from ..geometry import MISS, Primitive, RayBatch
from ..rmath import ray_aabb_intersect

__all__ = ["SceneIntersector", "HitRecord"]

#: A slab test costs roughly one sphere test, so only primitives at least
#: this many times more expensive are worth pre-testing.
_CULL_COST_THRESHOLD = 4.0

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
        ``True`` forces per-ray AABB pre-tests on every finite object,
        ``False`` disables every bounds test, the batch skip included (the
        reference); ``None`` (default) pre-tests ray by ray only objects
        whose ``intersect_cost_hint`` says the primitive test is expensive
        enough to be worth saving (meshes, mainly).
    """

    def __init__(self, objects: list[Primitive], cull_bounds: bool | None = None):
        self.objects = list(objects)
        #: Running count of per-ray primitive intersection tests actually
        #: executed (culled rays and skipped objects excluded).  Monotonic;
        #: readers take deltas.  The increments are O(1) integer adds on
        #: already-materialized arrays, so the counter is always on.
        self.n_primitive_tests = 0
        self._box_lo: list[np.ndarray | None] = []
        self._box_hi: list[np.ndarray | None] = []
        self._cull: list[bool] = []
        for obj in self.objects:
            b = obj.bounds()
            finite = bool(np.all(np.isfinite(b.lo)) and np.all(np.isfinite(b.hi)))
            self._box_lo.append(b.lo if finite else None)
            self._box_hi.append(b.hi if finite else None)
            if cull_bounds is None:
                cull = finite and obj.intersect_cost_hint >= _CULL_COST_THRESHOLD
            else:
                cull = finite and bool(cull_bounds)
            self._cull.append(cull)
        self.cull_bounds = any(self._cull)
        skip = cull_bounds is not False  # False: the reference, no bounds test at all
        rows = [i for i, lo in enumerate(self._box_lo) if lo is not None and skip]
        self._skip_rows = np.array(rows, dtype=np.int64)
        box = np.array([(self._box_lo[i], self._box_hi[i]) for i in rows]).reshape(-1, 2, 3)
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

    def nearest(self, batch: RayBatch) -> HitRecord:
        """Closest intersection per ray."""
        n = len(batch)
        best_t = np.full(n, MISS)
        best_obj = np.full(n, -1, dtype=np.int64)
        best_n = np.zeros((n, 3), dtype=np.float64)
        inv = batch.inv_dirs if self.cull_bounds else None
        rows = np.arange(n)
        for idx in self._reachable(batch.origins, batch.dirs):
            obj = self.objects[idx]
            lo = self._box_lo[idx]
            if self._cull[idx]:
                box_hit, t_enter, _ = ray_aabb_intersect(
                    batch.origins, inv, lo, self._box_hi[idx], t_max=best_t
                )
                sel = box_hit & (t_enter < best_t)
                if not np.any(sel):
                    continue
                t_sub, n_sub = obj.intersect(batch.origins[sel], batch.dirs[sel])
                self.n_primitive_tests += t_sub.size
                sub_rows = rows[sel]
                closer = t_sub < best_t[sub_rows]
                if np.any(closer):
                    upd = sub_rows[closer]
                    best_t[upd] = t_sub[closer]
                    best_obj[upd] = idx
                    best_n[upd] = n_sub[closer]
            else:
                t, nrm = obj.intersect(batch.origins, batch.dirs)
                self.n_primitive_tests += t.size
                closer = t < best_t
                if np.any(closer):
                    best_t = np.where(closer, t, best_t)
                    best_obj = np.where(closer, idx, best_obj)
                    best_n = np.where(closer[:, None], nrm, best_n)
        return HitRecord(best_t, best_obj, best_n)

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
        object, the usual POV-style approximation of filtered shadows).
        """
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        max_dist = np.asarray(max_dist, dtype=np.float64)
        n = origins.shape[0]
        atten = np.ones(n, dtype=np.float64)
        if self.cull_bounds:
            with np.errstate(divide="ignore"):
                inv = 1.0 / dirs
        rows = np.arange(n)
        for idx in self._reachable(origins, dirs, max_dist):
            obj = self.objects[idx]
            lo = self._box_lo[idx]
            if self._cull[idx]:
                # Fully shadowed rays cannot get darker; skip them too.
                live = atten > 0.0
                box_hit, _, _ = ray_aabb_intersect(
                    origins, inv, lo, self._box_hi[idx], t_max=max_dist
                )
                sel = box_hit & live
                if not np.any(sel):
                    continue
                t, _ = obj.intersect(origins[sel], dirs[sel])
                self.n_primitive_tests += t.size
                blocking_sub = np.isfinite(t) & (t > eps) & (t < max_dist[sel] - eps)
                if not np.any(blocking_sub):
                    continue
                target = rows[sel][blocking_sub]
                if obj.material is not None and obj.material.finish.is_transmissive:
                    atten[target] *= obj.material.finish.transmission
                else:
                    atten[target] = 0.0
            else:
                t, _ = obj.intersect(origins, dirs)
                self.n_primitive_tests += t.size
                blocking = np.isfinite(t) & (t > eps) & (t < max_dist - eps)
                if not np.any(blocking):
                    continue
                if obj.material is not None and obj.material.finish.is_transmissive:
                    atten = np.where(
                        blocking, atten * obj.material.finish.transmission, atten
                    )
                else:
                    atten = np.where(blocking, 0.0, atten)
        return atten

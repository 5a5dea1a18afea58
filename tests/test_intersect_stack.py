"""Stacked intersection kernel vs the per-object loop it replaced.

``SceneIntersector.nearest`` and ``shadow_attenuation`` run one ``t``-only
pass per primitive type and compute normals only where a ray lands.  The
per-object loop they replaced lives on here as the oracle: every query must
agree with it bit for bit on ``t``, ``obj_index``, normals, attenuation and
the ``n_primitive_tests`` delta.

Mutation-checked: each of these changes to ``render/intersect.py`` makes
this module fail — ties going to the last index of a stacked run
(``argmin`` on the reversed stack), transmissive factors multiplied in
reversed object order, a winner's normals computed from world→local rays
recomputed on its row subset instead of the full-batch ones, and a lone
winning row not padded to two before its normal matmul.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import RenderRequest, render
from repro.geometry import MISS, Box, Cylinder, Plane, RayBatch, Sphere
from repro.materials import Finish, Material
from repro.render import SceneIntersector
from repro.render.intersect import HitRecord
from repro.rmath import Transform, normalize

# -- the oracle: one ``Primitive.intersect`` call per object --------------


def looped_nearest(inter: SceneIntersector, batch: RayBatch) -> tuple[HitRecord, int]:
    n = len(batch)
    best_t = np.full(n, MISS)
    best_obj = np.full(n, -1, dtype=np.int64)
    best_n = np.zeros((n, 3), dtype=np.float64)
    tests = 0
    for idx in inter._reachable(batch.origins, batch.dirs):
        t, nrm = inter.objects[idx].intersect(batch.origins, batch.dirs)
        tests += t.size
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_obj = np.where(closer, idx, best_obj)
        best_n = np.where(closer[:, None], nrm, best_n)
    return HitRecord(best_t, best_obj, best_n), tests


def _factor(obj):
    mat = obj.material
    return mat.finish.transmission if mat is not None and mat.finish.is_transmissive else None


def looped_shadow(inter: SceneIntersector, origins, dirs, max_dist, eps=1e-6):
    n = origins.shape[0]
    atten = np.ones(n, dtype=np.float64)
    tests = 0
    for idx in inter._reachable(origins, dirs, max_dist):
        obj = inter.objects[idx]
        t, _ = obj.intersect(origins, dirs)
        tests += t.size
        target = np.isfinite(t) & (t > eps) & (t < max_dist - eps)
        f = _factor(obj)
        if f is None:
            atten[target] = 0.0
        else:
            atten[target] *= f
    return atten, tests


# -- seeded random worlds -------------------------------------------------


def _world(seed: int) -> list:
    """Every primitive type, transmissive panes with distinct factors, and
    coincident duplicates so that exact ``t`` ties happen."""
    rng = np.random.default_rng(seed)

    def p():
        return rng.uniform(-4, 4, 3)

    objs = [Plane.from_normal((0, 1, 0), -5.0)]
    objs += [Sphere.at(p(), rng.uniform(0.2, 1.0)) for _ in range(6)]
    objs += [Cylinder.from_endpoints(p(), p(), rng.uniform(0.1, 0.5)) for _ in range(8)]
    # Boxes have no stacked ``local_hit``: the intersector calls them one by one.
    objs += [Box.from_corners(c, c + rng.uniform(0.3, 1.5, 3)) for c in (p() for _ in range(7))]
    for obj in objs:
        f = rng.uniform(0.05, 0.95)
        obj.material = Material(finish=Finish(transmission=f)) if rng.random() < 0.4 else Material.matte((1, 1, 1))
    # Filters on one line: shadow rays along it cross several in a row.
    panes = [Sphere.at((0.0, 0.0, z), 0.9) for z in (-2.5, 0.0, 2.5)]
    panes += [Cylinder.from_endpoints((-1, -1, z), (1, 1, z), 0.8) for z in (-1.2, 1.2)]
    for pane in panes:
        pane.material = Material(finish=Finish(transmission=rng.uniform(0.05, 0.95)))
    objs += panes
    for dup in (1, 8, 9, 19, len(objs) - 1):
        objs.insert(int(rng.integers(0, len(objs))), copy.copy(objs[dup]))
    return objs


def _rays(rng, n: int):
    origins = rng.uniform(-6, 6, (n, 3))
    origins[: n // 3, :2] = rng.uniform(-0.5, 0.5, (n // 3, 2))  # down the pane line
    origins[: n // 3, 2] = -8.0
    targets = rng.uniform(-4, 4, (n, 3))
    targets[: n // 3] = rng.uniform(-0.7, 0.7, (n // 3, 3)) + [0, 0, 8.0]
    to = targets - origins
    dist = np.linalg.norm(to, axis=1)
    return origins, to / dist[:, None], dist


def _cone_rays(rng, n: int):
    """Rays from one point in a narrow cone down the pane line: the batch
    skip drops objects from such a batch at every size."""
    origins = np.tile([*rng.uniform(-0.5, 0.5, 2), -8.0], (n, 1))
    targets = np.column_stack([rng.uniform(-3.0, 3.0, (n, 2)), np.full(n, 8.0)])
    to = targets - origins
    dist = np.linalg.norm(to, axis=1)
    return origins, to / dist[:, None], dist


SIZES = [1, 300, 5000]  # one ray; below the stack cap; well above it

#: ``cull_bounds`` and ray set per case.  ``auto`` is the default (the batch
#: skip) over scattered rays, which reach nearly every object once there are
#: many; ``all`` is the batch skip over cone rays, which leave some objects of
#: every size of batch unreached, so stacks run over part of a type;
#: ``none`` runs no bounds test.
CASES = {"auto": (True, _rays), "all": (True, _cone_rays), "none": (False, _rays)}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_matches_looped(seed, n, case):
    cull, make_rays = CASES[case]
    inter = SceneIntersector(_world(seed), cull_bounds=cull)
    rng = np.random.default_rng(100 + seed)
    origins, dirs, dist = make_rays(rng, n)
    if case == "all":
        assert len(inter._reachable(origins, dirs)) < len(inter.objects)
    batch = RayBatch(origins, dirs, np.arange(n), np.ones((n, 3)))

    ref, ref_tests = looped_nearest(inter, batch)
    before = inter.n_primitive_tests
    got = inter.nearest(batch)
    assert inter.n_primitive_tests - before == ref_tests
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.obj_index, ref.obj_index)
    assert np.array_equal(got.normals, ref.normals)

    ref_atten, ref_tests = looped_shadow(inter, origins, dirs, dist)
    before = inter.n_primitive_tests
    atten = inter.shadow_attenuation(origins, dirs, dist)
    assert inter.n_primitive_tests - before == ref_tests
    assert np.array_equal(atten, ref_atten)


def test_worlds_exercise_ties_filters_and_single_row_winners():
    """The worlds above reach the cases the mutations break."""
    inter = SceneIntersector(_world(0), cull_bounds=False)
    origins, dirs, dist = _rays(np.random.default_rng(100), 300)
    rec, _ = looped_nearest(inter, RayBatch(origins, dirs, np.arange(300), np.ones((300, 3))))
    wins = np.bincount(rec.obj_index[rec.hit], minlength=len(inter.objects))
    assert (wins == 1).any()
    t = np.stack([o.intersect(origins, dirs)[0] for o in inter.objects])
    assert ((t == rec.t) & rec.hit).sum(axis=0).max() >= 2  # an exact tie for the nearest hit
    _, events = inter.occlusion(range(len(inter.objects)), origins, dirs, dist)
    per_ray = np.sum([m for _, _, m in events], axis=0)
    assert per_ray.max() >= 3  # products of three or more filters


def test_single_row_winner_of_a_tilted_object():
    """An object that wins one row of a larger batch: its normals go through
    a matmul that must round as the full-batch one did."""
    tilt = Transform.rotate_axis(np.array([1.0, 2.0, 3.0]), 0.7) @ Transform.scale(0.5, 1.0, 1.5)
    inter = SceneIntersector([Sphere.at((9, 9, 9), 0.5), Sphere(transform=tilt)])
    rng = np.random.default_rng(11)
    origins = np.array([[5.0, -4.0, 1.0], [-5.0, 5.0, -5.0]])
    for _ in range(40):
        dirs = normalize(np.array([rng.uniform(-0.3, 0.3, 3) - origins[0], [-1.0, 0.0, 0.0]]))
        batch = RayBatch(origins, dirs, np.arange(2), np.ones((2, 3)))
        ref, _ = looped_nearest(inter, batch)
        got = inter.nearest(batch)
        assert list(got.obj_index) == [1, -1]
        assert np.array_equal(got.normals, ref.normals)


def test_occlusion_events_match_per_object_masks():
    inter = SceneIntersector(_world(3))
    origins, dirs, dist = _rays(np.random.default_rng(7), 400)
    opaque, events = inter.occlusion(range(len(inter.objects)), origins, dirs, dist, 1e-6)
    want_opaque = np.zeros(400, dtype=bool)
    want = []
    for i, obj in enumerate(inter.objects):
        t, _ = obj.intersect(origins, dirs)
        blocking = np.isfinite(t) & (t > 1e-6) & (t < dist - 1e-6)
        if _factor(obj) is None:
            want_opaque |= blocking
        elif blocking.any():
            want.append((i, _factor(obj), blocking))
    assert np.array_equal(opaque, want_opaque)
    assert [(i, f) for i, f, _ in events] == [(i, f) for i, f, _ in want]
    assert all(np.array_equal(m, w) for (_, _, m), (_, _, w) in zip(events, want))


def test_newton_render_queries_match_looped(monkeypatch):
    """Every query of a 4-frame 128x96 Newton render equals the oracle.

    Re-intersecting a winner on its own rows drifted one ulp here; the
    normals must come from the full-batch local rays.
    """
    real_nearest = SceneIntersector.nearest
    real_shadow = SceneIntersector.shadow_attenuation
    calls = {"nearest": 0, "shadow": 0}

    def nearest(self, batch):
        ref, ref_tests = looped_nearest(self, batch)
        before = self.n_primitive_tests
        got = real_nearest(self, batch)
        assert self.n_primitive_tests - before == ref_tests
        assert np.array_equal(got.t, ref.t)
        assert np.array_equal(got.obj_index, ref.obj_index)
        assert np.array_equal(got.normals, ref.normals)
        calls["nearest"] += 1
        return got

    def shadow(self, origins, dirs, max_dist, eps=1e-6):
        args = [np.asarray(a, dtype=np.float64) for a in (origins, dirs, max_dist)]
        ref, ref_tests = looped_shadow(self, *args, eps)
        before = self.n_primitive_tests
        got = real_shadow(self, origins, dirs, max_dist, eps)
        assert self.n_primitive_tests - before == ref_tests
        assert np.array_equal(got, ref)
        calls["shadow"] += 1
        return got

    monkeypatch.setattr(SceneIntersector, "nearest", nearest)
    monkeypatch.setattr(SceneIntersector, "shadow_attenuation", shadow)
    render(RenderRequest(engine="animation", workload="newton", n_frames=4, width=128, height=96))
    assert calls["nearest"] >= 4 and calls["shadow"] >= 8


def test_sphere_and_cylinder_stack_over_an_object_axis():
    rng = np.random.default_rng(4)
    o = rng.uniform(-2, 2, (3, 50, 3))
    d = normalize(rng.normal(size=(3, 50, 3)))
    for prim in (Sphere(), Cylinder()):
        t = prim.local_hit(o, d)
        assert t.shape == (3, 50)
        for k in range(3):
            assert np.array_equal(t[k], prim.local_intersect(o[k], d[k])[0])

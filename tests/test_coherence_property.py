"""Property-based validation of the frame-coherence algorithm.

Hypothesis generates random little worlds — a mix of primitive types,
materials with reflection/transmission, one to two lights, and random
rigid motions on a random subset of objects — and the incremental renderer
must stay bit-exact and conservative on every one of them.  This is the
broadest net we can cast over the interaction of change detection, path
marking and the tracer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import CoherentRenderer, validate_sequence
from repro.geometry import Box, Cylinder, Plane, Sphere
from repro.lighting import PointLight
from repro.materials import Finish, Material
from repro.rmath import Transform
from repro.scene import Camera, FunctionAnimation, Scene

W, H = 24, 18

finite_coord = st.floats(-2.5, 2.5, allow_nan=False)


@st.composite
def primitive(draw, index: int):
    kind = draw(st.sampled_from(["sphere", "box", "cylinder"]))
    cx = draw(finite_coord)
    cz = draw(st.floats(-1.5, 3.0))
    finish = Finish(
        ambient=0.1,
        diffuse=draw(st.floats(0.3, 0.9)),
        specular=draw(st.floats(0.0, 0.8)),
        reflection=draw(st.sampled_from([0.0, 0.0, 0.4])),
        transmission=draw(st.sampled_from([0.0, 0.0, 0.6])),
        ior=1.4,
    )
    mat = Material(
        pigment=Material.matte(
            (draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0)))
        ).pigment,
        finish=finish,
    )
    name = f"obj{index}"
    if kind == "sphere":
        r = draw(st.floats(0.2, 0.8))
        return Sphere.at((cx, r + draw(st.floats(0.0, 1.5)), cz), r, material=mat, name=name)
    if kind == "box":
        s = draw(st.floats(0.3, 1.0))
        y0 = draw(st.floats(0.0, 1.0))
        return Box.from_corners((cx, y0, cz), (cx + s, y0 + s, cz + s), material=mat, name=name)
    r = draw(st.floats(0.05, 0.4))
    h = draw(st.floats(0.5, 1.5))
    top = (cx, h, cz)
    if draw(st.booleans()):  # tilted: a diagonal mover is what the capsule cover trims
        top = (cx + draw(st.floats(-1.2, 1.2)), h, cz + draw(st.floats(-0.8, 0.8)))
    return Cylinder.from_endpoints((cx, 0.0, cz), top, r, material=mat, name=name)


@st.composite
def world(draw, n_frames: int = 3, floor_cut: int | None = None, hold_from: int | None = None):
    """A random little world.  ``floor_cut``: the floor plane moves at that
    frame, a full invalidation mid-range.  ``hold_from``: every motion
    stops there, a held tail."""
    n_objects = draw(st.integers(2, 4))
    objects = [
        Plane.from_normal((0, 1, 0), 0.0, material=Material.matte((0.8, 0.8, 0.8)), name="floor")
    ]
    for i in range(n_objects):
        objects.append(draw(primitive(i)))
    lights = [PointLight(np.array([3.0, 7.0, -4.0]), np.ones(3))]
    if draw(st.booleans()):
        lights.append(PointLight(np.array([-4.0, 5.0, -2.0]), np.full(3, 0.4)))
    cam = Camera(position=(0, 2.2, -6.5), look_at=(0, 0.8, 0), width=W, height=H)
    scene = Scene(
        camera=cam,
        objects=objects,
        lights=lights,
        background=np.array([0.1, 0.15, 0.3]),
        max_depth=4,
    )

    # Random rigid motions on a random non-empty subset of objects: a slide
    # with a turn about the world y axis, or a swing about an off-origin
    # pivot above the object, as the cradle's strings and marbles move.
    n_movers = draw(st.integers(1, n_objects))
    motions = {}
    for i in range(n_movers):
        dx = draw(st.floats(-0.4, 0.4))
        dy = draw(st.floats(0.0, 0.3))
        rot = draw(st.floats(-0.3, 0.3))
        swing = draw(st.sampled_from([None, Transform.rotate_x, Transform.rotate_z]))
        pivot = np.array([draw(finite_coord), draw(st.floats(1.5, 3.0)), draw(st.floats(-1.5, 3.0))])

        def motion(frame, dx=dx, dy=dy, rot=rot, swing=swing, pivot=pivot):
            if hold_from is not None:
                frame = min(frame, hold_from)
            if swing is not None:
                return Transform.translate(*pivot) @ swing(rot * frame) @ Transform.translate(*-pivot)
            return Transform.rotate_y(rot * frame) @ Transform.translate(
                dx * frame, dy * abs(np.sin(frame)), 0.0
            )

        motions[f"obj{i}"] = motion
    if floor_cut is not None:
        motions["floor"] = lambda frame: Transform.translate(0.0, -0.1 * (frame >= floor_cut), 0.0)
    return FunctionAnimation(scene, n_frames=n_frames, motions=motions)


@given(anim=world())
@settings(max_examples=25, deadline=None)
def test_random_worlds_stay_exact_and_conservative(anim):
    report = validate_sequence(anim, grid_resolution=12)
    assert report.all_exact, [f.max_error for f in report.frames]
    assert report.all_conservative, [f.missed_pixels.size for f in report.frames]


@given(anim=world())
@settings(max_examples=8, deadline=None)
def test_random_worlds_shadow_coherence_exact(anim):
    from repro.render import RayTracer

    renderer = CoherentRenderer(anim, grid_resolution=12, shadow_coherence=True)
    for f in range(anim.n_frames):
        renderer.render_next()
        full, _ = RayTracer(anim.scene_at(f)).render()
        np.testing.assert_array_equal(renderer.frame_image(), full.as_image())


@given(anim=world(), k=st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=12, deadline=None)
def test_random_worlds_every_driver_of_the_kernel_agrees(anim, k):
    """Full re-render == coherent == shadow-coherent == sharded composite:
    pixels on every frame, and for the sharded trace (which, like the full
    render, traces every pixel) ray counts by kind and per pixel too."""
    from repro.render import RayTracer
    from repro.shard import render_frame_sharded

    coherent = CoherentRenderer(anim, grid_resolution=12)
    shadow = CoherentRenderer(anim, grid_resolution=12, shadow_coherence=True)
    for f in range(anim.n_frames):
        scene = anim.scene_at(f)
        full, result = RayTracer(scene).render()
        coherent.render_next()
        np.testing.assert_array_equal(coherent.frame_image(), full.as_image())
        shadow.render_next()
        np.testing.assert_array_equal(shadow.frame_image(), full.as_image())
        fb, sres, _ = render_frame_sharded(scene, shards=k)
        np.testing.assert_array_equal(fb.data, full.data)
        np.testing.assert_array_equal(sres.stats.counts, result.stats.counts)
        np.testing.assert_array_equal(sres.rays_per_pixel, result.rays_per_pixel)


class _RecordingEveryMark(CoherentRenderer):
    """The bookkeeping of the paper's Figure 3: every frame records the
    marks of every voxel its rays cross."""

    def _readable(self, frame):
        return np.ones(self.grid.n_voxels, dtype=bool)


@pytest.mark.parametrize(
    "variant", [{}, {"floor_cut": 2}, {"hold_from": 2}], ids=["moving", "cut", "held"]
)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_random_worlds_compute_as_if_every_mark_were_recorded(variant, data):
    """The readable rule drops only marks no later frame reads: each frame
    recomputes the same pixels with the same rays as a renderer recording
    every mark, with shadow coherence off and on, and its maps are never
    larger."""
    anim = data.draw(world(n_frames=5, **variant))
    for shadow in (False, True):
        lean = CoherentRenderer(anim, grid_resolution=12, shadow_coherence=shadow)
        every = _RecordingEveryMark(anim, grid_resolution=12, shadow_coherence=shadow)
        for f in range(anim.n_frames):
            got, want = lean.render_next(), every.render_next()
            np.testing.assert_array_equal(got.computed_pixels, want.computed_pixels)
            np.testing.assert_array_equal(got.stats.counts, want.stats.counts)
            np.testing.assert_array_equal(lean.frame_image(), every.frame_image())
            assert got.map_entries <= want.map_entries
        # A frame whose later transitions are all empty, or that a full
        # invalidation follows, records nothing.
        assert lean._readable(anim.n_frames - 1) is None
        if "hold_from" in variant:
            assert all(lean._readable(f) is None for f in range(2, anim.n_frames))
        if "floor_cut" in variant:
            assert lean._readable(1) is None

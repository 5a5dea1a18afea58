"""Tests for inter-frame change detection."""

import numpy as np
import pytest

from repro.accel import UniformGrid
from repro.coherence import changed_voxels, grid_for_animation, objects_changed, scene_signature
from repro.coherence.change_detection import _MARGIN_CELLS
from repro.geometry import Cylinder, Plane, Sphere
from repro.lighting import PointLight
from repro.materials import Material
from repro.rmath import AABB, Transform, vec3
from repro.scene import Camera, Scene
from repro.scenes import newton_animation


# Shared base objects: change detection matches objects across frames by
# prim_id, so the two compared scenes must be built from the SAME primitives
# (exactly what FunctionAnimation does).
_FLOOR = Plane.from_normal((0, 1, 0), 0.0, material=Material.matte((1, 1, 1)), name="floor")
_BALL = Sphere.at((0, 1, 0), 0.5, material=Material.matte((1, 0, 0)), name="ball")


def _scene(ball_x=0.0, light_pos=(0, 5, -5), extra=None):
    cam = Camera(position=(0, 1, -5), look_at=(0, 1, 0), width=8, height=8)
    objects = [
        _FLOOR,
        _BALL if ball_x == 0.0 else _BALL.moved_by(Transform.translate(ball_x, 0, 0)),
    ]
    if extra is not None:
        objects.append(extra)
    return Scene(
        camera=cam,
        objects=objects,
        lights=[PointLight(np.asarray(light_pos, dtype=float), np.ones(3))],
    )


def _grid(res=8):
    return UniformGrid(AABB(vec3(-4, -1, -4), vec3(4, 4, 4)), res)


def test_identical_scenes_no_changes():
    a, b = _scene(), _scene()
    assert changed_voxels(_grid(), a, b).size == 0
    assert objects_changed(a, b) == []


def test_moved_object_detected():
    a, b = _scene(0.0), _scene(1.0)
    pairs = objects_changed(a, b)
    assert len(pairs) == 1
    po, co = pairs[0]
    assert po.name == "ball" and co.name == "ball"


def _solid_sample(obj, n=33):
    """World points densely filling ``obj``'s solid, its surface included."""
    u = np.linspace(-1.0, 1.0, n)
    pts = np.stack(np.meshgrid(u, u, u, indexing="ij"), axis=-1).reshape(-1, 3)
    if isinstance(obj, Cylinder):
        pts[:, 1] = 0.5 * (pts[:, 1] + 1.0)  # the axis runs y = 0..1
        radial = np.hypot(pts[:, 0], pts[:, 2])
        side = pts[radial > 0.5]
        side[:, [0, 2]] /= radial[radial > 0.5, None]
        pts = np.concatenate([pts[radial <= 1.0], side])
    else:
        norm = np.linalg.norm(pts, axis=1)
        pts = np.concatenate([pts[norm <= 1.0], pts[norm > 0.5] / norm[norm > 0.5, None]])
    return obj.transform.apply_points(pts)


def _assert_exact_cover(grid, obj, motion):
    """Voxels holding a dense sample of the solid in both poses are a
    subset of the change set, which is a subset of the voxels of the poses'
    AABBs (grown by the detector's margin, as a sample point on a voxel face
    floors into the voxel beyond)."""
    moved = obj.moved_by(motion)
    light = [PointLight(np.array([0.0, 5.0, -5.0]), np.ones(3))]
    cam = Camera(position=(0, 1, -5), look_at=(0, 1, 0), width=8, height=8)
    got = set(changed_voxels(grid, Scene(cam, [obj], light), Scene(cam, [moved], light)).tolist())
    solid, boxed = set(), set()
    margin = _MARGIN_CELLS * float(np.min(grid.cell_size))
    for pose in (obj, moved):
        pts = _solid_sample(pose)
        assert grid.bounds.contains_point(pts).all()
        solid |= set(grid.flatten(grid.cell_of_points(pts)).tolist())
        boxed |= set(grid.voxels_overlapping(pose.bounds().expanded(margin)).tolist())
    assert solid <= got <= boxed
    return got, boxed


def test_changed_voxels_cover_old_and_new_positions():
    got, boxed = _assert_exact_cover(_grid(24), _BALL, Transform.translate(2.0, 0, 0))
    # At 1/3-unit voxels, a ball of radius 0.5 leaves its box's corners.
    assert len(got) < len(boxed)


def test_changed_voxels_cover_a_tilted_cylinder():
    """A string swinging about its top, as the cradle's do: the change set
    follows the diagonal, far inside its AABB voxels."""
    string = Cylinder.from_endpoints((1, 3.5, 0.3), (-0.5, 0.5, -0.2), 0.05, name="string")
    pivot = (1.0, 3.5, 0.3)
    swing = (Transform.translate(*pivot) @ Transform.rotate_z(0.4) @ Transform.rotate_x(-0.2)
             @ Transform.translate(*(-np.asarray(pivot))))
    got, boxed = _assert_exact_cover(_grid(24), string, swing)
    assert len(got) < 0.5 * len(boxed)


_SHEAR = np.eye(4)
_SHEAR[0, 1], _SHEAR[2, 0] = 0.7, 0.4


@pytest.mark.parametrize("kind", [Sphere, Cylinder])
@pytest.mark.parametrize(
    "placement",
    [Transform.scale(0.3, 1.2, 0.6), Transform(_SHEAR) @ Transform.scale(0.5)],
    ids=["scaled", "sheared"],
)
def test_changed_voxels_cover_distorted_solids(kind, placement):
    """Not similarity-placed: a sphere's ball and a cylinder's capsule take
    the largest stretch of the placement, and stay conservative."""
    obj = kind(transform=Transform.translate(0.5, 1.0, -0.5) @ Transform.rotate_y(0.5) @ placement)
    _assert_exact_cover(_grid(24), obj, Transform.rotate_z(0.3) @ Transform.translate(0.4, 0.2, 0))


def test_newton_gate_change_sets_keep_only_touched_voxels():
    """The canonical gate animation (Newton, 12 frames, grid 24): the
    bounding-box cover dirtied 5,876 voxels over its 11 transitions."""
    anim = newton_animation(n_frames=12, width=128, height=96)
    grid = grid_for_animation(anim, 24)
    total = sum(changed_voxels(grid, anim.scene_at(f - 1), anim.scene_at(f)).size
                for f in range(1, 12))
    assert 0 < total <= 3500


def test_changed_voxels_bounded():
    """A small moved object must not dirty the whole grid."""
    g = _grid()
    vox = changed_voxels(g, _scene(0.0), _scene(0.5))
    assert 0 < vox.size < g.n_voxels // 4


def test_added_object_detected():
    extra = Sphere.at((2, 1, 2), 0.3, material=Material.matte((0, 1, 0)), name="new")
    a = _scene()
    b = _scene(extra=extra)
    pairs = objects_changed(a, b)
    assert len(pairs) == 1
    assert pairs[0][0] is None and pairs[0][1].name == "new"
    vox = changed_voxels(_grid(), a, b)
    assert vox.size > 0


def test_removed_object_detected():
    extra = Sphere.at((2, 1, 2), 0.3, material=Material.matte((0, 1, 0)), name="old")
    a = _scene(extra=extra)
    b = _scene()
    pairs = objects_changed(a, b)
    assert pairs[0][1] is None


def test_light_change_invalidates_everything():
    g = _grid()
    a = _scene(light_pos=(0, 5, -5))
    b = _scene(light_pos=(1, 5, -5))
    vox = changed_voxels(g, a, b)
    assert vox.size == g.n_voxels


def test_light_count_change_invalidates_everything():
    g = _grid()
    a = _scene()
    b = _scene()
    b.add_light(PointLight(np.array([9.0, 9, 9]), np.ones(3)))
    assert changed_voxels(g, a, b).size == g.n_voxels


def test_background_change_invalidates_everything():
    g = _grid()
    a = _scene()
    b = _scene()
    b.background = np.array([1.0, 0, 0])
    assert changed_voxels(g, a, b).size == g.n_voxels


def test_scene_signature_stable_and_sensitive():
    assert scene_signature(_scene()) == scene_signature(_scene())
    assert scene_signature(_scene(0.0)) != scene_signature(_scene(1.0))


def test_moved_plane_clipped_to_grid():
    """An infinite object's change footprint is clipped to the grid."""
    g = _grid()
    a = _scene()
    b = _scene()
    floor = b.object_by_name("floor")
    b.objects[0] = floor.moved_by(Transform.translate(0, 0.5, 0))
    vox = changed_voxels(g, a, b)
    assert 0 < vox.size <= g.n_voxels

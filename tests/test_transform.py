"""Tests for affine transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rmath import AABB, Transform, vec3

angle = st.floats(-np.pi, np.pi, allow_nan=False)
coord = st.floats(-20, 20, allow_nan=False)


def test_identity():
    t = Transform.identity()
    assert t.is_identity()
    p = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(t.apply_points(p), p)


def test_translate_points_not_vectors():
    t = Transform.translate(1, 2, 3)
    p = np.array([[0.0, 0.0, 0.0]])
    np.testing.assert_allclose(t.apply_points(p), [[1, 2, 3]])
    np.testing.assert_allclose(t.apply_vectors(p + 1.0), [[1, 1, 1]])


def test_scale():
    t = Transform.scale(2, 3, 4)
    np.testing.assert_allclose(t.apply_points(np.array([[1.0, 1, 1]])), [[2, 3, 4]])


def test_scale_zero_rejected():
    with pytest.raises(ValueError):
        Transform.scale(0.0)


def test_rotations_quarter_turn():
    p = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(
        Transform.rotate_z(np.pi / 2).apply_points(p), [[0, 1, 0]], atol=1e-12
    )
    np.testing.assert_allclose(
        Transform.rotate_y(np.pi / 2).apply_points(p), [[0, 0, -1]], atol=1e-12
    )
    py = np.array([[0.0, 1.0, 0.0]])
    np.testing.assert_allclose(
        Transform.rotate_x(np.pi / 2).apply_points(py), [[0, 0, 1]], atol=1e-12
    )


@given(angle, st.tuples(coord, coord, coord).filter(lambda a: np.linalg.norm(a) > 1e-3))
@settings(max_examples=60)
def test_rotate_axis_preserves_lengths(theta, axis):
    t = Transform.rotate_axis(np.asarray(axis), theta)
    p = np.array([[1.0, 2.0, 3.0]])
    q = t.apply_points(p)
    assert np.linalg.norm(q) == pytest.approx(np.linalg.norm(p), rel=1e-9)


def test_rotate_axis_matches_rotate_z():
    a = Transform.rotate_axis(np.array([0, 0, 1.0]), 0.7)
    b = Transform.rotate_z(0.7)
    np.testing.assert_allclose(a.m, b.m, atol=1e-12)


def test_rotate_axis_zero_rejected():
    with pytest.raises(ValueError):
        Transform.rotate_axis(np.zeros(3), 1.0)


def test_composition_order():
    # (a @ b)(p) == a(b(p))
    a = Transform.translate(1, 0, 0)
    b = Transform.scale(2)
    p = np.array([[1.0, 1.0, 1.0]])
    np.testing.assert_allclose((a @ b).apply_points(p), a.apply_points(b.apply_points(p)))


def test_then_is_reverse_composition():
    a = Transform.scale(2)
    b = Transform.translate(1, 0, 0)
    p = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(a.then(b).apply_points(p), [[3, 0, 0]])


@given(angle, coord, coord, coord)
@settings(max_examples=60)
def test_inverse_roundtrip(theta, x, y, z):
    t = Transform.translate(x, y, z) @ Transform.rotate_y(theta) @ Transform.scale(1.5)
    p = np.array([[0.3, -0.7, 2.0]])
    np.testing.assert_allclose(t.inv_points(t.apply_points(p)), p, atol=1e-9)
    np.testing.assert_allclose(t.inverse().apply_points(t.apply_points(p)), p, atol=1e-9)


def test_normals_under_nonuniform_scale():
    """Normals must use the inverse-transpose: squashing a surface in y
    makes a y-facing normal *longer*-biased toward y, not shorter."""
    t = Transform.scale(1, 0.5, 1)
    # A 45-degree surface normal in the xy-plane.
    n = np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2)
    tn = t.apply_normals(n)
    tn = tn / np.linalg.norm(tn)
    # Tangent (1, -1, 0) maps to (1, -0.5, 0); normal must stay orthogonal.
    tangent = t.apply_vectors(np.array([[1.0, -1.0, 0.0]]))
    assert abs(float(np.dot(tn[0], tangent[0]))) < 1e-12


def test_apply_aabb_rotation():
    box = AABB(vec3(-1, -1, -1), vec3(1, 1, 1))
    t = Transform.rotate_z(np.pi / 4)
    rotated = t.apply_aabb(box)
    s = np.sqrt(2)
    np.testing.assert_allclose(rotated.lo[:2], [-s, -s], atol=1e-12)
    np.testing.assert_allclose(rotated.hi[:2], [s, s], atol=1e-12)


def test_apply_aabb_infinite_returns_infinite():
    box = AABB(vec3(-np.inf, 0, -np.inf), vec3(np.inf, 1, np.inf))
    out = Transform.rotate_x(0.3).apply_aabb(box)
    assert np.all(np.isinf(out.lo)) and np.all(np.isinf(out.hi))


def test_bad_matrix_rejected():
    with pytest.raises(ValueError):
        Transform(np.eye(3))


def _random_composition(rng) -> Transform:
    """A seeded chain of translate / rotate / scale factors joined with ``@``."""
    t = Transform.identity()
    for _ in range(int(rng.integers(1, 6))):
        kind = rng.integers(4)
        if kind == 0:
            step = Transform.translate(*rng.uniform(-5, 5, 3))
        elif kind == 1:
            step = Transform.rotate_axis(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        elif kind == 2:
            step = Transform.scale(*rng.uniform(0.2, 3.0, 3))
        else:
            step = Transform.rotate_x(rng.uniform(-np.pi, np.pi))
        t = t @ step
    return t


@pytest.mark.parametrize("seed", range(40))
def test_lazy_inverse_is_bit_identical_to_eager(seed):
    """The inverse, the normal matrix and the identity flag are computed on
    first use from the same ``m`` by the same ``np.linalg.inv``: every
    derived quantity equals the eager computation bit for bit."""
    rng = np.random.default_rng(seed)
    t = _random_composition(rng)
    inv = np.linalg.inv(t.m)
    p, n = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    np.testing.assert_array_equal(t.inv_points(p), p @ inv[:3, :3].T + inv[:3, 3])
    np.testing.assert_array_equal(t.inv_vectors(p), p @ inv[:3, :3].T)
    np.testing.assert_array_equal(t.inv, inv)
    normal_m = inv[:3, :3].T.copy()
    np.testing.assert_array_equal(t.normal_m, normal_m)
    np.testing.assert_array_equal(t.apply_normals(n), n @ normal_m.T)
    np.testing.assert_array_equal(t.inverse().m, inv)
    np.testing.assert_array_equal(t.inverse().inv, np.linalg.inv(inv))
    assert t.is_identity() == bool(np.allclose(t.m, np.eye(4), rtol=0.0, atol=1e-12))


def test_identity_flag_keeps_an_absolute_tolerance():
    assert (Transform.scale(1.0 + 1e-13) @ Transform.translate(1e-13, 0, 0)).is_identity()
    assert not Transform.scale(0.99999).is_identity()
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(4)
        m[0, 3] = bad
        assert not Transform(m).is_identity()


def test_pickle_before_first_inverse_round_trips():
    import pickle

    t = _random_composition(np.random.default_rng(99))
    back = pickle.loads(pickle.dumps(t))  # nothing derived is computed yet
    np.testing.assert_array_equal(back.m, t.m)
    np.testing.assert_array_equal(back.inv, np.linalg.inv(t.m))
    np.testing.assert_array_equal(back.normal_m, t.normal_m)
    assert back.is_identity() == t.is_identity()


def test_sweeping_an_animation_inverts_nothing(monkeypatch):
    """Scene builds compose transforms and bound them; only a ray needs an
    inverse, so the grid sweep over every Newton frame calls no inv."""
    from repro.coherence import grid_for_animation
    from repro.scenes import newton_animation

    calls = []
    real = np.linalg.inv

    def counted(a):
        calls.append(1)
        return real(a)

    anim = newton_animation(n_frames=6, width=32, height=24)
    monkeypatch.setattr(np.linalg, "inv", counted)
    grid_for_animation(anim, 12)
    assert calls == []


@pytest.mark.parametrize("method", ["apply_points", "apply_vectors", "apply_normals",
                                    "inv_points", "inv_vectors"])
def test_one_row_rounds_as_in_a_batch(method):
    """A row transformed alone, or as a one-row slab of a stack, gets the
    bits it gets inside a batch (numpy's one-row matmul rounds otherwise)."""
    tf = (Transform.translate(1.5, -2.0, 0.5) @ Transform.rotate_axis(np.array([0.3, 1.0, -0.7]), 0.9)
          @ Transform.scale(0.1, 0.7, 0.2))
    rows = np.random.default_rng(5).normal(size=(200, 3)) * 3.0
    apply = getattr(tf, method)
    batch = apply(rows)
    alone = np.concatenate([apply(rows[i : i + 1]) for i in range(len(rows))])
    stacked = np.concatenate([apply(rows[None, i : i + 1])[0] for i in range(len(rows))])
    np.testing.assert_array_equal(alone, batch)
    np.testing.assert_array_equal(stacked, batch)

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relhpe import (EulerAngles, Rotation, SE3Pose, apply_anchor, compose,
                    euler_from_rotation, geodesic_deg, inverse,
                    normalize_to_anchor, relative, rotation_from_euler)
from relhpe.errors import DomainError, EmptyInput, FrameMismatch
from relhpe.geometry import (as_matrix_many, axis_angle_many, canonical_many,
                             compose_many, euler_deg_many, geodesic_deg_many,
                             inverse_many, multiply_many, rotate_many,
                             rotation_from_euler_many)

from conftest import random_pose, random_rotation, yaw_pose


def geodesic_trace_deg(a: Rotation, b: Rotation) -> float:
    """Independent oracle: arccos((trace(Ra^T Rb) - 1) / 2)."""
    m = a.as_matrix().T @ b.as_matrix()
    c = np.clip((np.trace(m) - 1.0) / 2.0, -1.0, 1.0)
    return math.degrees(math.acos(c))


def assert_pose_close(a: SE3Pose, b: SE3Pose, tol=1e-9):
    assert geodesic_deg(a.rotation, b.rotation) < tol
    assert np.linalg.norm(a.translation - b.translation) < tol


class TestRotation:
    def test_canonical_sign(self):
        r = Rotation(-0.5, 0.5, 0.5, 0.5)
        assert r.w == 0.5 and r.x == -0.5

    def test_canonical_sign_zero_w(self):
        r = Rotation(0.0, -1.0, 0.0, 0.0)
        assert r.x == 1.0

    @pytest.mark.parametrize("q", [(0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0),
                                   (1.0, math.inf, 0.0, 0.0), (1e200, 1e200, 0.0, 0.0)])
    def test_zero_or_non_finite_norm_rejected(self, q):
        with pytest.raises(DomainError):
            Rotation(*q)

    def test_sign_flip_same_matrix(self, rng):
        for _ in range(100):
            q = rng.normal(size=4)
            a = Rotation(*q)
            b = Rotation(*(-q))
            assert np.allclose(a.as_matrix(), b.as_matrix(), atol=1e-12)

    def test_unit_norm_after_ops(self, rng):
        for _ in range(200):
            r = random_rotation(rng) * random_rotation(rng)
            assert abs(np.linalg.norm(r.quat) - 1.0) < 1e-9

    def test_matrix_orthonormal(self, rng):
        for _ in range(200):
            m = random_rotation(rng).as_matrix()
            assert np.allclose(m.T @ m, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(m) - 1.0) < 1e-9

    def test_matrix_round_trip(self, rng):
        for _ in range(500):
            r = random_rotation(rng)
            assert geodesic_deg(Rotation.from_matrix(r.as_matrix()), r) < 1e-9

    def test_from_matrix_all_branches(self):
        # near-180-degree rotations about each axis hit the non-trace branches
        for axis in (np.eye(3)):
            r = Rotation.from_axis_angle(axis, math.radians(179.5))
            assert geodesic_deg(Rotation.from_matrix(r.as_matrix()), r) < 1e-9

    def test_numpy_components_stored_as_floats(self, rng):
        # same values numpy scalar arithmetic gives, held as Python floats
        for _ in range(200):
            w, x, y, z = rng.normal(size=4)
            r = Rotation(w, x, y, z)
            n = math.sqrt(w * w + x * x + y * y + z * z)
            sign = 1.0 if w >= 0.0 else -1.0
            assert all(type(c) is float for c in (r.w, r.x, r.y, r.z))
            assert (r.w, r.x, r.y, r.z) == (sign * w / n, sign * x / n,
                                            sign * y / n, sign * z / n)
        unit = Rotation(*np.array([0.5, -0.5, 0.5, -0.5]))
        assert type(unit.w) is float and unit == Rotation(w=0.5, x=-0.5, y=0.5, z=-0.5)


@pytest.mark.parametrize("t", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                               (0.0, 0.0, -math.inf)])
def test_non_finite_translation_rejected(t):
    with pytest.raises(DomainError, match="not finite"):
        SE3Pose(Rotation.identity(), t)


class TestCompose:
    def test_identity(self, rng):
        p = random_pose(rng)
        assert_pose_close(compose(p, SE3Pose.identity()), p)
        assert_pose_close(compose(SE3Pose.identity(), p), p)

    def test_same_axis_addition(self):
        assert_pose_close(compose(yaw_pose(30), yaw_pose(60)), yaw_pose(90))

    def test_inverse_round_trip(self, rng):
        for _ in range(1000):
            p = random_pose(rng)
            assert_pose_close(compose(inverse(p), p), SE3Pose.identity())
            assert_pose_close(compose(p, inverse(p)), SE3Pose.identity())

    def test_applies_b_first(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        c = compose(a, b)
        v = rng.uniform(-10, 10, 3)
        direct = a.rotation.apply(b.rotation.apply(v) + b.translation) + a.translation
        via = c.rotation.apply(v) + c.translation
        assert np.allclose(direct, via, atol=1e-9)


class TestRelative:
    def test_self_is_identity(self, rng):
        p = random_pose(rng)
        assert_pose_close(relative(p, p), SE3Pose.identity())

    def test_same_axis_difference(self):
        assert_pose_close(relative(yaw_pose(70), yaw_pose(10)), yaw_pose(60))

    def test_composition_oracle(self, rng):
        for _ in range(1000):
            q, a = random_pose(rng), random_pose(rng)
            assert_pose_close(compose(relative(q, a), a), q)

    def test_frame_mismatch(self, rng):
        with pytest.raises(FrameMismatch):
            relative(random_pose(rng, frame="rgb"), random_pose(rng, frame="depth"))


class TestApplyAnchor:
    def test_identity_rel(self, rng):
        a = random_pose(rng)
        assert_pose_close(apply_anchor(SE3Pose.identity(), a), a)

    def test_inverse_pair(self, rng):
        q, a = random_pose(rng), random_pose(rng)
        assert_pose_close(apply_anchor(relative(q, a), a), q)

    def test_anchor_perturbation_bi_invariance(self, rng):
        # perturbing the anchor by a rotation offsets the composed query
        # by exactly the perturbation angle
        for _ in range(1000):
            q, a = random_pose(rng), random_pose(rng)
            delta = random_rotation(rng)
            rel = relative(q, a)
            perturbed = SE3Pose(delta * a.rotation, a.translation, a.frame_tag)
            composed = apply_anchor(rel, perturbed)
            err = geodesic_deg(composed.rotation, q.rotation)
            expected = geodesic_deg(delta, Rotation.identity())
            assert abs(err - expected) < 1e-7


class TestNormalizeToAnchor:
    def test_single(self, rng):
        out = normalize_to_anchor([random_pose(rng)])
        assert_pose_close(out[0], SE3Pose.identity())

    def test_repeated(self, rng):
        p = random_pose(rng)
        out = normalize_to_anchor([p, p])
        assert_pose_close(out[0], SE3Pose.identity())
        assert_pose_close(out[1], SE3Pose.identity())

    def test_direct_oracle(self, rng):
        for _ in range(200):
            t1, t2 = random_pose(rng), random_pose(rng)
            out = normalize_to_anchor([t1, t2])
            assert_pose_close(out[1], compose(inverse(t1), t2))

    def test_preserves_pairwise_relatives(self, rng):
        # left-multiplying every pose by a common transform preserves the
        # pairwise displacements T_i^-1 T_j
        poses = [random_pose(rng) for _ in range(5)]
        out = normalize_to_anchor(poses)
        for i in range(5):
            for j in range(5):
                before = compose(inverse(poses[i]), poses[j])
                after = compose(inverse(out[i]), out[j])
                assert_pose_close(before, after, tol=1e-8)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            normalize_to_anchor([])


class TestGeodesic:
    def test_zero_on_equal(self, rng):
        r = random_rotation(rng)
        assert geodesic_deg(r, r) == 0.0

    def test_single_axis(self):
        assert abs(geodesic_deg(Rotation.identity(),
                                yaw_pose(90).rotation) - 90.0) < 1e-9

    def test_matches_trace_formula(self, rng):
        for _ in range(1000):
            a, b = random_rotation(rng), random_rotation(rng)
            assert abs(geodesic_deg(a, b) - geodesic_trace_deg(a, b)) < 1e-6

    def test_symmetric_and_bounded(self, rng):
        for _ in range(500):
            a, b = random_rotation(rng), random_rotation(rng)
            d = geodesic_deg(a, b)
            assert d == geodesic_deg(b, a)
            assert 0.0 <= d <= 180.0

    def test_triangle_inequality(self, rng):
        for _ in range(1000):
            a, b, c = (random_rotation(rng) for _ in range(3))
            assert geodesic_deg(a, c) <= geodesic_deg(a, b) + geodesic_deg(b, c) + 1e-7

    def test_bi_invariance(self, rng):
        for _ in range(500):
            a, b, g = (random_rotation(rng) for _ in range(3))
            d = geodesic_deg(a, b)
            assert abs(geodesic_deg(g * a, g * b) - d) < 1e-7
            assert abs(geodesic_deg(a * g, b * g) - d) < 1e-7


# Raw (w, x, y, z) rows: geodesic_deg only reads the four attributes, so a
# namedtuple can carry the non-canonical sign (-q) that Rotation would fold.
Quat = namedtuple("Quat", "w x y z")


def _unit(c):
    r = Rotation(*c)
    return Quat(r.w, r.x, r.y, r.z)


_SPECIAL = [Quat(1.0, 0.0, 0.0, 0.0), Quat(0.0, 1.0, 0.0, 0.0),
            Quat(0.0, 0.6, 0.0, -0.8), _unit((1.0, 1e-9, 0.0, 0.0)),
            _unit((1.0, 0.0, -3e-16, 0.0)), _unit((1e-9, 0.0, 1.0, 0.0)),
            _unit((2e-16, 0.3, 0.4, 0.5))]
# rounds to 180.00000000000003 deg from _SPECIAL[4] unless the kernels clamp
_NEAR_HALF_TURN = _unit((2.220446049250313e-16, 0.5, 0.6875, 0.0))
_quats = st.one_of(
    st.sampled_from(_SPECIAL),
    st.tuples(*[st.floats(-1.0, 1.0)] * 4)
    .filter(lambda c: math.fsum(v * v for v in c) > 1e-6).map(_unit))


class TestGeodesicMany:
    """The batched kernel equals the scalar oracle exactly, pair by pair."""

    @given(p=_quats, qs=st.lists(_quats, max_size=12), flip=st.booleans())
    @example(p=_SPECIAL[0], qs=[], flip=False)
    @example(p=_SPECIAL[2], qs=_SPECIAL, flip=True)
    @example(p=_SPECIAL[4], qs=[_NEAR_HALF_TURN], flip=False)
    def test_equals_scalar(self, p, qs, flip):
        qs = qs + [Quat(*(-v for v in p))] * flip
        rows = np.array(qs, dtype=float).reshape(-1, 4)
        other = rows[::-1]
        assert geodesic_deg_many(p, rows).tolist() == [geodesic_deg(p, q) for q in qs]
        assert geodesic_deg_many(rows, p).tolist() == [geodesic_deg(q, p) for q in qs]
        assert geodesic_deg_many(rows, other).tolist() == [
            geodesic_deg(a, b) for a, b in zip(qs, qs[::-1])]


class TestEuler:
    def test_identity(self):
        e = euler_from_rotation(Rotation.identity())
        assert (e.yaw, e.pitch, e.roll) == (0.0, 0.0, 0.0)
        assert not e.gimbal_lock

    def test_yaw_round_trip(self):
        e = euler_from_rotation(rotation_from_euler(EulerAngles(45, 0, 0)))
        assert abs(e.yaw - 45) < 1e-6 and abs(e.pitch) < 1e-6 and abs(e.roll) < 1e-6

    def test_random_round_trip(self, rng):
        for _ in range(10000):
            yaw = rng.uniform(-179, 179)
            pitch = rng.uniform(-85, 85)
            roll = rng.uniform(-179, 179)
            e = euler_from_rotation(rotation_from_euler(EulerAngles(yaw, pitch, roll)))
            assert abs(e.yaw - yaw) < 1e-6
            assert abs(e.pitch - pitch) < 1e-6
            assert abs(e.roll - roll) < 1e-6
            assert not e.gimbal_lock

    def test_gimbal_lock_flag(self):
        e = euler_from_rotation(rotation_from_euler(EulerAngles(30, 89.5, 10)))
        assert e.gimbal_lock
        assert abs(e.pitch - 89.5) < 0.01

    def test_ranges(self, rng):
        for _ in range(1000):
            e = euler_from_rotation(random_rotation(rng))
            assert -180 <= e.yaw <= 180
            assert -90 <= e.pitch <= 90
            assert -180 <= e.roll <= 180

    def test_convention_is_y_x_z(self):
        # R = Ry(yaw) Rx(pitch) Rz(roll), checked against explicit matrices
        yaw, pitch, roll = 20.0, -35.0, 50.0
        a, b, c = (math.radians(v) for v in (yaw, pitch, roll))
        ry = np.array([[math.cos(a), 0, math.sin(a)],
                       [0, 1, 0],
                       [-math.sin(a), 0, math.cos(a)]])
        rx = np.array([[1, 0, 0],
                       [0, math.cos(b), -math.sin(b)],
                       [0, math.sin(b), math.cos(b)]])
        rz = np.array([[math.cos(c), -math.sin(c), 0],
                       [math.sin(c), math.cos(c), 0],
                       [0, 0, 1]])
        expected = ry @ rx @ rz
        got = rotation_from_euler(EulerAngles(yaw, pitch, roll)).as_matrix()
        assert np.allclose(got, expected, atol=1e-12)


# Raw rows for the normalize-and-sign rule: unnormalized, already unit (kept
# as is), within 1e-12 of unit, and w = 0 or -0.0 with either sign first.
_RAW_SPECIAL = [Quat(1.0, 0.0, 0.0, 0.0), Quat(-1.0, 0.0, 0.0, 0.0),
                Quat(1.0 + 5e-13, 0.0, 0.0, 0.0), Quat(0.0, -0.6, 0.0, 0.8),
                Quat(-0.0, 0.0, -1.0, 0.0), Quat(0.0, 0.0, 0.0, -2.0),
                Quat(-0.5, 0.5, -0.5, 0.5), Quat(3.0, -4.0, 0.0, 0.0)]
_raw_quats = st.one_of(
    st.sampled_from(_RAW_SPECIAL),
    st.tuples(*[st.floats(-10.0, 10.0)] * 4)
    .filter(lambda c: math.fsum(v * v for v in c) > 1e-6).map(lambda c: Quat(*c)))
# unit quaternions with either sign: rows a batch may hold before canonical
_signed_quats = st.tuples(_quats, st.booleans()).map(
    lambda qf: Quat(*(-v for v in qf[0])) if qf[1] else qf[0])
_vectors = st.tuples(*[st.floats(-500.0, 500.0)] * 3)


def _rows(qs):
    return np.array(qs, dtype=float).reshape(-1, 4)


def _pose(q, t):
    return SE3Pose(Rotation(*q), np.array(t, dtype=float))


def _as_tuple(r):
    return (r.w, r.x, r.y, r.z)


class TestBatchedHelpers:
    """Each batched helper equals its scalar exactly, row by row."""

    @given(qs=st.lists(_raw_quats, max_size=12))
    @example(qs=[])
    @example(qs=_RAW_SPECIAL)
    def test_canonical(self, qs):
        assert canonical_many(_rows(qs)).tolist() == [
            list(_as_tuple(Rotation(*q))) for q in qs]

    @given(pairs=st.lists(st.tuples(_signed_quats, _signed_quats), max_size=12))
    @example(pairs=[])
    @example(pairs=[(q, Quat(*(-v for v in q))) for q in _SPECIAL])
    def test_multiply(self, pairs):
        a, b = _rows([p for p, _ in pairs]), _rows([q for _, q in pairs])
        assert multiply_many(a, b).tolist() == [
            list(_as_tuple(Rotation.__mul__(p, q))) for p, q in pairs]

    @given(rows=st.lists(st.tuples(_signed_quats, _vectors), max_size=12))
    @example(rows=[])
    @example(rows=[(q, (1.0, -2.0, 3.0)) for q in _SPECIAL])
    def test_matrix_and_rotate(self, rows):
        q = _rows([r for r, _ in rows])
        v = np.array([t for _, t in rows], dtype=float).reshape(-1, 3)
        mats = [Rotation.as_matrix(r) for r, _ in rows]
        assert as_matrix_many(q).tolist() == [m.tolist() for m in mats]
        assert rotate_many(q, v).tolist() == [
            (m @ np.array(t, dtype=float)).tolist() for m, (_, t) in zip(mats, rows)]

    @given(rows=st.lists(st.tuples(_vectors, st.floats(-7.0, 7.0)), max_size=12)
           .map(lambda rs: [r for r in rs
                            if math.fsum(v * v for v in r[0]) > 1e-6]))
    @example(rows=[])
    def test_axis_angle(self, rows):
        axes = np.array([a for a, _ in rows], dtype=float).reshape(-1, 3)
        angles = np.array([h for _, h in rows], dtype=float)
        assert axis_angle_many(axes, angles).tolist() == [
            list(_as_tuple(Rotation.from_axis_angle(a, h))) for a, h in rows]

    @given(rows=st.lists(st.tuples(*[st.one_of(
        st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 360.0, 540.0]),
        st.floats(-720.0, 720.0))] * 3), max_size=12))
    @example(rows=[])
    def test_rotation_from_euler(self, rows):
        # bytes, not ==, so a signed zero in any component counts
        expected = [_as_tuple(rotation_from_euler(EulerAngles(*r))) for r in rows]
        assert (rotation_from_euler_many(np.array(rows).reshape(-1, 3)).tobytes()
                == np.array(expected, dtype=float).reshape(-1, 4).tobytes())

    @given(rows=st.lists(st.tuples(_quats, _vectors, _quats, _vectors), max_size=10))
    @example(rows=[])
    @example(rows=[(q, (0.0, 0.0, 0.0), q, (1.0, 2.0, 3.0)) for q in _SPECIAL])
    def test_inverse_and_compose(self, rows):
        a = [_pose(qa, ta) for qa, ta, _, _ in rows]
        b = [_pose(qb, tb) for _, _, qb, tb in rows]

        def arrays(poses):
            return (_rows([_as_tuple(p.rotation) for p in poses]),
                    np.array([p.translation for p in poses]).reshape(-1, 3))

        def as_lists(quats, translations):
            return quats.tolist(), translations.tolist()

        assert as_lists(*inverse_many(arrays(a))) == as_lists(
            *arrays([inverse(p) for p in a]))
        assert as_lists(*compose_many(arrays(a), arrays(b))) == as_lists(
            *arrays([compose(p, q) for p, q in zip(a, b)]))

    @given(qs=st.lists(st.one_of(
        _signed_quats,
        # gimbal lock: |pitch| >= 89 deg takes the degenerate branch
        st.tuples(st.floats(-180.0, 180.0), st.floats(89.0, 90.0),
                  st.floats(-180.0, 180.0), st.booleans())
        .map(lambda e: _unit(_as_tuple(rotation_from_euler(
            EulerAngles(e[0], e[1] if e[3] else -e[1], e[2])))))), max_size=12))
    @example(qs=[])
    @example(qs=_SPECIAL + [Quat(*(-v for v in q)) for q in _SPECIAL])
    def test_euler(self, qs):
        expected = [euler_from_rotation(q) for q in qs]
        assert euler_deg_many(_rows(qs)).tolist() == [
            [e.yaw, e.pitch, e.roll] for e in expected]


_poses = st.tuples(_quats, _vectors).map(lambda qt: _pose(*qt))


def _close(a: SE3Pose, b: SE3Pose, tol=1e-9):
    return (geodesic_deg(a.rotation, b.rotation) < tol
            and np.allclose(a.translation, b.translation, rtol=0, atol=tol * 1e3))


class TestAlgebraicLaws:
    @given(a=_poses, b=_poses, c=_poses)
    def test_compose_associative(self, a, b, c):
        assert _close(compose(compose(a, b), c), compose(a, compose(b, c)))

    @given(query=_poses, anchor=_poses)
    def test_relative_then_apply_anchor_is_identity(self, query, anchor):
        assert _close(apply_anchor(relative(query, anchor), anchor), query)
        assert _close(relative(apply_anchor(query, anchor), anchor), query)

    @given(a=_quats, b=_quats, c=_quats)
    @example(a=_SPECIAL[4], b=_NEAR_HALF_TURN, c=_SPECIAL[0])
    def test_geodesic_symmetric_and_triangle(self, a, b, c):
        ab = geodesic_deg(a, b)
        assert ab == geodesic_deg(b, a) and 0.0 <= ab <= 180.0
        assert geodesic_deg(a, c) <= ab + geodesic_deg(b, c) + 1e-9

    @given(yaw=st.floats(-179.0, 179.0), pitch=st.floats(-88.0, 88.0),
           roll=st.floats(-179.0, 179.0))
    def test_euler_round_trip(self, yaw, pitch, roll):
        e = euler_from_rotation(rotation_from_euler(EulerAngles(yaw, pitch, roll)))
        assert not e.gimbal_lock
        assert (e.yaw, e.pitch, e.roll) == pytest.approx((yaw, pitch, roll),
                                                         rel=0, abs=1e-6)

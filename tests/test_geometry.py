import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from bitesim.geometry import (Pose, interpolate_pose, mat_to_quat_rows, pose_error, quat_conj,
                              quat_from_axis_angle, quat_mul, quat_normalize, quat_rotate,
                              quat_to_matrix, quat_to_rotvec, quat_to_rotvec_rows, slerp)
from conftest import quat_chord, random_pose
from reference import quat_from_rotvec


def scipy_rot(q):
    # scipy uses (x, y, z, w)
    return Rotation.from_quat([q[1], q[2], q[3], q[0]])


def random_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


class TestQuaternionOps:
    def test_rotate_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = random_quat(rng)
            v = rng.standard_normal(3)
            np.testing.assert_allclose(quat_rotate(q, v), scipy_rot(q).apply(v),
                                       atol=1e-12)

    def test_mul_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_quat(rng), random_quat(rng)
            ours = quat_to_matrix(quat_mul(a, b))
            ref = (scipy_rot(a) * scipy_rot(b)).as_matrix()
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_rotvec_roundtrip_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = random_quat(rng)
            ours = quat_to_rotvec(q)
            ref = scipy_rot(q).as_rotvec()
            np.testing.assert_allclose(ours, ref, atol=1e-10)
            back = quat_from_rotvec(ours)
            assert quat_chord(back, q) < 1e-9

    def test_rotvec_small_angle(self):
        v = np.array([1e-9, -2e-9, 0.5e-9])
        np.testing.assert_allclose(quat_to_rotvec(quat_from_rotvec(v)), v, rtol=1e-6)

    def test_axis_angle(self):
        q = quat_from_axis_angle(np.array([0.0, 0.0, 2.0]), np.pi / 2)
        np.testing.assert_allclose(quat_rotate(q, [1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            quat_normalize(np.zeros(4))


class TestSlerp:
    def test_endpoints(self):
        rng = np.random.default_rng(4)
        a, b = random_quat(rng), random_quat(rng)
        assert quat_chord(slerp(a, b, 0.0), a) < 1e-12
        assert quat_chord(slerp(a, b, 1.0), b) < 1e-12

    def test_unit_norm_along_path(self):
        rng = np.random.default_rng(5)
        a, b = random_quat(rng), random_quat(rng)
        for t in rng.random(1000):
            assert abs(np.linalg.norm(slerp(a, b, t)) - 1.0) < 1e-9

    def test_shorter_arc(self):
        a = np.array([1.0, 0, 0, 0])
        b = -quat_from_axis_angle(np.array([0, 0, 1.0]), 0.2)  # flipped sign
        mid = slerp(a, b, 0.5)
        angle = np.linalg.norm(quat_to_rotvec(quat_mul(mid, quat_conj(a))))
        assert angle == pytest.approx(0.1, abs=1e-9)

    def test_matches_scipy_slerp(self):
        from scipy.spatial.transform import Slerp
        rng = np.random.default_rng(6)
        a, b = random_quat(rng), random_quat(rng)
        sl = Slerp([0, 1], Rotation.concatenate([scipy_rot(a), scipy_rot(b)]))
        for t in (0.25, 0.5, 0.75):
            ref = sl(t).as_matrix()
            np.testing.assert_allclose(quat_to_matrix(slerp(a, b, t)), ref, atol=1e-9)


class TestPose:
    def test_normalizes_on_construction(self):
        p = Pose(np.zeros(3), np.array([2.0, 0, 0, 0]))
        assert abs(np.linalg.norm(p.orientation) - 1.0) < 1e-9

    def test_axes_are_rotation_columns(self):
        rng = np.random.default_rng(10)
        p = random_pose(rng)
        r = quat_to_matrix(p.orientation)
        np.testing.assert_allclose(p.x_axis, r[:, 0], atol=1e-12)
        np.testing.assert_allclose(p.y_axis, r[:, 1], atol=1e-12)
        np.testing.assert_allclose(p.z_axis, r[:, 2], atol=1e-12)

    def test_position_is_readonly(self):
        p = Pose()
        with pytest.raises(ValueError):
            p.position[0] = 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose(np.array([np.nan, 0, 0]), np.array([1.0, 0, 0, 0]))


class TestPoseError:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(11)
        p = random_pose(rng)
        assert np.linalg.norm(pose_error(p, p)) < 1e-12

    def test_translation_only(self):
        a = Pose()
        b = Pose(np.array([0.1, -0.2, 0.3]), np.array([1.0, 0, 0, 0]))
        e = pose_error(a, b)
        np.testing.assert_allclose(e[:3], [0.1, -0.2, 0.3], atol=1e-12)
        assert np.linalg.norm(e[3:]) < 1e-12

    def test_rotation_magnitude(self):
        a = Pose()
        b = Pose(np.zeros(3), quat_from_axis_angle(np.array([0, 1.0, 0]), 0.4))
        e = pose_error(a, b)
        assert np.linalg.norm(e[3:]) == pytest.approx(0.4, abs=1e-12)


class TestInterpolatePose:
    def test_midpoint_position_mean(self):
        rng = np.random.default_rng(12)
        a, b = random_pose(rng), random_pose(rng)
        mid = interpolate_pose(a, b, 0.5)
        np.testing.assert_allclose(mid.position, (a.position + b.position) / 2,
                                   atol=1e-12)


UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def quat_rows(draw, n):
    """n unit quaternions with w of either sign, some of them turns by a
    small angle (a vector part scaled by 1e-7, 1e-13 or 0)."""
    q = draw(arrays(np.float64, (n, 4), elements=UNIT))
    scale = draw(arrays(np.float64, n, elements=st.sampled_from([1.0, 1e-7, 1e-13, 0.0])))
    q[:, 1:] *= scale[:, None]
    q[np.abs(q).max(axis=1) < 1e-3, 0] = -1.0  # keeps the norm clear of underflow
    return np.array([x / np.linalg.norm(x) for x in q])


def same_rows(stacked, lone):
    """The stacked result carries, row for row, the bytes of the lone ones."""
    assert stacked.tobytes() == np.array(lone).tobytes()


class TestStackedForms:
    """The stacked forms give each row the bits of its lone call."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(quat_rows(n), quat_rows(n))))
    def test_quat_mul(self, pair):
        a, b = pair
        same_rows(quat_mul(a.T, b.T).T, [quat_mul(x, y) for x, y in zip(a, b)])
        same_rows(quat_mul(a[0], b.T).T, [quat_mul(a[0], y) for y in b])

    @settings(max_examples=60, deadline=None)
    @given(quat_rows(1), arrays(np.float64, (8, 3), elements=UNIT))
    def test_quat_rotate(self, q, v):
        same_rows(quat_rotate(q[0], v.T).T, [quat_rotate(q[0], x) for x in v])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(quat_rows))
    def test_quat_to_matrix(self, q):
        same_rows(quat_to_matrix(q.T).transpose(2, 0, 1),
                  [quat_to_matrix(x) for x in q])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(quat_rows))
    def test_mat_to_quat_rows(self, q):
        # every Shepperd branch, mixed in one stack and alone
        r = np.array([quat_to_matrix(x) for x in q])
        same_rows(mat_to_quat_rows(r), [mat_to_quat_rows(m[None])[0] for m in r])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(quat_rows))
    def test_quat_to_rotvec_rows(self, q):
        before = q.copy()
        same_rows(quat_to_rotvec_rows(q), [quat_to_rotvec(x) for x in q])
        assert q.tobytes() == before.tobytes()  # the caller's rows keep their signs

    def test_mat_to_quat_rows_inverts_quat_to_matrix(self):
        rng = np.random.default_rng(5)
        r = np.array([quat_to_matrix(random_quat(rng)) for _ in range(50)])
        q = mat_to_quat_rows(r)
        np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose([quat_to_matrix(x) for x in q], r, atol=1e-12)


POINTS = arrays(np.float64, 3, elements=st.floats(-2.0, 2.0))
TOL = dict(rtol=0.0, atol=1e-12)


class TestAlgebra:
    """The quaternion and Pose algebra, to a tolerance."""

    @settings(max_examples=100, deadline=None)
    @given(quat_rows(3), POINTS)
    def test_composition(self, q, v):
        a, b, c = q
        ab = quat_mul(a, b)
        assert abs(np.linalg.norm(ab) - 1.0) < 1e-12
        np.testing.assert_allclose(quat_mul(ab, c), quat_mul(a, quat_mul(b, c)), **TOL)
        np.testing.assert_allclose(quat_rotate(ab, v), quat_rotate(a, quat_rotate(b, v)), **TOL)
        np.testing.assert_allclose(quat_to_matrix(ab), quat_to_matrix(a) @ quat_to_matrix(b),
                                   **TOL)

    @settings(max_examples=100, deadline=None)
    @given(quat_rows(2), POINTS, POINTS, POINTS)
    def test_pose_composition_and_inverse(self, q, p, r, x):
        def apply(pose, point):
            return pose.position + quat_rotate(pose.orientation, point)

        outer, inner = Pose(p, q[0]), Pose(r, q[1])
        composed = Pose(apply(outer, inner.position),
                        quat_mul(outer.orientation, inner.orientation))
        np.testing.assert_allclose(apply(composed, x), apply(outer, apply(inner, x)), **TOL)
        inverse = Pose(-quat_rotate(quat_conj(outer.orientation), outer.position),
                       quat_conj(outer.orientation))
        np.testing.assert_allclose(apply(inverse, apply(outer, x)), x, **TOL)
        np.testing.assert_allclose(quat_mul(outer.orientation, inverse.orientation),
                                   [1.0, 0.0, 0.0, 0.0], **TOL)
        # the error taking inner to outer undoes the one taking outer to inner
        there, back = pose_error(inner, outer), pose_error(outer, inner)
        np.testing.assert_allclose(there[:3], -back[:3], **TOL)
        if np.linalg.norm(there[3:]) < np.pi - 1e-6:  # off the double cover's seam
            np.testing.assert_allclose(there[3:], -back[3:], rtol=0.0, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(quat_rows(1), arrays(np.float64, 3, elements=st.floats(-1.8, 1.8)))
    def test_rotvec_round_trips(self, q, v):
        a = q[0]
        w = quat_to_rotvec(a)
        assert np.linalg.norm(w) <= np.pi + 1e-12
        assert quat_chord(quat_from_rotvec(w), a) < 1e-12
        # a turn by less than pi comes back as it went, to a relative tolerance
        np.testing.assert_allclose(quat_to_rotvec(quat_from_rotvec(v)), v, rtol=1e-12,
                                   atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(quat_rows(1))
    def test_matrix_round_trip(self, q):
        a = q[0]
        r = quat_to_matrix(a)
        np.testing.assert_allclose(r @ r.T, np.eye(3), **TOL)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert quat_chord(mat_to_quat_rows(r[None])[0], a) < 1e-12

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from bitesim.geometry import (Pose, interpolate_pose, pose_error, quat_angle_between,
                              quat_canonical, quat_distance, quat_from_axis_angle,
                              quat_from_rotvec, quat_mul, quat_normalize, quat_rotate,
                              quat_to_matrix, quat_to_rotvec, slerp)
from conftest import random_pose


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
            assert quat_distance(back, q) < 1e-9

    def test_rotvec_small_angle(self):
        v = np.array([1e-9, -2e-9, 0.5e-9])
        np.testing.assert_allclose(quat_to_rotvec(quat_from_rotvec(v)), v, rtol=1e-6)

    def test_axis_angle(self):
        q = quat_from_axis_angle(np.array([0.0, 0.0, 2.0]), np.pi / 2)
        np.testing.assert_allclose(quat_rotate(q, [1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_canonical_nonnegative_scalar(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = random_quat(rng)
            assert quat_canonical(q)[0] >= 0
            assert quat_canonical(-q)[0] >= 0

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            quat_normalize(np.zeros(4))

    def test_angle_between(self):
        a = quat_from_axis_angle(np.array([0, 0, 1.0]), 0.3)
        b = quat_from_axis_angle(np.array([0, 0, 1.0]), 1.0)
        assert quat_angle_between(a, b) == pytest.approx(0.7, abs=1e-12)


class TestSlerp:
    def test_endpoints(self):
        rng = np.random.default_rng(4)
        a, b = random_quat(rng), random_quat(rng)
        assert quat_distance(slerp(a, b, 0.0), a) < 1e-12
        assert quat_distance(slerp(a, b, 1.0), b) < 1e-12

    def test_unit_norm_along_path(self):
        rng = np.random.default_rng(5)
        a, b = random_quat(rng), random_quat(rng)
        for t in rng.random(1000):
            assert abs(np.linalg.norm(slerp(a, b, t)) - 1.0) < 1e-9

    def test_shorter_arc(self):
        a = np.array([1.0, 0, 0, 0])
        b = -quat_from_axis_angle(np.array([0, 0, 1.0]), 0.2)  # flipped sign
        mid = slerp(a, b, 0.5)
        assert quat_angle_between(a, mid) == pytest.approx(0.1, abs=1e-9)

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

    def test_transform_point_matches_rotation_matrix(self):
        rng = np.random.default_rng(9)
        p = random_pose(rng)
        v = rng.standard_normal(3)
        np.testing.assert_allclose(p.transform_point(v),
                                   p.rotation_matrix() @ v + p.position, atol=1e-12)

    def test_axes_are_rotation_columns(self):
        rng = np.random.default_rng(10)
        p = random_pose(rng)
        r = p.rotation_matrix()
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

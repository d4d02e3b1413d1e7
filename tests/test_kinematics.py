import json

import numpy as np
import pytest

from bitesim.geometry import Pose, quat_conj, quat_mul, quat_rotate, quat_to_rotvec
from bitesim.harness import _resolve_chain
from bitesim.kinematics import (ChainModel, IkParams, JointSpec, chain_from_dict,
                                forward_kinematics, ik_damped_least_squares, jacobian,
                                joint_displacement, link_points)
from conftest import quat_chord


def finite_difference_jacobian(chain, q, h=1e-6):
    jac = np.zeros((6, chain.dof))
    for i in range(chain.dof):
        qp = np.array(q, dtype=float)
        qm = np.array(q, dtype=float)
        qp[i] += h
        qm[i] -= h
        pp = forward_kinematics(chain, qp)
        pm = forward_kinematics(chain, qm)
        jac[:3, i] = (pp.position - pm.position) / (2 * h)
        jac[3:, i] = quat_to_rotvec(
            quat_mul(pp.orientation, quat_conj(pm.orientation))) / (2 * h)
    return jac


def random_configs(chain, n, seed):
    rng = np.random.default_rng(seed)
    return chain.lower + rng.random((n, chain.dof)) * (chain.upper - chain.lower)


class TestForwardKinematics:
    def test_planar_elbow_up(self, planar_chain):
        # both links along +y after a 90 degree base rotation
        tip = forward_kinematics(planar_chain, [np.pi / 2, 0.0])
        np.testing.assert_allclose(tip.position, [0.0, 2.0, 0.0], atol=1e-12)

    def test_planar_bent(self, planar_chain):
        tip = forward_kinematics(planar_chain, [0.0, np.pi / 2])
        np.testing.assert_allclose(tip.position, [1.0, 1.0, 0.0], atol=1e-12)

    def test_planar_straight(self, planar_chain):
        tip = forward_kinematics(planar_chain, [0.0, 0.0])
        np.testing.assert_allclose(tip.position, [2.0, 0.0, 0.0], atol=1e-12)

    def test_home_pose_deterministic(self, chain7):
        a = forward_kinematics(chain7, chain7.home)
        b = forward_kinematics(chain7, chain7.home)
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.orientation, b.orientation)
        assert np.all(np.isfinite(a.position))

    def test_dimension_mismatch(self, chain7):
        with pytest.raises(ValueError):
            forward_kinematics(chain7, np.zeros(6))

    def test_wrist_zero_matches_bare_chain_plus_fixed_offset(self, chain7, chain9):
        # the relative tool transform at wrist zero is a constant
        rng = np.random.default_rng(3)
        offsets = []
        for q_arm in random_configs(chain7, 10, 4):
            tip7 = forward_kinematics(chain7, q_arm)
            tip9 = forward_kinematics(chain9, np.concatenate([q_arm, [0.0, 0.0]]))
            q7_inv = quat_conj(tip7.orientation)
            offsets.append((quat_rotate(q7_inv, tip9.position - tip7.position),
                            quat_mul(q7_inv, tip9.orientation)))
        first_p, first_q = offsets[0]
        for off_p, off_q in offsets[1:]:
            assert np.linalg.norm(off_p - first_p) < 1e-9
            assert quat_chord(off_q, first_q) < 1e-9

    def test_link_points_shape(self, chain9):
        pts = link_points(chain9, chain9.home)
        assert pts.shape == (10, 3)


class TestJacobian:
    def test_single_revolute_twist(self):
        joints = [JointSpec(offset=Pose(), axis=np.array([0.0, 0.0, 1.0]),
                            limits=(-np.pi, np.pi))]
        tool = Pose(np.array([2.0, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
        chain = ChainModel("one", joints, tool)
        jac = jacobian(chain, [0.0])
        np.testing.assert_allclose(jac[:3, 0], [0.0, 2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(jac[3:, 0], [0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("chain_name", ["chain7", "chain9"])
    def test_matches_finite_differences(self, chain_name, request):
        chain = request.getfixturevalue(chain_name)
        worst = 0.0
        for q in random_configs(chain, 100, seed=11):
            jac = jacobian(chain, q)
            fd = finite_difference_jacobian(chain, q)
            worst = max(worst, np.abs(jac - fd).max())
        assert worst < 1e-5

    def test_locked_joint_column_keeps_geometry(self):
        joints = [
            JointSpec(offset=Pose(), axis=np.array([0.0, 0.0, 1.0]),
                      limits=(0.3, 0.3)),  # locked
            JointSpec(offset=Pose(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0])),
                      axis=np.array([0.0, 0.0, 1.0]), limits=(-np.pi, np.pi)),
        ]
        chain = ChainModel("locked", joints,
                           Pose(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0])))
        jac = jacobian(chain, [0.3, 0.1])
        assert np.linalg.norm(jac[:, 0]) > 0.5

    def test_dimension_mismatch(self, chain7):
        with pytest.raises(ValueError):
            jacobian(chain7, np.zeros(9))


class TestIk:
    def test_zero_initial_error_returns_seed(self, chain7):
        seed = chain7.home
        target = forward_kinematics(chain7, seed)
        res = ik_damped_least_squares(chain7, target, seed)
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_array_equal(res.q, np.clip(seed, chain7.lower, chain7.upper))

    def test_deterministic(self, chain7):
        target = forward_kinematics(chain7, random_configs(chain7, 1, 5)[0])
        a = ik_damped_least_squares(chain7, target, chain7.home)
        b = ik_damped_least_squares(chain7, target, chain7.home)
        assert np.array_equal(a.q, b.q)
        assert a.iterations == b.iterations
        assert a.converged == b.converged
        assert np.array_equal(a.residual, b.residual)

    def test_converged_solutions_verify(self, chain7):
        params = IkParams()
        for q_true in random_configs(chain7, 100, seed=6):
            target = forward_kinematics(chain7, q_true)
            res = ik_damped_least_squares(chain7, target, chain7.home, params)
            if not res.converged:
                continue
            assert np.all((chain7.lower <= res.q) & (res.q <= chain7.upper))
            tip = forward_kinematics(chain7, res.q)
            assert np.linalg.norm(tip.position - target.position) <= params.pos_tol
            rot_err = quat_to_rotvec(quat_mul(target.orientation,
                                              quat_conj(tip.orientation)))
            assert np.linalg.norm(rot_err) <= params.rot_tol

    def test_unreachable_target(self, chain7):
        target = Pose(np.array([10.0, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
        res = ik_damped_least_squares(chain7, target, chain7.home)
        assert not res.converged
        assert np.linalg.norm(res.residual) > 0
        assert np.all(np.isfinite(res.q))
        assert np.all((chain7.lower <= res.q) & (res.q <= chain7.upper))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IkParams(damping=0.0)
        with pytest.raises(ValueError):
            IkParams(pos_tol=-1.0)
        with pytest.raises(ValueError):
            IkParams(max_iter=-1)


class TestJointDisplacement:
    def test_identical_configs(self):
        per, mean = joint_displacement(np.ones(7), np.ones(7))
        assert np.all(per == 0) and mean == 0

    def test_uniform_offset_subset(self):
        q_a = np.zeros(9)
        q_b = np.full(9, 0.1)
        per, mean = joint_displacement(q_a[:7], q_b[:7])
        np.testing.assert_allclose(per, 0.1)
        assert mean == pytest.approx(0.1, abs=1e-15)

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(7)
        q_a, q_b = rng.standard_normal(9), rng.standard_normal(9)
        per, mean = joint_displacement(q_a[:7], q_b[:7])
        brute = sum(abs(q_a[i] - q_b[i]) for i in range(7)) / 7
        assert abs(mean - brute) < 1e-12

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            joint_displacement(np.zeros(7), np.zeros(9))


class TestChainIO:
    def test_bundled_chains(self, chain7, chain9):
        assert chain7.dof == 7 and not chain7.has_wrist
        assert chain9.dof == 9 and chain9.has_wrist

    def test_roundtrip_through_file(self, tmp_path, chain7):
        spec = {
            "name": "tiny",
            "joints": [
                {"fixed_offset": [0, 0, 0.5, 1, 0, 0, 0], "axis": [0, 0, 1],
                 "limits": [-1.0, 1.0]},
            ],
            "tool_tip": [0.2, 0, 0, 1, 0, 0, 0],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        chain = _resolve_chain(str(path))
        assert chain.dof == 1
        tip = forward_kinematics(chain, [0.0])
        np.testing.assert_allclose(tip.position, [0.2, 0, 0.5], atol=1e-12)

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            chain_from_dict({
                "joints": [{"fixed_offset": [0, 0, 0, 1, 0, 0, 0], "axis": [0, 0, 1],
                            "limits": [1.0, -1.0]}],
                "tool_tip": [0, 0, 0, 1, 0, 0, 0],
            })

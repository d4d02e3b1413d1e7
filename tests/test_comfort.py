import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from bitesim.comfort import (ComfortParams, PoseDistribution, StudyInvalidError, StudyReport,
                             _ndtr, _one_sided_less, comfort_cost, run_wrist_study,
                             sample_fork_poses)
from bitesim.geometry import Pose, quat_from_axis_angle, quat_mul
from bitesim.harness import ConfigError, build_study_inputs
from bitesim.kinematics import (ChainModel, IkParams, JointSpec,
                                ik_damped_least_squares, joint_displacement)


def small_study_inputs(count, seed=3):
    chain_with, chain_without, dist, ik_params, comfort, home = build_study_inputs(
        {"count": count, "seed": seed})
    return chain_with, chain_without, dist, ik_params, comfort, home


class TestSampleForkPoses:
    def test_exact_count(self):
        _, _, dist, _, _, _ = small_study_inputs(250)
        poses = sample_fork_poses(dist)
        assert len(poses) == 250

    def test_zero_width_bounds_pin_center(self):
        center = Pose(np.array([0.5, 0, 0.4]))
        dist = PoseDistribution(center, np.zeros((3, 2)), np.zeros((3, 2)),
                                count=20, seed=1)
        for p in sample_fork_poses(dist):
            np.testing.assert_allclose(p.position, center.position, atol=1e-15)
            np.testing.assert_allclose(p.orientation, center.orientation, atol=1e-12)

    def test_samples_within_bounds(self):
        center = Pose(np.array([0.5, 0, 0.4]))
        dist = PoseDistribution.around(center, translation=0.1,
                                       rotation=np.deg2rad(30), count=2000, seed=2)
        pts = np.array([p.position for p in sample_fork_poses(dist)])
        rel = pts - center.position
        assert np.all(np.abs(rel) <= 0.1 + 1e-12)
        assert np.abs(rel).max() > 0.09  # bounds actually explored

    def test_deterministic(self):
        _, _, dist, _, _, _ = small_study_inputs(50)
        a = sample_fork_poses(dist)
        b = sample_fork_poses(dist)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.position, pb.position)
            assert np.array_equal(pa.orientation, pb.orientation)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            PoseDistribution(Pose(), np.zeros((3, 2)), np.zeros((3, 2)), count=0)

    @settings(max_examples=40, deadline=None)
    @given(position=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           orientation=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
               lambda q: np.linalg.norm(q) > 0.1),
           translation=st.lists(st.tuples(st.floats(-0.2, 0.2), st.sampled_from(
               [0.0, 0.01, 0.2])), min_size=3, max_size=3),
           rotation=st.lists(st.tuples(st.floats(-np.pi, np.pi), st.sampled_from(
               [0.0, 1e-9, 0.5, np.pi])), min_size=3, max_size=3),
           count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_per_pose_loop(self, position, orientation, translation, rotation,
                                    count, seed):
        # (lo, width) pairs, zero widths included
        tb = [[lo, lo + width] for lo, width in translation]
        rb = [[lo, lo + width] for lo, width in rotation]
        dist = PoseDistribution(Pose(np.array(position), np.array(orientation)), tb, rb,
                                count=count, seed=seed)
        got = sample_fork_poses(dist)
        want = per_pose_samples(dist)
        assert len(got) == len(want) == count
        for g, w in zip(got, want):
            assert g.position.tobytes() == w.position.tobytes()
            assert g.orientation.tobytes() == w.orientation.tobytes()


def per_pose_samples(dist):
    """sample_fork_poses as a loop that builds one Pose per sample: the
    form the stacked sampler must match bit for bit."""
    rng = np.random.default_rng(dist.seed)
    tb = dist.translation_bounds
    rb = dist.rotation_bounds
    offsets = rng.uniform(tb[:, 0], tb[:, 1], size=(dist.count, 3))
    angles = rng.uniform(rb[:, 0], rb[:, 1], size=(dist.count, 3))
    axes = (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
    poses = []
    for off, ang in zip(offsets, angles):
        q = dist.center.orientation
        for axis, a in zip(axes, ang):
            q = quat_mul(q, quat_from_axis_angle(axis, a))
        poses.append(Pose(dist.center.position + dist.center.rotate(off), q))
    return poses


def point_chain(point):
    """One-joint chain whose joint origin and tool tip sit at `point`."""
    joints = [JointSpec(offset=Pose(np.asarray(point, dtype=float)),
                        axis=np.array([0.0, 0.0, 1.0]), limits=(-1.0, 1.0))]
    return ChainModel("point", joints, Pose())


class TestComfortCost:
    def test_zero_behind_apex(self):
        params = ComfortParams(head_position=np.array([10.0, 0, 0]),
                               axis=np.array([-1.0, 0, 0]), length=0.5)
        chain = point_chain([0.0, 0.0, 0.0])  # 10 m behind the cone span
        assert comfort_cost(chain, [0.0], params) == 0.0

    def test_on_axis_point_costs_cone_radius(self):
        half = np.deg2rad(30)
        length = 0.8
        params = ComfortParams(head_position=np.zeros(3), axis=np.array([1.0, 0, 0]),
                               half_angle=half, length=length, weight=1.0)
        chain = point_chain([length / 2, 0.0, 0.0])
        # joint origin and tool tip coincide, each on the axis
        expected = 2.0 * (length / 2) * np.tan(half)
        assert comfort_cost(chain, [0.0], params) == pytest.approx(expected, abs=1e-12)

    def test_radially_monotone(self):
        params = ComfortParams(head_position=np.zeros(3), axis=np.array([1.0, 0, 0]),
                               half_angle=np.deg2rad(30), length=0.8)
        costs = [comfort_cost(point_chain([0.4, r, 0.0]), [0.0], params)
                 for r in np.linspace(0.0, 0.4, 20)]
        assert np.all(np.diff(costs) <= 1e-12)

    def test_beyond_length_is_free(self):
        params = ComfortParams(head_position=np.zeros(3), axis=np.array([1.0, 0, 0]),
                               half_angle=np.deg2rad(30), length=0.5)
        assert comfort_cost(point_chain([0.9, 0.0, 0.0]), [0.0], params) == 0.0

    def test_stack_matches_lone_calls(self):
        chain_with, _, _, _, comfort, _ = small_study_inputs(1)
        qs = chain_with.lower + np.random.default_rng(2).random((40, 9)) * (
            chain_with.upper - chain_with.lower)
        costs = comfort_cost(chain_with, qs, comfort)
        assert costs.shape == (40,)
        assert [float(c) for c in costs] == [comfort_cost(chain_with, q, comfort) for q in qs]
        assert isinstance(comfort_cost(chain_with, qs[0], comfort), float)

    def test_invalid_half_angle(self):
        with pytest.raises(ValueError):
            ComfortParams(head_position=np.zeros(3), axis=np.array([1.0, 0, 0]),
                          half_angle=np.pi / 2)


class TestStudyConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown study key 'cout'"):
            build_study_inputs({"cout": 400})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown study key 'ik.max_itr'"):
            build_study_inputs({"count": 400, "ik": {"max_itr": 5}})
        with pytest.raises(ConfigError, match="unknown study key 'comfort.wieght'"):
            build_study_inputs({"comfort": {"wieght": 2.0}})

    def test_known_keys_accepted(self):
        _, _, dist, ik_params, _, _ = build_study_inputs(
            {"count": 5, "mouth_facing": [1.0, 0.0, 0.0], "ik": {"max_iter": 50}})
        assert dist.count == 5
        assert ik_params.max_iter == 50


class TestRunWristStudy:
    def test_identical_chains_identical_stats(self):
        chain_with, chain_without, dist, ik_params, comfort, home = small_study_inputs(40)
        rep = run_wrist_study(chain_without, chain_without, dist, ik_params, comfort,
                              home)
        assert rep.mean_displacement_with == pytest.approx(
            rep.mean_displacement_without, abs=1e-12)
        assert rep.mean_comfort_with == pytest.approx(rep.mean_comfort_without,
                                                      abs=1e-12)
        np.testing.assert_allclose(rep.per_joint_mean_with,
                                   rep.per_joint_mean_without, atol=1e-12)
        assert rep.p_displacement == 1.0  # no signed differences to rank

    def test_mini_study_matches_scripted_recomputation(self):
        chain_with, chain_without, dist, ik_params, comfort, home = small_study_inputs(10)
        rep = run_wrist_study(chain_with, chain_without, dist, ik_params, comfort, home)

        # independent re-execution of the same ten samples
        home_w = np.concatenate([home, np.zeros(chain_with.dof - len(home))])
        poses = sample_fork_poses(dist)
        # the samples table holds the sampled poses, which are read-only
        rows = np.array([np.concatenate([p.position, p.orientation]) for p in poses])
        assert rep.samples[:, 1:8].tobytes() == rows.tobytes()
        assert not any(a.flags.writeable for p in poses for a in (p.position, p.orientation))
        disp_w, disp_wo, cost_w, cost_wo = [], [], [], []
        for pose in poses:
            rw = ik_damped_least_squares(chain_with, pose, home_w, ik_params)
            rwo = ik_damped_least_squares(chain_without, pose, home, ik_params)
            if not (rw.converged and rwo.converged):
                continue
            disp_w.append(joint_displacement(rw.q[:7], home_w[:7])[1])
            disp_wo.append(joint_displacement(rwo.q, home)[1])
            cost_w.append(comfort_cost(chain_with, rw.q, comfort))
            cost_wo.append(comfort_cost(chain_without, rwo.q, comfort))

        assert rep.used_count == len(disp_w)
        assert rep.mean_displacement_with == pytest.approx(np.mean(disp_w), abs=1e-12)
        assert rep.mean_displacement_without == pytest.approx(np.mean(disp_wo), abs=1e-12)
        assert rep.mean_comfort_with == pytest.approx(np.mean(cost_w), abs=1e-12)
        assert rep.mean_comfort_without == pytest.approx(np.mean(cost_wo), abs=1e-12)
        assert rep.max_comfort_with == pytest.approx(np.max(cost_w), abs=1e-12)

    def test_exclusion_symmetry(self):
        chain_with, chain_without, dist, ik_params, comfort, home = small_study_inputs(60)
        rep = run_wrist_study(chain_with, chain_without, dist, ik_params, comfort, home)
        conv_w = rep.samples[:, 8].astype(bool)
        conv_wo = rep.samples[:, 9].astype(bool)
        used = conv_w & conv_wo
        assert used.sum() == rep.used_count
        # statistics recompute from exactly the shared converged set
        assert rep.mean_displacement_with == pytest.approx(
            rep.samples[used, 10].mean(), abs=1e-12)
        assert rep.mean_displacement_without == pytest.approx(
            rep.samples[used, 11].mean(), abs=1e-12)

    def test_comfort_nonnegative(self):
        chain_with, chain_without, dist, ik_params, comfort, home = small_study_inputs(60)
        rep = run_wrist_study(chain_with, chain_without, dist, ik_params, comfort, home)
        assert np.all(rep.samples[:, 12] >= 0)
        assert np.all(rep.samples[:, 13] >= 0)

    def test_report_json_deterministic(self):
        chain_with, chain_without, dist, ik_params, comfort, home = small_study_inputs(30)
        a = run_wrist_study(chain_with, chain_without, dist, ik_params, comfort, home)
        b = run_wrist_study(chain_with, chain_without, dist, ik_params, comfort, home)
        assert a.to_json() == b.to_json()

    def test_unreachable_targets_invalidate_study(self):
        chain_with, chain_without, _, ik_params, comfort, home = small_study_inputs(10)
        far = Pose(np.array([10.0, 0, 0]))
        dist = PoseDistribution.around(far, translation=0.01,
                                       rotation=0.01, count=10, seed=1)
        with pytest.raises(StudyInvalidError):
            run_wrist_study(chain_with, chain_without, dist, IkParams(max_iter=30),
                            comfort, home)

    def test_directional_advantage_small_sample(self):
        chain_with, chain_without, dist, ik_params, comfort, home = small_study_inputs(
            300, seed=11)
        rep = run_wrist_study(chain_with, chain_without, dist, ik_params, comfort, home)
        assert rep.mean_displacement_with < rep.mean_displacement_without
        assert rep.mean_comfort_with < rep.mean_comfort_without
        assert rep.p_displacement < 0.01
        assert rep.p_comfort < 0.01

    def test_report_dict_holds_its_fields(self):
        rep = run_wrist_study(*small_study_inputs(60))
        d = rep.to_dict()
        assert set(d) == {f.name for f in fields(StudyReport)} - {"samples"}
        for f in fields(StudyReport):
            value = getattr(rep, f.name)
            if f.name != "samples" and isinstance(value, np.ndarray):
                assert type(d[f.name]) is list and d[f.name] == value.tolist(), f.name
        assert len(d["per_joint_mean_with"]) == 7

    def test_failure_residuals_reported(self):
        chain_with, chain_without, dist, ik_params, comfort, home = small_study_inputs(
            300, seed=11)
        rep = run_wrist_study(chain_with, chain_without, dist, ik_params, comfort, home)
        d = rep.to_dict()
        for side, col in (("with", 8), ("without", 9)):
            res = d[f"failure_residuals_mm_{side}"]
            assert len(res) == int((rep.samples[:, col] == 0.0).sum())
            assert res == sorted(res)
            assert all(r >= 0.0 for r in res)
        # the fixed mount misses some poses by millimetres: infeasible, not unlucky
        assert d["failure_residuals_mm_without"]
        assert d["failure_residuals_mm_without"][-1] > 1.0

    def test_samples_csv(self, tmp_path):
        chain_with, chain_without, dist, ik_params, comfort, home = small_study_inputs(20)
        rep = run_wrist_study(chain_with, chain_without, dist, ik_params, comfort, home)
        path = tmp_path / "samples.csv"
        rep.write_samples_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("idx,px,py,pz,qw")
        assert len(lines) == 21


class TestOneSidedLess:
    """The signed-rank p-value against scipy.stats.wilcoxon as the oracle:
    the same bits on each of its branches (exact null, all sign patterns,
    normal approximation)."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 120), seed=st.integers(0, 2**32 - 1),
           shift=st.floats(-1.0, 1.0), decimals=st.sampled_from([None, 0, 1]))
    @example(n=20, seed=1, shift=-0.3, decimals=None)  # no ties, n <= 50: exact null
    @example(n=10, seed=2, shift=-0.3, decimals=0)  # ties, n <= 13: every sign pattern
    @example(n=40, seed=3, shift=0.2, decimals=1)  # ties, n > 13: normal approximation
    @example(n=90, seed=4, shift=-0.1, decimals=None)  # n > 50: normal approximation
    def test_bits_of_scipy(self, n, seed, shift, decimals):
        # rounded draws tie, and rounding to 0 drops values before ranking
        x = np.random.default_rng(seed).normal(shift, 1.0, n)
        if decimals is not None:
            x = np.round(x, decimals)
        d = x[x != 0.0]
        want = 1.0 if d.size == 0 else stats.wilcoxon(d, alternative="less").pvalue
        assert np.float64(_one_sided_less(x)).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("diff", [np.zeros(0), np.zeros(7)])
    def test_no_nonzero_difference_gives_one(self, diff):
        assert _one_sided_less(diff) == 1.0


def float_bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def around(a: float, k: int) -> np.ndarray:
    """a and the k floats on each side of it."""
    lo, hi = [a], [a]
    for _ in range(k):
        lo.append(np.nextafter(lo[-1], -np.inf))
        hi.append(np.nextafter(hi[-1], np.inf))
    return np.array(lo[:0:-1] + hi)


# where cephes ndtr switches branch: at |a| = 1 from erf to erfc, at
# sqrt 2 from erfc's 1 - erf to P/Q, at 8 sqrt 2 from P/Q to R/S, and
# near 37.68 where -x^2 passes -MAXLOG and erfc gives 0
NDTR_BRANCHES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                 math.sqrt(2.0 * 7.09782712893383996843E2))


class TestNdtr:
    """The normal cdf behind _one_sided_less against scipy.special.ndtr as
    the oracle: the same bits everywhere."""

    @pytest.mark.parametrize("a", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_special_values(self, a):
        assert float_bits(_ndtr(a)) == float_bits(ndtr(a))

    @pytest.mark.parametrize("a", [s * b for b in NDTR_BRANCHES for s in (1.0, -1.0)])
    def test_branch_points_and_their_neighbours(self, a):
        xs = around(a, 1000)
        assert float_bits([_ndtr(float(x)) for x in xs]) == float_bits(ndtr(xs))

    def test_a_grid_through_the_subnormal_tail(self):
        xs = np.linspace(-40.0, 40.0, 16_001)  # below -37.5 the cdf is subnormal
        assert float_bits([_ndtr(float(x)) for x in xs]) == float_bits(ndtr(xs))

    @settings(max_examples=500, deadline=None)
    @given(a=st.floats(allow_nan=False, allow_infinity=False))
    def test_bits_of_scipy(self, a):
        assert float_bits(_ndtr(a)) == float_bits(ndtr(a))

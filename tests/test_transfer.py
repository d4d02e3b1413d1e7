import numpy as np
import pytest

from bitesim.controller import Wrench
from bitesim.geometry import Pose, quat_conj, quat_distance, quat_mul
from bitesim.harness import mouth_frame_from_position
from bitesim.transfer import (BiteDetector, FsmState, TrajectoryPlan, TransferPhase,
                              build_fixed_pose_plan, build_transfer_plan, concat_plans,
                              detect_bite, entry_segment, interpolate,
                              linear_segment, plan_arc, step, transfer_orientation)

MOUTH = mouth_frame_from_position([0.55, 0.0, 0.45])
TARGET = Pose(MOUTH.position, transfer_orientation(MOUTH))


def no_force():
    return Wrench.zero()


class TestPlanArc:
    def test_waypoints_on_circle(self):
        arc = plan_arc(TARGET, MOUTH.z_axis, radius=0.45, duration=6.0)
        center = TARGET.position - 0.45 * np.array([0, 0, 1.0])
        for p in arc.poses:
            assert abs(np.linalg.norm(p.position - center) - 0.45) < 1e-9

    def test_final_waypoint_hits_target(self):
        arc = plan_arc(TARGET, MOUTH.z_axis)
        np.testing.assert_allclose(arc.end_pose.position, TARGET.position, atol=1e-12)
        assert quat_distance(arc.end_pose.orientation, TARGET.orientation) < 1e-12

    def test_zero_sweep_degenerates(self):
        arc = plan_arc(TARGET, MOUTH.z_axis, start_angle=0.0)
        np.testing.assert_allclose(arc.start_pose.position, arc.end_pose.position,
                                   atol=1e-12)

    def test_polyline_length_matches_analytic(self):
        arc = plan_arc(TARGET, MOUTH.z_axis, radius=0.45, start_angle=np.pi / 2,
                       duration=6.0, sample_rate=100.0)
        pts = np.array([p.position for p in arc.poses])
        poly = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        analytic = 0.45 * (np.pi / 2)
        assert abs(poly - analytic) / analytic < 1e-3

    def test_waypoint_count(self):
        arc = plan_arc(TARGET, MOUTH.z_axis, duration=6.0, sample_rate=100.0)
        assert len(arc.poses) == 601

    def test_monotonic_angles(self):
        arc = plan_arc(TARGET, MOUTH.z_axis)
        center = TARGET.position - 0.45 * np.array([0, 0, 1.0])
        angles = [np.arctan2((p.position - center) @ MOUTH.z_axis,
                             (p.position - center) @ np.array([0, 0, 1.0]))
                  for p in arc.poses]
        assert np.all(np.diff(angles) < 0)

    def test_degenerate_radius(self):
        with pytest.raises(ValueError):
            plan_arc(TARGET, MOUTH.z_axis, radius=0.0)

    def test_vertical_out_direction_rejected(self):
        with pytest.raises(ValueError):
            plan_arc(TARGET, [0.0, 0.0, 1.0])


class TestEntrySegment:
    def test_terminal_position(self):
        seg = entry_segment(TARGET, MOUTH, entry_depth=0.018, lowering=0.003)
        expected = (TARGET.position - 0.018 * MOUTH.z_axis - 0.003 * MOUTH.y_axis)
        assert np.linalg.norm(seg.end_pose.position - expected) < 1e-12

    def test_zero_depth_is_dwell(self):
        seg = entry_segment(TARGET, MOUTH, entry_depth=0.0, lowering=0.0)
        assert seg.segments[0].label == "dwell"
        for p in seg.poses:
            np.testing.assert_array_equal(p.position, TARGET.position)

    def test_entry_portion_collinear(self):
        seg = entry_segment(TARGET, MOUTH, entry_depth=0.018, lowering=0.003,
                            duration=2.0, sample_rate=200.0)
        split = 2.0 * (0.018 / 0.021)
        direction = -MOUTH.z_axis
        for t, p in zip(seg.times, seg.poses):
            if t > split:
                continue
            rel = p.position - TARGET.position
            off_axis = rel - (rel @ direction) * direction
            assert np.linalg.norm(off_axis) < 1e-12

    def test_orientation_held(self):
        seg = entry_segment(TARGET, MOUTH)
        for p in seg.poses:
            assert quat_distance(p.orientation, TARGET.orientation) < 1e-12


class TestBiteDetection:
    def test_trigger_above_threshold(self):
        det = BiteDetector(axis=MOUTH.y_axis)
        status, _ = detect_bite(det, Wrench(0.31 * MOUTH.y_axis), 0.001)
        assert status == "bitten"

    def test_trigger_on_magnitude(self):
        det = BiteDetector(axis=MOUTH.y_axis)
        status, _ = detect_bite(det, Wrench(-0.4 * MOUTH.y_axis), 0.001)
        assert status == "bitten"

    def test_timeout_after_exactly_timeout(self):
        det = BiteDetector(axis=MOUTH.y_axis, timeout=1.5)
        status = None
        ticks = 0
        while status != "timed_out":
            status, det = detect_bite(det, Wrench(0.2 * MOUTH.y_axis), 0.001)
            ticks += 1
            assert ticks <= 1501
        assert ticks == 1500

    def test_boundary_strictness(self):
        det = BiteDetector(axis=MOUTH.y_axis, threshold=0.3)
        status, _ = detect_bite(det, Wrench(0.3 * MOUTH.y_axis), 0.001)
        assert status == "waiting"


class TestInterpolate:
    def test_exact_at_waypoints(self):
        plan = build_transfer_plan(MOUTH, TARGET)
        for i in (0, 17, len(plan.poses) - 1):
            p = interpolate(plan, float(plan.times[i]))
            np.testing.assert_array_equal(p.position, plan.poses[i].position)

    def test_midpoint_of_straight_segment(self):
        a = Pose(np.array([0.0, 0, 0]), np.array([1.0, 0, 0, 0]))
        b = Pose(np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))
        seg = linear_segment(a, b, 1.0, sample_rate=1.0)
        mid = interpolate(seg, 0.5)
        np.testing.assert_allclose(mid.position, [0.5, 0, 0], atol=1e-15)

    def test_orientation_stays_unit(self):
        plan = build_transfer_plan(MOUTH, TARGET)
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, plan.duration, 1000):
            q = interpolate(plan, float(t)).orientation
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9

    def test_out_of_range(self):
        plan = build_transfer_plan(MOUTH, TARGET)
        with pytest.raises(ValueError):
            interpolate(plan, -1.0)
        with pytest.raises(ValueError):
            interpolate(plan, plan.duration + 1.0)


class TestPlanAssembly:
    def test_default_plan_duration_is_ten_seconds(self):
        plan = build_transfer_plan(MOUTH, TARGET)
        assert plan.duration == pytest.approx(10.0, abs=1e-12)
        labels = [s.label for s in plan.segments]
        assert labels == ["arc", "linear-entry", "linear-exit"]

    def test_fixed_pose_plan_labels(self):
        plan = build_fixed_pose_plan(MOUTH, TARGET)
        labels = [s.label for s in plan.segments]
        assert labels == ["arc", "dwell", "arc-return"]
        assert plan.duration == pytest.approx(10.0, abs=1e-12)

    def test_strictly_increasing_times(self):
        plan = build_transfer_plan(MOUTH, TARGET)
        assert np.all(np.diff(plan.times) > 0)

    def test_concat_rejects_empty(self):
        with pytest.raises(ValueError):
            concat_plans([])

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TrajectoryPlan(np.array([0.0, 0.0]), [Pose(), Pose()], [])


def make_fsm(plan=None, timeout=1.5):
    if plan is None:
        plan = build_transfer_plan(MOUTH, TARGET)
    det = BiteDetector(axis=MOUTH.y_axis, timeout=timeout)
    return FsmState(plan=plan, detector=det, retract_duration=6.0)


class TestFsm:
    def test_instant_scan_reaches_arc(self):
        fsm = make_fsm()
        fsm, setpoint, events = step(fsm, no_force(), 0.0, 0.001)
        assert fsm.phase == TransferPhase.APPROACH_ARC
        transitions = [(e["phase_from"], e["phase_to"]) for e in events]
        assert transitions == [("SCAN", "FACE_DETECT"), ("FACE_DETECT", "APPROACH_ARC")]

    def test_arc_exhaustion_enters_entry(self):
        fsm = make_fsm()
        fsm, _, _ = step(fsm, no_force(), 0.0, 0.001)
        fsm, _, events = step(fsm, no_force(), 6.0, 0.001)
        assert fsm.phase == TransferPhase.ENTRY
        assert events[0]["phase_from"] == "APPROACH_ARC"

    def test_bite_in_wait_exits_same_tick(self):
        fsm = make_fsm()
        fsm, _, _ = step(fsm, no_force(), 0.0, 0.001)
        fsm, _, _ = step(fsm, no_force(), 8.0, 0.001)
        assert fsm.phase == TransferPhase.BITE_WAIT
        fsm, _, events = step(fsm, Wrench(0.5 * MOUTH.y_axis), 8.001, 0.001)
        assert fsm.phase == TransferPhase.EXIT
        assert events[0]["event"] == "bite"

    def test_timeout_duration_exact(self):
        fsm = make_fsm()
        fsm, _, _ = step(fsm, no_force(), 0.0, 0.001)
        t = 8.0
        fsm, _, _ = step(fsm, no_force(), t, 0.001)
        wait_start = t
        while fsm.phase == TransferPhase.BITE_WAIT:
            t += 0.001
            fsm, _, events = step(fsm, no_force(), t, 0.001)
        assert events[0]["event"] == "timeout"
        assert abs((t - wait_start) - 1.5) <= 0.001 + 1e-12

    def test_abort_from_any_phase(self):
        fsm = make_fsm()
        fsm, _, _ = step(fsm, no_force(), 0.0, 0.001)
        fsm, setpoint, events = step(fsm, no_force(), 3.0, 0.001, abort=True)
        assert fsm.phase == TransferPhase.ABORTED
        assert events[0]["event"] == "safety_abort"
        # aborted state holds position forever
        fsm2, setpoint2, _ = step(fsm, no_force(), 4.0, 0.001, abort=True)
        assert fsm2.phase == TransferPhase.ABORTED
        np.testing.assert_array_equal(setpoint.position, setpoint2.position)

    def test_phase_monotonic_through_full_run(self):
        fsm = make_fsm()
        t = 0.0
        history = [fsm.phase]
        bite = Wrench(0.5 * MOUTH.y_axis)
        while fsm.phase != TransferPhase.DONE and t < 20.0:
            f = bite if fsm.phase == TransferPhase.BITE_WAIT else no_force()
            fsm, _, _ = step(fsm, f, t, 0.001)
            history.append(fsm.phase)
            t += 0.001
        assert fsm.phase == TransferPhase.DONE
        phases = np.array([int(p) for p in history])
        assert np.all(np.diff(phases) >= 0)

    def test_retract_replays_arc_backwards(self):
        fsm = make_fsm()
        fsm, _, _ = step(fsm, no_force(), 0.0, 0.001)
        # drive straight to the exit end: arc 6 + entry 2 (wait bitten at 8.001) + exit 2
        fsm, _, _ = step(fsm, no_force(), 8.0, 0.001)
        fsm, _, _ = step(fsm, Wrench(0.5 * MOUTH.y_axis), 8.001, 0.001)
        fsm, sp_exit_end, _ = step(fsm, no_force(), 10.001, 0.001)
        assert fsm.phase == TransferPhase.RETRACT_ARC
        plan = fsm.plan
        arc = plan.segment("arc")
        # halfway through retract equals halfway back along the arc
        fsm, sp_mid, _ = step(fsm, no_force(), 10.001 + 3.0, 0.001)
        expected = interpolate(plan, arc.t_end - 3.0 / 6.0 * (arc.t_end - arc.t_start))
        np.testing.assert_allclose(sp_mid.position, expected.position, atol=1e-9)


class TestForkFlip:
    def test_transfer_orientation_is_fixed_rotation_from_scan(self):
        # the flip+pitch is the same relative rotation for any mouth pose
        rels = []
        for pos in ([0.55, 0.0, 0.45], [0.4, 0.2, 0.5], [0.6, -0.3, 0.3]):
            m = mouth_frame_from_position(pos)
            # the fork scans the food aligned with the mouth frame
            xfer_q = transfer_orientation(m)
            rels.append(quat_mul(quat_conj(m.orientation), xfer_q))
        for rel in rels[1:]:
            assert quat_distance(rel, rels[0]) < 1e-9

    def test_transfer_points_into_mouth_pitched_up(self):
        q = transfer_orientation(MOUTH, pitch=np.deg2rad(25.0))
        fork_z = Pose(np.zeros(3), q).z_axis
        # mostly against the mouth z (inward), with an upward component
        assert fork_z @ MOUTH.z_axis < -0.8
        assert fork_z @ MOUTH.y_axis > 0.3

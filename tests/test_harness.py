import json
import multiprocessing
import os
import pickle
import signal
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitesim import harness, presets
from bitesim.controller import (ControllerState, ImpedanceParams, ReactivityGains,
                                SafetyLatch, SensorFault, phase_gains)
from bitesim.geometry import Pose
from bitesim.harness import (CSV_HEADER, ConfigError, Scenario, SuiteReport, TickLog,
                             TrialReport, build_study_inputs, export_trajectory, load_log,
                             mouth_frame_from_position, run_suite, run_trial, save_log)
from bitesim.humansim import (HEAD_MOTION_PARAMS, BiteScript, FoodAttachmentState, MouthModel,
                              load_food_presets)
from bitesim.perception import compute_offsets, food_bounding_box, synth_depth_scan
from bitesim.transfer import (BiteDetector, FsmState, Segment, TrajectoryPlan, TransferPhase,
                             plan_waypoints)

from reference import VirtualRobotState, WorldState, simulate_tick


@pytest.fixture(scope="module")
def nominal_report():
    return run_trial(Scenario.from_dict({}))


# compressed timeline for tests that only exercise classification logic:
# arc 1 s, entry 0.5 s -> wait at 1.5 s, timeout by 3.0 s
SHORT_SEGMENTS = {
    "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0},
    "horizon_s": 3.5,
    "joint_log_stride": 0,
}


def make_static_world(gains_vec=(0.0, 0.0), mouth_pos=(5.0, 0.0, 0.45),
                      stiffness=None, disturbance=None, n=4001):
    """World with the mouth far away and an optional constant disturbance."""
    mouth_frame = mouth_frame_from_position(list(mouth_pos))
    foods = load_food_presets()
    k_p = [gains_vec[0]] * 3 + [0.0] * 3
    k_i = [gains_vec[1]] * 3 + [0.0] * 3
    if stiffness is None:
        stiffness = np.array([200.0, 200, 200, 10, 10, 10])
    mass = np.array([2.0, 2, 2, 0.02, 0.02, 0.02])
    imp = ImpedanceParams(stiffness, 2 * np.sqrt(stiffness * mass))
    dist_trace = np.zeros((n, 6)) if disturbance is None else disturbance
    gains = ReactivityGains.from_vectors(k_p, k_i)
    return WorldState(
        mouth=MouthModel(center=mouth_frame),
        bite=BiteScript(refuse=True),
        attachment=FoodAttachmentState(foods["pineapple"]),
        safety=SafetyLatch(3.0),
        impedance=imp,
        gains_entry=gains,
        gains_exit=phase_gains(TransferPhase.EXIT, mouth_frame.z_axis, gains, gains),
        perturb_trace=np.zeros((n, 3)),
        disturbance_trace=dist_trace,
    ), mass


def run_ticks(robot, ctrl, fsm, world, ticks):
    """simulate_tick from tick 0; yields the robot and FSM after each tick."""
    prev = None
    for i in range(ticks):
        robot, ctrl, fsm, rec = simulate_tick(robot, ctrl, fsm, world, i, prev_setpoint=prev)
        prev = rec["setpoint"]
        yield robot, fsm


def hold_fsm(pose, phase, timeout=1e6):
    """FSM pinned in one phase holding one pose."""
    seg_label = "linear-exit" if phase in (TransferPhase.EXIT,) else "linear-entry"
    plan = TrajectoryPlan([0.0, 1e7], [pose.position] * 2, [pose.orientation] * 2,
                          [Segment(seg_label, 0.0, 1e7)])
    det = BiteDetector(axis=np.array([0.0, 0.0, 1.0]), threshold=1e6, timeout=timeout)
    return FsmState(plan=plan, detector=det, phase=phase, t_phase_start=0.0,
                    hold_pose=pose, retract_duration=0.0)


class TestMouthFrame:
    def test_faces_robot_base(self):
        m = mouth_frame_from_position([0.55, 0.0, 0.45])
        np.testing.assert_allclose(m.z_axis, [-1.0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(m.y_axis, [0, 0, 1.0], atol=1e-12)
        np.testing.assert_allclose(m.x_axis, [0, -1.0, 0], atol=1e-12)

    def test_right_handed(self):
        m = mouth_frame_from_position([0.3, 0.4, 0.5])
        np.testing.assert_allclose(np.cross(m.x_axis, m.y_axis), m.z_axis, atol=1e-12)

    def test_rejects_vertical_facing(self):
        with pytest.raises(ConfigError):
            mouth_frame_from_position([0.5, 0, 0.4], facing=[0, 0, 1.0])
        with pytest.raises(ConfigError):  # a norm whose square overflows
            mouth_frame_from_position([0.5, 0, 0.4], facing=[1e200, 1e200, 0.0])


class TestSimulateTick:
    def test_zero_stiffness_zero_force_never_moves(self):
        pose = Pose(np.array([0.3, 0.0, 0.2]))
        world, mass = make_static_world(stiffness=np.zeros(6))
        world.impedance = ImpedanceParams(np.zeros(6), np.zeros(6))
        *_, (robot, _) = run_ticks(VirtualRobotState(pose, np.zeros(6), mass),
                                   ControllerState(gains=world.gains_entry),
                                   hold_fsm(pose, TransferPhase.ENTRY), world, 200)
        np.testing.assert_array_equal(robot.pose.position, pose.position)
        assert np.all(robot.twist == 0)

    @staticmethod
    def _deflection_under_constant_force(phase, kp, ki, ticks=1500):
        pose = Pose(np.array([0.3, 0.0, 0.2]))
        n = ticks + 1
        dist = np.zeros((n, 6))
        dist[:, 0] = 1.0  # 1 N on the fork along world x (the exit axis line)
        world, mass = make_static_world(disturbance=dist, n=n)
        gains = ReactivityGains.from_vectors([kp] * 3 + [0] * 3, [ki] * 3 + [0] * 3)
        world.gains_entry = gains
        world.gains_exit = gains
        *_, (robot, _) = run_ticks(VirtualRobotState(pose, np.zeros(6), mass),
                                   ControllerState(gains=gains), hold_fsm(pose, phase),
                                   world, ticks)
        return abs(robot.pose.position[0] - pose.position[0])

    def test_entry_deflects_more_than_exit_under_same_push(self):
        entry = self._deflection_under_constant_force(TransferPhase.ENTRY, 7.0, 20.0)
        exit_ = self._deflection_under_constant_force(TransferPhase.EXIT, 2.0, 1.0)
        assert entry > exit_ > 0.0

    def test_abort_freezes_plant(self):
        pose = Pose(np.array([0.3, 0.0, 0.2]))
        n = 400
        dist = np.zeros((n, 6))
        dist[200:, 1] = 4.0  # beyond the 3 N stop
        world, mass = make_static_world(disturbance=dist, n=n)
        ticks = run_ticks(VirtualRobotState(pose, np.zeros(6), mass),
                          ControllerState(gains=world.gains_entry),
                          hold_fsm(pose, TransferPhase.ENTRY), world, n - 1)
        for i, (robot, fsm) in enumerate(ticks):
            if i == 200:
                assert fsm.phase == TransferPhase.ABORTED  # within one tick
                frozen = robot.pose.position.copy()
        assert fsm.phase == TransferPhase.ABORTED
        np.testing.assert_array_equal(robot.pose.position, frozen)
        assert np.all(robot.twist == 0)


class TestRunTrialOutcomes:
    def test_nominal_success(self, nominal_report):
        rep = nominal_report
        assert rep.outcome == "success"
        assert rep.n_ticks == 10001
        assert len(rep.log) == 10001
        assert rep.bite_time is not None

    def test_nominal_bite_timing_with_instant_ramp(self):
        rep = run_trial(Scenario.from_dict({"bite": {"ramp_s": 0.0}}))
        # wait begins at 8.0 s, scripted bite 0.5 s later
        assert rep.bite_time == pytest.approx(8.5, abs=0.001 + 1e-9)

    def test_refuse_times_out_to_bite_failure(self):
        rep = run_trial(Scenario.from_dict({"bite": {"refuse": True}}))
        assert rep.outcome == "bite_failure"
        assert rep.timeout_time == pytest.approx(9.5, abs=0.001 + 1e-9)

    def test_imprecise_classification(self):
        # full-length approach: the reactive controller keeps the off-center
        # entry gentle, so the misdetection is the only failure
        rep = run_trial(Scenario.from_dict({"mouth_error_mm": [0.0, 20.0, 0.0]}))
        assert rep.outcome == "imprecise"

    def test_within_margin_error_is_not_imprecise(self):
        rep = run_trial(Scenario.from_dict(
            {**SHORT_SEGMENTS, "mouth_error_mm": [0.0, 5.0, 0.0]}))
        assert rep.outcome == "success"

    def test_drop_on_transport_shear(self):
        # a 0.7 N shove during the approach detaches fragile food (0.5 N)
        rep = run_trial(Scenario.from_dict({
            **SHORT_SEGMENTS,
            "food": "cheesecake",
            "disturbance": {"kind": "sinusoid", "amplitude_n": 0.7, "period_s": 4.0,
                            "direction": [0.0, 1.0, 0.0]},
            "mouth": {"aperture_m": 0.2, "lateral_halfwidth_m": 0.2},
        }))
        assert rep.food_detached and not rep.food_taken_by_bite
        assert rep.outcome == "drop"

    def test_bite_takeoff_is_not_drop(self):
        # blueberry releases at 0.8 N; the 1 N bite takes it
        rep = run_trial(Scenario.from_dict({**SHORT_SEGMENTS, "food": "blueberry"}))
        assert rep.food_detached and rep.food_taken_by_bite
        assert rep.outcome == "success"

    def test_safety_abort_outcome(self):
        rep = run_trial(Scenario.from_dict({
            **SHORT_SEGMENTS,
            "disturbance": {"kind": "sinusoid", "amplitude_n": 3.5, "period_s": 3.0,
                            "direction": [0.0, 0.0, 1.0]},
        }))
        assert rep.outcome == "aborted"
        ev = [e for e in rep.events if e["event"] == "safety_abort"]
        assert len(ev) == 1

    def test_no_motion_after_abort(self):
        rep = run_trial(Scenario.from_dict({
            **SHORT_SEGMENTS,
            "disturbance": {"kind": "sinusoid", "amplitude_n": 3.5, "period_s": 3.0,
                            "direction": [0.0, 0.0, 1.0]},
        }))
        t_abort = [e for e in rep.events if e["event"] == "safety_abort"][0]["t"]
        idx = int(round(t_abort / 0.001))
        tail = rep.log.position[idx + 1:]
        assert np.all(tail == tail[0])

    def test_fixed_pose_mode(self):
        rep = run_trial(Scenario.from_dict(
            {**SHORT_SEGMENTS, "transfer_mode": "fixed_pose"}))
        assert rep.outcome == "success"
        names = [e["phase_to"] for e in rep.events]
        assert "BITE_WAIT" in names and "EXIT" in names

    def test_unknown_food_rejected(self):
        with pytest.raises(ConfigError):
            run_trial(Scenario.from_dict({"food": "pizza"}))

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict({"seed": None})

    def test_explicit_gains_beat_the_preset(self):
        sc = Scenario.from_dict({
            "entry_gains": {"k_p": [5, 5, 5, 0, 0, 0], "k_i": [9, 9, 9, 0, 0, 0]},
        })
        assert sc["entry_gains"]["k_p"] == [5, 5, 5, 0, 0, 0]
        assert sc["exit_gains"]["k_p"][2] == 2.0  # preset still fills the rest

    def test_preset_name_selects_gains(self):
        sc = Scenario.from_dict({"gain_preset": "more_reactive"})
        assert sc["entry_gains"]["k_p"] == [10.0] * 3 + [0.0] * 3
        assert sc["exit_gains"]["k_i"] == [30.0] * 3 + [0.0] * 3


class TestFinalPhase:
    def test_nominal_horizon_ends_inside_exit(self, nominal_report):
        # the bite comes at about 8.56 s, so the 10 s horizon cuts the exit
        assert nominal_report.final_phase == "EXIT"
        assert nominal_report.completed is False
        d = nominal_report.to_dict()
        assert (d["final_phase"], d["completed"]) == ("EXIT", False)
        assert nominal_report.outcome == "success"

    def test_zero_horizon_ends_in_the_approach(self):
        rep = run_trial(Scenario.from_dict({"horizon_s": 0, "joint_log_stride": 0}))
        assert rep.n_ticks == 1
        assert rep.final_phase == "APPROACH_ARC"
        assert rep.completed is False

    def test_horizon_past_the_retract_completes(self):
        rep = run_trial(Scenario.from_dict({**SHORT_SEGMENTS, "horizon_s": 4.0}))
        assert rep.final_phase == "DONE"
        assert rep.completed is True


class TestReportDicts:
    def test_trial_dict_holds_its_fields(self, nominal_report):
        d = nominal_report.to_dict()
        assert set(d) == {f.name for f in fields(TrialReport)} - {"log"}
        assert d["peak_force_components"] == list(nominal_report.peak_force_components)
        assert type(d["peak_force_components"]) is list
        assert json.loads(nominal_report.to_json()) == d

    def test_suite_dict_holds_its_fields_and_success_rates(self):
        report = run_suite({"seed": 1, "trials": [{"scenario": {"horizon_s": 0.0}}]})
        d = report.to_dict()
        assert set(d) == {f.name for f in fields(SuiteReport)} | {"success_rates"}
        assert d["success_rates"] == report.success_rates() == {"ours": 1.0}
        assert json.loads(report.to_json()) == d


# one value out of the range of its key, which a scenario rejects at load
RANGE_ERRORS = [
    {"lowpass_cutoff_hz": -5}, {"arc_radius_m": 0}, {"arc_radius_m": -0.1},
    {"bite_threshold_n": -1}, {"bite_timeout_s": -1}, {"mouth": {"aperture_m": -0.1}},
    {"scan": {"resolution_mm": 0}}, {"scan": {"noise_mm": -0.1}},
    {"entry_depth_m": 0}, {"lowering_m": -0.5}, {"safety_limit_n": 0},
    {"segments": {"arc_s": -1}}, {"segments": {"entry_s": 0}}, {"bite": {"ramp_s": -1}},
    {"virtual_mass": [2.0, 2.0, 0.0, 0.02, 0.02, 0.02]}, {"bite_timeout_s": float("inf")}]
# one value that is none of its key's choices
CHOICE_ERRORS = [{"food": "pizza"}, {"transfer_mode": "teleport"}, {"safety_mode": "nrom"},
                 {"chain": "nochain"}]
# more values out of range, listed after the others so that their cases
# keep their test ids: a trial would run with each, or stop with an
# error naming no key (the offending key comes first in its object)
MORE_RANGE_ERRORS = [
    {"disturbance": {"direction": [0, 0, 0], "kind": "sinusoid"}},
    {"disturbance": {"period_s": 0, "kind": "sinusoid"}},
    {"head_perturbation": {"period": 0, "kind": "sinusoid"}},
    {"head_perturbation": {"direction": [0, 0, 0], "kind": "sinusoid"}},
    {"disturbance": {"amplitude_n": -1, "kind": "random-walk"}},
    {"disturbance": {"sigma_n": -1, "kind": "random-walk"}},
    {"head_perturbation": {"sigma": -0.001, "kind": "random-walk"}},
    {"segments": {"scan_s": -1}}, {"bite": {"t_bite_s": -1}},
    {"mouth": {"lateral_halfwidth_m": -0.01}}, {"mouth": {"stiffness": -1}},
    {"mouth": {"damping": -1}}, {"bite": {"peak_force_n": -1}},
    {"entry_gains": {"k_p": [-1, 7, 7, 0, 0, 0]}}, {"exit_gains": {"k_i": [1, 1, 1, 0, 0, -1]}},
    {"fork_pitch_deg": float("nan")}, {"mouth_error_mm": [float("nan"), 0, 0]},
    {"mouth": {"center_position": [0.55, float("nan"), 0.45]}},
    {"impedance": {"stiffness": [-1, 200, 200, 10, 10, 10]}},
    {"impedance": {"damping": [-1, 40, 40, 1, 1, 1]}}, {"arc_start_deg": float("nan")},
    {"mouth": {"facing": [float("nan"), 0, 0]}},
    {"head_perturbation": {"direction": [1e-320, 0, 0], "kind": "sinusoid"}},
    {"disturbance": {"direction": [1e200, 0, 0], "kind": "sinusoid"}},
    {"impedance": {"damping": [0, 40, 40, 1, 1, 1]}}, {"mouth": {"facing": [0, 0, 1]}},
    {"mouth": {"center_position": [0, 0, 0.4]}}, {"mouth": {"facing": [1e200, 1e200, 0]}},
    {"segments": {"retract_s": -1}}, {"segments": {"face_detect_s": -1}},
    {"gain_preset": "fixed_pose"}, {"seed": -1}, {"horizon_s": 1e12}, {"horizon_s": 600.001},
    {"scan": {"resolution_mm": 1e-6}}, {"scan": {"resolution_mm": 0.0099}},
    {"segments": {"arc_s": 1e6}}, {"segments": {"entry_s": 1e-300}},
    {"segments": {"exit_s": 600.001}}, {"segments": {"arc_s": 0.0009}},
    {"segments": {"retract_s": 601}}, {"segments": {"scan_s": 1e300}},
    {"segments": {"face_detect_s": 600.5}},
    {"mouth_error_mm": [1e300, 0, 0]}, {"mouth_error_mm": [0, 0, -1000.5]}]
# one study value out of its key's range: each used to run a study that
# means nothing, to end as an invalid study, or to stop with an error
# naming no key
STUDY_RANGE_ERRORS = [
    {"comfort": {"length_m": -1}}, {"comfort": {"weight": float("nan")}},
    {"comfort": {"head_offset_back_m": float("nan")}}, {"ik": {"damping": float("nan")}},
    {"count": 0}, {"translation_halfwidth_m": -0.1}, {"rotation_halfwidth_deg": float("nan")},
    {"ik": {"max_iter": -1}}, {"comfort": {"half_angle_deg": 90}},
    {"mouth_position": [float("nan"), 0, 0.4]}, {"mouth_facing": [0, 0, 1]},
    {"mouth_position": [0, 0, 0.4]}, {"mouth_facing": [1e200, 1e200, 0]},
    {"seed": -1}, {"chain_with": "nochain"}, {"count": 1_000_001}, {"count": 1e12}]


class TestConfigKeys:
    @pytest.mark.parametrize("overrides", [
        {"horizon_s": [1]}, {"horizon_s": "ten"}, {"horizon_s": True}, {"horizon_s": -1},
        {"horizon_s": float("nan")}, {"mouth": 5}, {"segments": [1, 2]}, {"scan": None},
        {"mouth_error_mm": 3}, {"mouth_error_mm": [0, "1", 0]}, {"seed": "s"}, {"seed": None},
        {"gain_preset": 5}, {"bite": {"refuse": "no"}}, {"disturbance": {"kind": [1]}},
        {"joint_log_stride": -250}, {"joint_log_stride": 2.5},
        {"mouth": {"facing": [0, 0]}}, {"mouth": {"facing": "x"}},
        {"impedance": {"damping": "x"}}, {"impedance": {"damping": [1, 2]}},
        {"disturbance": {"trace": "abc", "kind": "array"}},
        {"disturbance": {"trace": [], "kind": "array"}},
        {"disturbance": {"trace": [[0.0] * 6, [0.0] * 5], "kind": "array"}},
        {"mouth_error_mm": [1, 2]}, {"mouth_error_mm": [0, 0, 0, 0]},
        {"mouth": {"center_position": [0, 0]}}, {"virtual_mass": [1, 2]},
        {"impedance": {"stiffness": [1.0] * 7}}, {"entry_gains": {"k_p": [1, 2]}},
        {"exit_gains": {"k_i": []}},
        {"disturbance": {"direction": [1, 0], "kind": "sinusoid"}},
        {"head_perturbation": {"direction": [1, 0], "kind": "sinusoid"}},
        {"head_perturbation": {"amplitude": 0.5, "kind": "sinusoid"}},
        {"head_perturbation": {"amplitude": -0.001, "kind": "random-walk"}},
        {"head_perturbation": {"amplitude": float("nan"), "kind": "sinusoid"}},
        *RANGE_ERRORS, *CHOICE_ERRORS, *MORE_RANGE_ERRORS])
    def test_value_of_another_kind_or_out_of_range(self, overrides):
        (key, value), = overrides.items()
        path = f"{key}.{next(iter(value))}" if isinstance(value, dict) else key
        with pytest.raises(ConfigError, match=f"^scenario key '{path}' must be"):
            Scenario.from_dict(overrides)

    def test_edges_of_segments_and_mouth_error(self):
        for overrides in (
                {"segments": {"arc_s": 0.001, "entry_s": 0.001, "exit_s": 0.001,
                              "retract_s": 0}},
                {"segments": {"arc_s": 0.001, "entry_s": 0.001, "exit_s": 0.001},
                 "transfer_mode": "fixed_pose"},
                {"mouth_error_mm": [1000, -1000, 1000]}):
            report = run_trial(Scenario.from_dict({"horizon_s": 0.5, "joint_log_stride": 0,
                                                   **overrides}))
            assert np.isfinite(report.mean_deviation_m), overrides
        Scenario.from_dict({"segments": dict.fromkeys(presets.SCENARIO["segments"],
                                                      presets.MAX_HORIZON_S)})

    def test_array_disturbance_needs_a_trace(self):
        with pytest.raises(ConfigError, match="'disturbance.trace' must be set"):
            Scenario.from_dict({"disturbance": {"kind": "array"}})

    @pytest.mark.parametrize("key", ["disturbance", "head_perturbation"])
    def test_unknown_kind(self, key):
        with pytest.raises(ConfigError, match=f"^scenario key '{key}.kind' must be one of"):
            Scenario.from_dict({key: {"kind": "zap"}})

    def test_scenario_checked_before_the_first_trial_runs(self, monkeypatch):
        monkeypatch.setattr(harness, "_prepare_trial", lambda scenario: pytest.fail("trial ran"))
        with pytest.raises(ConfigError, match="'disturbance.trace' must be set"):
            run_suite({"seed": 1, "trials": [{"method": "ours"},
                                             {"scenario": {"disturbance": {"kind": "array"}}}]})

    @pytest.mark.parametrize("overrides", [[1, 2], 5, "x", []])
    def test_scenario_not_an_object(self, overrides):
        with pytest.raises(ConfigError, match="^a scenario must be an object"):
            Scenario.from_dict(overrides)

    @pytest.mark.parametrize("scenario", [5, [1], None])
    def test_suite_scenario_not_an_object(self, scenario):
        with pytest.raises(ConfigError,
                           match=r"^suite key 'trials\[0\].scenario' must be an object"):
            run_suite({"seed": 1, "trials": [{"scenario": scenario}]})

    def test_kinds_accepted(self):
        Scenario.from_dict({"horizon_s": np.float32(0.5), "joint_log_stride": 10.0,
                            "seed": np.int64(7), "mouth_error_mm": (1, 0.5, 0),
                            "bite": {"refuse": np.bool_(True)}})
        Scenario.from_dict({"mouth": {"facing": None}, "impedance": {"damping": None}})
        Scenario.from_dict({"mouth": {"facing": np.array([-1.0, 0.2, 0.0])},
                            "impedance": {"damping": (40, 40, 40, 0.9, 0.9, 0.9)},
                            "disturbance": {"kind": "array", "trace": np.zeros((3, 6))}})

    @pytest.mark.parametrize("cfg", [{"repetitions": 0}, {"repetitions": -1},
                                     {"repetitions": 1.5}, {"seed": "s"}, {"name": 3},
                                     {"seed": -1}, {"repetitions": 1000},
                                     {"repetitions": 10**12}])
    def test_suite_value_of_another_kind_or_out_of_range(self, cfg):
        with pytest.raises(ConfigError, match=f"^suite key '{next(iter(cfg))}' must be"):
            run_suite({"seed": 1, **cfg, "trials": [{"method": "ours"}]})

    def test_suite_at_its_tick_bound_is_accepted(self, monkeypatch):
        # each trial counts its ticks (10,001 or 1) and the share of its
        # setup: 769 trials of 10 s, or 3,332 of none, lie within
        # presets.MAX_SUITE_TICKS; one more fails before any setup is built
        class Prepared(Exception):
            pass

        def prepared(scenario):
            raise Prepared
        monkeypatch.setattr(harness, "_prepare_trial", prepared)
        for ticks, reps in ((10_001, 769), (1, 3_332)):
            assert reps == presets.MAX_SUITE_TICKS // (ticks + presets.SUITE_SETUP_TICKS)
            suite = {"seed": 1, "trials": [{"scenario": {"horizon_s": (ticks - 1) / 1000}}]}
            with pytest.raises(Prepared):
                run_suite({**suite, "repetitions": reps})
            with pytest.raises(ConfigError, match="^suite key 'repetitions' must be few enough"):
                run_suite({**suite, "repetitions": reps + 1})

    def test_suite_counts_the_waypoints_of_long_plans(self, monkeypatch):
        # a plan is built over whole segments: a 0.5 s trial over three
        # 600 s segments holds 180,001 waypoints (11.5 MB), which count
        # for its setup in place of presets.SUITE_SETUP_TICKS, so 55 such
        # trials lie within presets.MAX_SUITE_TICKS and 56 fail before any
        # setup is built
        class Prepared(Exception):
            pass

        def prepared(scenario):
            raise Prepared
        monkeypatch.setattr(harness, "_prepare_trial", prepared)
        long_plan = {"segments": {"arc_s": 600.0, "entry_s": 600.0, "exit_s": 600.0},
                     "horizon_s": 0.5}
        suite = {"seed": 1, "trials": [{"scenario": long_plan}]}
        reps = presets.MAX_SUITE_TICKS // (501 + 180_001)
        assert reps == 55
        with pytest.raises(Prepared):
            run_suite({**suite, "repetitions": reps})
        with pytest.raises(ConfigError, match="^suite key 'repetitions' must be few enough"):
            run_suite({**suite, "repetitions": reps + 1})

    @pytest.mark.parametrize("mode", ["in_mouth", "fixed_pose"])
    @pytest.mark.parametrize("overrides", [
        {}, {"segments": {"arc_s": 0.001, "entry_s": 0.004, "exit_s": 0.0051}},
        {"segments": {"arc_s": 0.0149, "entry_s": 0.005, "exit_s": 1.234}},
        {"segments": {"arc_s": 0.0251, "entry_s": 3.0, "exit_s": 0.001}}])
    def test_setup_share_counts_every_waypoint_of_the_plan(self, mode, overrides):
        scenario = Scenario.from_dict({**overrides, "transfer_mode": mode, "horizon_s": 0.0})
        seg = scenario.raw["segments"]
        waypoints = plan_waypoints([seg["arc_s"], seg["entry_s"], seg["exit_s"]])
        assert waypoints == len(harness._prepare_trial(scenario).plan.times)
        assert harness._setup_share(scenario.raw) == presets.SUITE_SETUP_TICKS

    @pytest.mark.parametrize("study", [[], 0, False, ""])
    def test_study_not_an_object(self, study):
        with pytest.raises(ConfigError, match="^a study must be an object"):
            build_study_inputs(study)

    def test_study_value_of_another_kind(self):
        with pytest.raises(ConfigError, match="^study key 'count' must be a whole number"):
            build_study_inputs({"count": "many"})

    @pytest.mark.parametrize("study", STUDY_RANGE_ERRORS)
    def test_study_value_out_of_range(self, study):
        (key, value), = study.items()
        path = f"{key}.{next(iter(value))}" if isinstance(value, dict) else key
        with pytest.raises(ConfigError, match=f"^study key '{path}' must be"):
            build_study_inputs({"count": 60, **study})

    @pytest.mark.parametrize("name", ["SCENARIO", "SUITE", "SUITE_TRIAL", "STUDY"])
    def test_defaults_pass_their_own_walk(self, name):
        schema = getattr(presets, name)
        presets.check_keys(presets.defaults(schema), schema, name.lower())

    @pytest.mark.parametrize("key, kinds", [("disturbance", presets.DISTURBANCE_PARAMS),
                                            ("head_perturbation", HEAD_MOTION_PARAMS)])
    def test_default_parameters_of_each_kind_pass(self, key, kinds):
        for kind, params in kinds.items():
            if kind != "array":  # whose trace has no default
                Scenario.from_dict({key: {"kind": kind, **params}})

    def test_top_level_typo(self):
        with pytest.raises(ConfigError, match="unknown scenario key 'horizn_s'"):
            Scenario.from_dict({"horizn_s": 3})

    def test_nested_typo(self):
        with pytest.raises(ConfigError, match="unknown scenario key 'bite.refuze'"):
            Scenario.from_dict({"bite": {"refuze": True}})

    def test_parameter_of_another_kind(self):
        with pytest.raises(ConfigError,
                           match="unknown scenario key 'disturbance.sigma_n'"):
            Scenario.from_dict({"disturbance": {"kind": "sinusoid", "sigma_n": 1.0}})
        with pytest.raises(ConfigError,
                           match="unknown scenario key 'head_perturbation.period'"):
            Scenario.from_dict({"head_perturbation": {"kind": "random-walk",
                                                      "period": 1.0}})

    def test_optional_keys_accepted(self):
        Scenario.from_dict({
            "mouth": {"facing": [-1.0, 0.0, 0.0]},
            "disturbance": {"kind": "array", "trace": [[0.0] * 6]},
            "head_perturbation": {"kind": "sinusoid", "amplitude": 0.004,
                                  "period": 1.0, "direction": [0.0, 1.0, 0.0]},
        })
        Scenario.from_dict({"disturbance": {"kind": "random-walk", "sigma_n": 0.5,
                                            "amplitude_n": 1.0},
                            "head_perturbation": {"kind": "random-walk",
                                                  "sigma": 0.001, "amplitude": 0.005}})

    def test_suite_typo(self):
        with pytest.raises(ConfigError, match="unknown suite key 'repetiton'"):
            run_suite({"seed": 1, "repetiton": 2, "trials": [{"method": "ours"}]})
        with pytest.raises(ConfigError, match=r"unknown suite key 'trials\[1\].scenaro'"):
            run_suite({"seed": 1, "trials": [{"method": "ours"},
                                             {"method": "ours", "scenaro": {}}]})
        with pytest.raises(ConfigError, match=r"suite trials\[0\] must be an object"):
            run_suite({"seed": 1, "trials": ["ours"]})

    def test_suite_checks_head_motion_amplitude_before_running(self, monkeypatch):
        import bitesim.harness as harness
        monkeypatch.setattr(harness, "_prepare_trial", lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="^scenario key 'head_perturbation.amplitude'"):
            run_suite({"seed": 1, "trials": [
                {"scenario": {"horizon_s": 1.0}},
                {"scenario": {"head_perturbation": {"kind": "sinusoid", "amplitude": 0.5}}}]})

    # less a scenario's seed, which a suite replaces with each trial's own
    @pytest.mark.parametrize("overrides", RANGE_ERRORS[:6] + CHOICE_ERRORS + [
        o for o in MORE_RANGE_ERRORS if "seed" not in o])
    def test_suite_checks_ranges_before_running(self, monkeypatch, overrides):
        monkeypatch.setattr(harness, "_prepare_trial", lambda *a: pytest.fail("a trial ran"))
        (key, value), = overrides.items()
        path = f"{key}.{next(iter(value))}" if isinstance(value, dict) else key
        with pytest.raises(ConfigError, match=f"^scenario key '{path}' must be"):
            run_suite({"seed": 1, "trials": [{"scenario": {"horizon_s": 1.0}},
                                             {"scenario": overrides}]})

    def test_unreadable_chain_fails_before_the_ticks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "_tick_kernel", lambda *a: pytest.fail("the ticks ran"))
        with pytest.raises(ConfigError, match="^cannot resolve chain"):
            run_trial(Scenario.from_dict({"chain": str(tmp_path / "missing.json")}))

    def test_suite_resolves_its_chains_before_running(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "_prepare_trial", lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="^cannot resolve chain"):
            run_suite({"seed": 1, "trials": [
                {"method": "ours"},
                {"scenario": {"chain": str(tmp_path / "missing.json"), "joint_log_stride": 0}}]})

    def test_suite_checks_every_scenario_before_running(self, monkeypatch):
        import bitesim.harness as harness
        monkeypatch.setattr(harness, "_prepare_trial", lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="unknown scenario key 'horizn_s'"):
            run_suite({"seed": 1, "trials": [{"method": "ours"},
                                             {"scenario": {"horizn_s": 1.0}}]})


class TestScanOffsets:
    @pytest.fixture
    def scans(self, monkeypatch):
        """An empty offsets cache, and the list of foods scanned since."""
        monkeypatch.setattr(harness, "_SCAN_OFFSETS", {})
        scanned = []
        scan = harness.scan_bounding_box

        def counted(food, *args, **kwargs):
            scanned.append(food.name)
            return scan(food, *args, **kwargs)
        monkeypatch.setattr(harness, "scan_bounding_box", counted)
        return scanned

    def test_each_food_and_resolution_scanned_once(self, scans):
        foods = load_food_presets()
        for _ in range(2):
            for food in ("carrot", "tofu"):
                for resolution in (0.5, 1.0):
                    harness._prepare_trial(Scenario.from_dict({
                        "food": food, "scan": {"resolution_mm": resolution},
                        "seed": len(scans), "joint_log_stride": 0}))
        assert sorted(scans) == ["carrot", "carrot", "tofu", "tofu"]
        for (food, resolution), offsets in harness._SCAN_OFFSETS.items():
            cloud = synth_depth_scan(foods[food], Pose(), resolution=resolution)
            assert offsets == compute_offsets(food_bounding_box(cloud))

    def test_noisy_scans_are_taken_per_trial(self, scans):
        plans = [harness._prepare_trial(Scenario.from_dict({
            "food": "tofu", "scan": {"resolution_mm": 0.5, "noise_mm": 0.2}, "seed": seed,
            "joint_log_stride": 0})).plan for seed in (1, 2, 1)]
        assert scans == ["tofu"] * 3 and not harness._SCAN_OFFSETS
        assert not np.array_equal(plans[0].positions, plans[1].positions)
        np.testing.assert_array_equal(plans[0].positions, plans[2].positions)


class TestIntegralCap:
    @pytest.mark.parametrize("cap", [0, -1, float("nan"), float("inf")])
    def test_rejected_naming_the_key(self, cap):
        with pytest.raises(ConfigError,
                           match="'integral_cap_n': integral cap must be finite and > 0"):
            scenario = Scenario.from_dict({"integral_cap_n": cap, "horizon_s": 0.1,
                                           "joint_log_stride": 0})
            run_trial(scenario)

    def test_suite_checks_it_before_running(self, monkeypatch):
        monkeypatch.setattr(harness, "_prepare_trial", lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="^scenario key 'integral_cap_n': integral cap"):
            run_suite({"seed": 1, "trials": [{"scenario": {"horizon_s": 1.0}},
                                             {"scenario": {"integral_cap_n": 0}}]})


class TestDeterminism:
    def test_trial_replay_bit_identical(self, nominal_report, tmp_path):
        rep2 = run_trial(Scenario.from_dict({}))
        for field in ("position", "orientation", "force", "torque",
                      "set_position", "set_orientation"):
            assert np.array_equal(getattr(nominal_report.log, field),
                                  getattr(rep2.log, field))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_trajectory(nominal_report.log, a)
        export_trajectory(rep2.log, b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_json_deterministic(self, nominal_report):
        rep2 = run_trial(Scenario.from_dict({}))
        assert nominal_report.to_json() == rep2.to_json()


class TestGainPhaseCoupling:
    def test_exit_phase_ticks_strictly_follow_gain_switch(self, nominal_report):
        log = nominal_report.log
        exit_side = {int(TransferPhase.EXIT), int(TransferPhase.RETRACT_ARC)}
        idx = [i for i in range(len(log)) if int(log.phase[i]) in exit_side]
        assert idx, "trial never reached the exit side"
        # exit-side ticks form one contiguous block after the bite
        assert np.all(np.diff(idx) == 1)
        bite_t = nominal_report.bite_time
        assert log.t[idx[0]] == pytest.approx(bite_t, abs=1e-9)


# one trajectory CSV row: 14 floats, the phase name, 8 floats
_CSV_ROW = "%.17g," * 14 + "%s" + ",%.17g" * 8 + "\n"


def oracle_csv(log: TickLog) -> str:
    """The trajectory CSV formatted one row at a time, as the schema reads."""
    rows = (np.column_stack([log.t, log.position, log.orientation, log.force, log.torque,
                             log.set_position, log.set_orientation, log.deviation()])
            + 0.0).tolist()
    return CSV_HEADER + "\n" + "".join(
        _CSV_ROW % (*row[:14], TransferPhase(code).name, *row[14:])
        for row, code in zip(rows, log.phase.tolist()))


# values a column may repeat: signed zeros, NaNs of either sign, infinities
# and the extremes of the float range
SPECIAL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, 1.0 / 3.0, -1e-17]


def draw_tick_log(draw, n: int) -> TickLog:
    """A log of n ticks whose float columns are each constant, repeat a
    few values or hold distinct values, with special values mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = st.sampled_from(SPECIAL_VALUES) | st.floats()

    def column():
        pool = np.array(draw(st.lists(values, min_size=1, max_size=5)))
        kind = draw(st.sampled_from(["constant", "repeated", "distinct"]))
        if kind == "constant":
            return np.full(n, pool[0])
        if kind == "repeated":
            return rng.choice(pool, n)
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        special = rng.random(n) < 0.1
        col[special] = rng.choice(pool, int(special.sum()))
        return col

    def array(width):
        return np.column_stack([column() for _ in range(width)])

    phase = (np.full(n, draw(st.integers(0, 8))) if draw(st.booleans())
             else rng.integers(0, 9, n))
    return TickLog(t=column(), position=array(3), orientation=array(4), force=array(3),
                   torque=array(3), phase=phase.astype(np.int8), set_position=array(3),
                   set_orientation=array(4), events=[])


def zero_log(n: int) -> TickLog:
    """A log of n ticks at t = 0 in SCAN, every value zero."""
    return TickLog(t=np.zeros(n), position=np.zeros((n, 3)), orientation=np.zeros((n, 4)),
                   force=np.zeros((n, 3)), torque=np.zeros((n, 3)),
                   phase=np.zeros(n, dtype=np.int8), set_position=np.zeros((n, 3)),
                   set_orientation=np.zeros((n, 4)), events=[])


class TestExport:
    def test_row_count_and_header(self, nominal_report, tmp_path):
        path = tmp_path / "traj.csv"
        export_trajectory(nominal_report.log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 10002  # header + one row per tick

    def test_deviation_column_recomputes(self, nominal_report, tmp_path):
        path = tmp_path / "traj.csv"
        export_trajectory(nominal_report.log, path)
        lines = path.read_text().splitlines()[1:]
        rng = np.random.default_rng(0)
        for i in rng.integers(0, len(lines), 50):
            parts = lines[i].split(",")
            px, py, pz = map(float, parts[1:4])
            sx, sy, sz = map(float, parts[15:18])
            dev = float(parts[22])
            recomputed = np.sqrt((px - sx) ** 2 + (py - sy) ** 2 + (pz - sz) ** 2)
            assert dev == pytest.approx(recomputed, abs=1e-12)

    def test_every_value_reads_back_exactly(self, nominal_report, tmp_path):
        log = nominal_report.log
        path = tmp_path / "traj.csv"
        export_trajectory(log, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        values = np.array([[float(v) for v in r[:14] + r[15:]] for r in rows])
        expected = np.column_stack([log.t, log.position, log.orientation, log.force,
                                    log.torque, log.set_position, log.set_orientation,
                                    log.deviation()])
        assert np.array_equal(values, expected)
        assert [r[14] for r in rows] == [TransferPhase(p).name for p in log.phase]

    def test_negative_zero_and_non_finite_values(self, tmp_path):
        log = TickLog(t=np.array([-0.0, 0.001]),
                      position=np.array([[np.nan, np.inf, -np.inf]] * 2),
                      orientation=np.zeros((2, 4)), force=np.full((2, 3), -0.0),
                      torque=np.zeros((2, 3)), phase=np.array([0, 8], dtype=np.int8),
                      set_position=np.zeros((2, 3)), set_orientation=np.zeros((2, 4)),
                      events=[])
        path = tmp_path / "traj.csv"
        export_trajectory(log, path)
        first, second = (line.split(",") for line in path.read_text().splitlines()[1:])
        assert first[:4] == ["0", "nan", "inf", "-inf"]
        assert first[8:11] == ["0", "0", "0"]
        assert (first[14], second[14]) == ("SCAN", "ABORTED")

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("n", [0, 1, 999, 1000, 1001, 2345])
    def test_bytes_equal_the_row_by_row_oracle(self, tmp_path, n, data):
        log = draw_tick_log(data.draw, n)
        path = tmp_path / "traj.csv"
        # the deviation of rows this large overflows, and that of infinite
        # ones may be inf - inf: numpy warns, and both writers print inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            export_trajectory(log, path)
            assert path.read_bytes() == oracle_csv(log).encode()

    @pytest.mark.parametrize("code", [-1, 9, 42])
    def test_unknown_phase_code_raises_before_writing(self, tmp_path, code):
        # in the second chunk, after a first chunk that would be valid
        log = zero_log(1500)
        log.phase[1234] = code
        path = tmp_path / "traj.csv"
        with pytest.raises(ValueError, match=f"^{code} is not a valid TransferPhase$"):
            export_trajectory(log, path)
        assert not path.exists()

    def test_export_peak_memory_below_the_file_size(self, nominal_report, tmp_path):
        # the rows are formatted and written in chunks: a writer that held
        # the file's text whole would peak at several times its size
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            export_trajectory(nominal_report.log, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    @staticmethod
    def assert_same_log(got, want):
        for f in fields(TickLog):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name

    def test_save_load_roundtrip(self, nominal_report, tmp_path):
        path = tmp_path / "log.npz"
        save_log(nominal_report.log, path)
        loaded = load_log(path)
        self.assert_same_log(loaded, nominal_report.log)
        out = tmp_path / "fromfile.csv"
        export_trajectory(str(path), out)
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_save_load_roundtrip_without_joints(self, tmp_path):
        log = run_trial(Scenario.from_dict({**SHORT_SEGMENTS, "horizon_s": 0.5})).log
        assert log.joints is None and log.joint_ticks is None
        save_log(log, tmp_path / "log.npz")
        self.assert_same_log(load_log(tmp_path / "log.npz"), log)

    def test_joint_log_stride(self, nominal_report):
        log = nominal_report.log
        assert log.joints is not None
        assert log.joints.shape == (101, 9)  # every 100th of 10001 ticks, 9-DOF chain
        assert log.joint_ticks.dtype == np.int64
        assert np.array_equal(log.joint_ticks, np.arange(0, 10001, 100))


class TestSuite:
    @pytest.mark.slow
    def test_sixty_six_nominal_trials_all_succeed(self):
        report = run_suite({"name": "nominal66", "seed": 11, "repetitions": 66,
                            "trials": [{"method": "ours",
                                        "scenario": SHORT_SEGMENTS}]})
        assert report.total == 66
        assert report.per_method["ours"]["success"] == 66

    def test_refuse_trials_counted_exactly(self):
        report = run_suite({
            "name": "mixed", "seed": 12, "repetitions": 4,
            "trials": [
                {"method": "ours", "scenario": SHORT_SEGMENTS},
                {"method": "ours", "scenario": {**SHORT_SEGMENTS, "name": "refuse",
                                                "bite": {"refuse": True}}},
            ],
        })
        counts = report.per_method["ours"]
        assert counts["bite_failure"] == 4
        assert counts["success"] == 4
        assert sum(counts.values()) == report.total == 8

    def test_outcome_sums_match_total(self):
        report = run_suite({
            "name": "threeway", "seed": 13, "repetitions": 2,
            "trials": [{"method": m, "scenario": SHORT_SEGMENTS} for m in
                       ("ours", "less_reactive", "more_reactive")],
        })
        assert sum(sum(c.values()) for c in report.per_method.values()) == report.total

    def test_suite_deterministic(self):
        cfg = {"name": "det", "seed": 21, "repetitions": 2,
               "trials": [{"method": "ours", "scenario": SHORT_SEGMENTS}]}
        assert run_suite(cfg).to_json() == run_suite(cfg).to_json()

    def test_requires_seed_and_trials(self):
        with pytest.raises(ConfigError):
            run_suite({"trials": [{"method": "ours"}]})
        with pytest.raises(ConfigError):
            run_suite({"seed": 1, "trials": []})
        with pytest.raises(ConfigError, match="non-empty trials list"):
            run_suite({"seed": 1, "trials": {"method": "ours"}})


# two presets, a refusal, a push that drops the food and seeded head
# motion, two repetitions of each
MIXED_SUITE = {"name": "mixed", "seed": 31, "repetitions": 2, "trials": [
    {"method": "ours", "scenario": SHORT_SEGMENTS},
    {"method": "more_reactive", "scenario": {**SHORT_SEGMENTS, "food": "carrot"}},
    {"method": "ours", "scenario": {**SHORT_SEGMENTS, "name": "refuse",
                                    "bite": {"refuse": True}}},
    {"method": "ours", "scenario": {**SHORT_SEGMENTS, "name": "push", "disturbance": {
        "kind": "sinusoid", "amplitude_n": 5.0, "period_s": 1.0}}},
    {"method": "ours", "scenario": {**SHORT_SEGMENTS, "name": "head",
                                    "head_perturbation": {"kind": "random-walk"}}}]}


def short_suite(*names):
    return {"seed": 1, "trials": [{"scenario": {**SHORT_SEGMENTS, "name": name}}
                                  for name in names]}


def usable_cpus(monkeypatch, n):
    """Have os.sched_getaffinity report n usable CPUs, which sets the
    worker count of harness._pooled whatever the machine's CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestPooled:
    """harness._pooled on its pooled and its inline path."""

    def test_both_paths_return_the_results_in_task_order(self, monkeypatch):
        scale, caller = 3.0, os.getpid()

        def fn(task):  # a closure, which pickle cannot send to a worker
            time.sleep(0.002 * (8 - task))  # later tasks end first
            return np.sin(scale * task), os.getpid() == caller

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(fn)
        usable_cpus(monkeypatch, 3)
        pooled = harness._pooled(fn, range(8))
        usable_cpus(monkeypatch, 1)
        inline = harness._pooled(fn, range(8))
        assert pooled == [(np.sin(scale * t), False) for t in range(8)]
        assert inline == [(np.sin(scale * t), True) for t in range(8)]

    def test_one_task_or_unknown_cpus_runs_inline(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda *a: pytest.fail("a worker was forked"))
        usable_cpus(monkeypatch, 4)
        assert harness._pooled(lambda task: os.getpid(), [0]) == [os.getpid()]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert harness._pooled(abs, [-1, -2, 3]) == [1, 2, 3]


class TestPooledSuite:
    """Suites run in forked workers as they run inline. Each test sets the
    worker count, so both paths run whatever the machine's CPUs."""

    @pytest.fixture
    def workers(self, monkeypatch):
        return lambda n: usable_cpus(monkeypatch, n)

    def test_same_bytes_pooled_as_inline(self, workers):
        workers(1)
        inline = run_suite(MIXED_SUITE)
        assert {t["outcome"] for t in inline.trial_outcomes} == {
            "success", "bite_failure", "drop"}
        workers(3)
        assert run_suite(MIXED_SUITE).to_json() == inline.to_json()

    @pytest.mark.parametrize("n", [1, 4])  # four: every trial starts at once
    def test_earliest_failing_trial_raises(self, workers, monkeypatch, n):
        workers(n)
        kernel = harness._tick_kernel

        def faulty(setup):
            name = setup.cfg["name"]
            if name == "late fault":  # fails after the next trial does
                kernel(setup)
                raise SensorFault("force measurement contains non-finite values")
            if name == "early error":
                raise ValueError("a later trial")
            return kernel(setup)
        monkeypatch.setattr(harness, "_tick_kernel", faulty)
        with pytest.raises(SensorFault, match="^force measurement contains non-finite"):
            run_suite(short_suite("a", "b", "late fault", "early error"))

    def test_no_worker_outlives_the_call(self, workers, monkeypatch):
        workers(2)
        run_suite(short_suite("a", "b", "c"))
        assert not multiprocessing.active_children()

        def exits(setup):
            raise SystemExit(3)
        monkeypatch.setattr(harness, "_tick_kernel", exits)
        with pytest.raises(SystemExit):
            run_suite(short_suite("a", "b", "c"))
        assert not multiprocessing.active_children()

    def test_a_killed_worker_fails_the_suite(self, workers, monkeypatch):
        workers(2)
        kernel, caller = harness._tick_kernel, os.getpid()

        def killed(setup):
            if setup.cfg["name"] == "killed" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return kernel(setup)
        monkeypatch.setattr(harness, "_tick_kernel", killed)
        with pytest.raises(BrokenProcessPool):
            run_suite(short_suite("a", "killed", "b"))
        assert not multiprocessing.active_children()

    def test_one_trial_or_one_cpu_runs_inline(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda *a: pytest.fail("a worker was forked"))
        assert run_suite(short_suite("alone")).total == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_suite(short_suite("a", "b")).total == 2


class TestRefuseAcrossPresets:
    def test_every_food_times_out_on_refusal(self):
        # widened mouth keeps big presets from starting in contact
        for food in ("carrot", "strawberry", "blueberry", "pineapple",
                     "cherry_tomato", "broccoli", "cheesecake", "tofu"):
            rep = run_trial(Scenario.from_dict({
                **SHORT_SEGMENTS, "food": food, "bite": {"refuse": True},
                "mouth": {"aperture_m": 0.08, "lateral_halfwidth_m": 0.08},
            }))
            assert rep.timeout_time is not None, food
            assert rep.bite_time is None, food
            assert rep.outcome == "bite_failure", food


class TestMeasurementFilter:
    def test_lowpass_smooths_reactive_input_but_not_thresholds(self):
        base = {
            **SHORT_SEGMENTS,
            "disturbance": {"kind": "sinusoid", "amplitude_n": 0.6, "period_s": 1.0,
                            "direction": [1.0, 0.0, 0.0]},
            "mouth": {"aperture_m": 0.4, "lateral_halfwidth_m": 0.4},
            "bite": {"refuse": True},
        }
        raw = run_trial(Scenario.from_dict(base))
        filt = run_trial(Scenario.from_dict({**base, "lowpass_cutoff_hz": 0.3}))
        # filtering damps the fast reactive response, so the tool wanders less
        assert filt.mean_deviation_m < raw.mean_deviation_m
        # the logged measurement and the detector timing stay raw either way
        assert np.array_equal(filt.log.force, raw.log.force)
        assert filt.timeout_time == raw.timeout_time


class TestEnergySanity:
    def test_error_decays_after_segments_with_zero_gains(self):
        rep = run_trial(Scenario.from_dict({
            "gain_preset": "non_reactive",
            "bite": {"refuse": True},
            "mouth": {"aperture_m": 0.4, "lateral_halfwidth_m": 0.4},
        }))
        dev = rep.log.deviation()
        # bite wait holds from 8.0 s; the tracking error must decay there
        window = dev[8200:9400]
        assert np.all(np.diff(window) <= 1e-12)

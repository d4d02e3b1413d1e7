import numpy as np
import pytest

from bitesim.controller import (ControllerState, ImpedanceParams, ReactivityGains,
                                SafetyLatch)
from bitesim.geometry import Pose
from bitesim.harness import (CSV_HEADER, ConfigError, Scenario, TickLog, VirtualRobotState,
                             WorldState, build_study_inputs, export_trajectory, load_log,
                             mouth_frame_from_position, run_suite, run_trial, save_log,
                             simulate_tick)
from bitesim.humansim import BiteScript, FoodAttachmentState, MouthModel, load_food_presets
from bitesim.transfer import (BiteDetector, FsmState, TransferPhase,
                              linear_segment)


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
        perceived_mouth=mouth_frame,
        bite=BiteScript(refuse=True),
        attachment=FoodAttachmentState(foods["pineapple"]),
        safety=SafetyLatch(3.0),
        impedance=imp,
        entry_gains=gains,
        exit_gains=gains,
        exit_axis=mouth_frame.z_axis,
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
    plan = linear_segment(pose, pose, 1e7, sample_rate=1e-6, label=seg_label)
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


class TestConfigKeys:
    @pytest.mark.parametrize("overrides", [
        {"horizon_s": [1]}, {"horizon_s": "ten"}, {"horizon_s": True}, {"horizon_s": -1},
        {"horizon_s": float("nan")}, {"mouth": 5}, {"segments": [1, 2]}, {"scan": None},
        {"mouth_error_mm": 3}, {"mouth_error_mm": [0, "1", 0]}, {"seed": "s"}, {"seed": None},
        {"gain_preset": 5}, {"bite": {"refuse": "no"}}, {"disturbance": {"kind": [1]}},
        {"joint_log_stride": -250}, {"joint_log_stride": 2.5}])
    def test_value_of_another_kind_or_out_of_range(self, overrides):
        (key, value), = overrides.items()
        path = f"{key}.{next(iter(value))}" if isinstance(value, dict) else key
        with pytest.raises(ConfigError, match=f"^scenario key '{path}' must be"):
            Scenario.from_dict(overrides)

    def test_kinds_accepted(self):
        Scenario.from_dict({"horizon_s": np.float32(0.5), "joint_log_stride": 10.0,
                            "seed": np.int64(7), "mouth_error_mm": (1, 0.5, 0),
                            "bite": {"refuse": np.bool_(True)}})

    @pytest.mark.parametrize("cfg", [{"repetitions": 0}, {"repetitions": -1},
                                     {"repetitions": 1.5}, {"seed": "s"}, {"name": 3}])
    def test_suite_value_of_another_kind_or_out_of_range(self, cfg):
        with pytest.raises(ConfigError, match=f"^suite key '{next(iter(cfg))}' must be"):
            run_suite({"seed": 1, **cfg, "trials": [{"method": "ours"}]})

    def test_study_value_of_another_kind(self):
        with pytest.raises(ConfigError, match="^study key 'count' must be a whole number"):
            build_study_inputs({"count": "many"})

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
            "mode": "phased",
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

    def test_suite_checks_every_scenario_before_running(self, monkeypatch):
        import bitesim.harness as harness
        monkeypatch.setattr(harness, "run_trial", lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="unknown scenario key 'horizn_s'"):
            run_suite({"seed": 1, "trials": [{"method": "ours"},
                                             {"scenario": {"horizn_s": 1.0}}]})


class TestIntegralCap:
    @pytest.mark.parametrize("cap", [0, -1, float("nan"), float("inf")])
    def test_rejected_naming_the_key(self, cap):
        scenario = Scenario.from_dict({"integral_cap_n": cap, "horizon_s": 0.1,
                                       "joint_log_stride": 0})
        with pytest.raises(ConfigError,
                           match="'integral_cap_n': integral cap must be finite and > 0"):
            run_trial(scenario)


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

    def test_save_load_roundtrip(self, nominal_report, tmp_path):
        path = tmp_path / "log.npz"
        save_log(nominal_report.log, path)
        loaded = load_log(path)
        assert np.array_equal(loaded.position, nominal_report.log.position)
        assert loaded.events == nominal_report.log.events
        out = tmp_path / "fromfile.csv"
        export_trajectory(str(path), out)
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_joint_log_stride(self, nominal_report):
        log = nominal_report.log
        assert log.joints is not None
        assert log.joints.shape == (101, 9)  # every 100th of 10001 ticks, 9-DOF chain
        assert np.all(np.diff(log.joint_ticks) == 100)


class TestSuite:
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

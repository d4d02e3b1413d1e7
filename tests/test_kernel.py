"""The flat tick kernel against the per-tick object pipeline it replaced.

reference_run is the loop body run_trial had before the kernel: one
simulate_tick per tick (Pose, Wrench and state objects, transfer.step,
controller.reactive_term). Started from the same setup objects and
classified by the same _finish_trial, run_trial must give the same bits.
"""

import json
import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitesim.controller import TICK_PERIOD
from bitesim.geometry import quat_from_axis_angle, quat_mul
from bitesim.harness import (Scenario, TickLog, VirtualRobotState, _finish_trial,
                             _log_joints, _prepare_trial, _tick_kernel, run_trial,
                             simulate_tick)
from bitesim.presets import GAIN_PRESETS
from bitesim.transfer import (concat_plans, entry_segment, interpolate, linear_segment,
                              plan_arc)

FOODS = ("carrot", "strawberry", "blueberry", "pineapple",
         "cherry_tomato", "broccoli", "cheesecake", "tofu")
TICK_FIELDS = ("t", "position", "orientation", "force", "torque", "phase",
               "set_position", "set_orientation")


def reference_run(setup) -> TickLog:
    """run_trial's tick loop as it was: simulate_tick objects per tick."""
    world, fsm, ctrl, robot = setup.world, setup.fsm, setup.ctrl, setup.robot
    n_ticks, dt = setup.n_ticks, TICK_PERIOD
    log = TickLog(t=np.empty(n_ticks), position=np.empty((n_ticks, 3)),
                  orientation=np.empty((n_ticks, 4)), force=np.empty((n_ticks, 3)),
                  torque=np.empty((n_ticks, 3)), phase=np.empty(n_ticks, dtype=np.int8),
                  set_position=np.empty((n_ticks, 3)),
                  set_orientation=np.empty((n_ticks, 4)), events=[])
    stride = int(setup.cfg["joint_log_stride"])
    ik_targets = []
    prev_setpoint = None
    for i in range(n_ticks):
        robot, ctrl, fsm, rec = simulate_tick(robot, ctrl, fsm, world, i, dt,
                                              prev_setpoint)
        prev_setpoint = rec["setpoint"]
        log.events.extend(rec["events"])

        t_now = rec["t"]
        bite_mag = rec["bite_n"]
        transport = float(np.linalg.norm(rec["on_fork"].force)) - bite_mag
        world.attachment.update(max(0.0, transport), t_now, bite_engaged=False)
        if bite_mag > 0.0:
            world.attachment.update(bite_mag, t_now, bite_engaged=True)

        log.t[i] = t_now
        log.position[i] = rec["pose"].position
        log.orientation[i] = rec["pose"].orientation
        log.force[i] = rec["f_m"].force
        log.torque[i] = rec["f_m"].torque
        log.phase[i] = int(rec["phase"])
        log.set_position[i] = rec["setpoint"].position
        log.set_orientation[i] = rec["setpoint"].orientation

        if stride and i % stride == 0:
            ik_targets.append((i, rec["pose"]))
    _log_joints(log, ik_targets, setup.chain)  # the kernel must keep these very poses
    return log


def assert_same_trial(report, expected):
    for name in TICK_FIELDS:
        got, want = getattr(report.log, name), getattr(expected.log, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name  # tells -0.0 from 0.0
    for name in ("joints", "joint_ticks"):
        got, want = getattr(report.log, name), getattr(expected.log, name)
        assert (got is None) == (want is None), name
        if got is not None:
            assert got.tobytes() == want.tobytes(), name
    assert json.dumps(report.events) == json.dumps(expected.events)
    assert report.to_json() == expected.to_json()


@st.composite
def scenarios(draw):
    sc = {
        "seed": draw(st.integers(0, 2**31 - 1)),
        "gain_preset": draw(st.sampled_from(sorted(GAIN_PRESETS))),
        "food": draw(st.sampled_from(FOODS)),
        "transfer_mode": draw(st.sampled_from(["in_mouth", "fixed_pose"])),
        "segments": {"arc_s": draw(st.sampled_from([0.5, 1.0])),
                     "entry_s": draw(st.sampled_from([0.2, 0.4])),
                     "exit_s": draw(st.sampled_from([0.2, 0.3])),
                     "retract_s": draw(st.sampled_from([0.0, 0.3])),
                     "scan_s": draw(st.sampled_from([0.0, 0.05])),
                     "face_detect_s": draw(st.sampled_from([0.0, 0.03]))},
        "horizon_s": draw(st.sampled_from([0.0, 1.2, 2.6, 2.6])),
        "joint_log_stride": draw(st.sampled_from([0, 0, 400])),
        "lowpass_cutoff_hz": draw(st.sampled_from([0.0, 4.0, 30.0])),
        "safety_mode": draw(st.sampled_from(["component", "norm"])),
        "mouth": {"aperture_m": draw(st.sampled_from([0.03, 0.06, 0.06])),
                  "lateral_halfwidth_m": 0.025,
                  "facing": draw(st.sampled_from([None, [-1.0, 0.4, 0.0]]))},
        "mouth_error_mm": [draw(st.sampled_from([0.0, 0.0, 4.0])),
                           draw(st.sampled_from([0.0, 0.0, 6.0, -12.0])), 0.0],
    }
    if draw(st.booleans()):
        sc["bite"] = {"refuse": True}
    else:
        sc["bite"] = {"t_bite_s": draw(st.sampled_from([0.05, 0.2, 0.4])),
                      "ramp_s": draw(st.sampled_from([0.0, 0.1])),
                      "peak_force_n": draw(st.sampled_from([0.5, 1.0, 3.5]))}
    kind = draw(st.sampled_from(["none", "none", "sinusoid", "random-walk", "array"]))
    amp = draw(st.sampled_from([0.1, 0.3, 3.6]))
    if kind == "sinusoid":
        sc["disturbance"] = {"kind": kind, "amplitude_n": amp, "period_s": 0.7,
                             "direction": draw(st.sampled_from([[1.0, 0.0, 0.0],
                                                                [0.3, 1.0, -0.5]]))}
    elif kind == "random-walk":
        sc["disturbance"] = {"kind": kind, "sigma_n": 2.0, "amplitude_n": amp}
    elif kind == "array":
        rng = np.random.default_rng(sc["seed"])
        trace = np.zeros((draw(st.sampled_from([50, 1200])), 6))
        trace[30:] = rng.uniform(-1.0, 1.0, 6) * [amp, amp, amp, 0.005, 0.005, 0.005]
        sc["disturbance"] = {"kind": kind, "trace": trace.tolist()}
    head = draw(st.sampled_from(["none", "sinusoid", "random-walk"]))
    if head == "sinusoid":
        sc["head_perturbation"] = {"kind": head, "amplitude": 0.006, "period": 0.5}
    elif head == "random-walk":
        sc["head_perturbation"] = {"kind": head, "sigma": 0.02}
    return sc


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_kernel_equals_reference_loop(sc):
    scenario = Scenario.from_dict(sc)
    setup = _prepare_trial(scenario)
    expected = _finish_trial(setup, reference_run(setup))
    report = run_trial(scenario)
    assert_same_trial(report, expected)
    # the FSM invariants _finish_trial relies on: each transition occurs at most once
    assert np.all(np.diff(report.log.phase) >= 0)
    assert [ev["t"] for ev in report.events] == sorted(ev["t"] for ev in report.events)
    transitions = [(ev["phase_from"], ev["phase_to"], ev["event"]) for ev in report.events]
    assert len(set(transitions)) == len(transitions)


def test_nominal_trial_equals_reference_loop():
    scenario = Scenario.from_dict({})
    setup = _prepare_trial(scenario)
    expected = _finish_trial(setup, reference_run(setup))
    report = run_trial(scenario)
    assert_same_trial(report, expected)
    assert report.log.joints.shape == (101, 9)


def test_turning_plan_equals_reference_loop():
    # run_trial's plans hold one fork orientation; this one turns it by
    # 90 degrees over waypoints 0.2 s apart, which takes slerp's far
    # branch and gives the plant orientation errors to correct
    scenario = Scenario.from_dict({
        "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 0.5},
        "horizon_s": 3.5, "joint_log_stride": 0})
    setups = []
    for _ in range(2):
        setup = _prepare_trial(scenario)
        plan = setup.fsm.plan
        pre = interpolate(plan, plan.segment("arc").t_end)
        mouth = setup.world.perceived_mouth
        turned = quat_mul(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2),
                          pre.orientation)
        entry = entry_segment(pre, mouth, duration=0.5, sample_rate=5.0)
        plan = concat_plans([
            plan_arc(pre, mouth.z_axis, duration=1.0, sample_rate=5.0,
                     start_orientation=turned),
            entry,
            linear_segment(entry.end_pose, pre, 0.5, 5.0, label="linear-exit"),
        ])
        setup.fsm = replace(setup.fsm, plan=plan)
        setup.robot = VirtualRobotState(plan.start_pose, np.zeros(6), setup.robot.mass)
        setups.append(setup)
    ref = setups[0]
    expected = _finish_trial(ref, reference_run(ref))
    new = setups[1]
    report = _finish_trial(new, _tick_kernel(new)[0])
    assert report.final_phase == "DONE"
    assert np.abs(report.log.orientation - report.log.set_orientation).max() > 1e-3
    assert_same_trial(report, expected)


def _numpy_and_blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration string')})")


def test_blas_forms_the_kernel_relies_on():
    """The kernel swaps three numpy forms of the reference for cheaper ones
    that must round identically: math.sqrt(x.dot(x)) for np.linalg.norm(x),
    x.dot(y) for x @ y, and A.dot(v) for A @ v on 3x3 gain matrices. A BLAS
    that rounds them differently breaks the golden digests; this test says
    why."""
    rng = np.random.default_rng(2024)
    n = 4000
    scales = 10.0 ** rng.uniform(-6.0, 3.0, n)
    mismatches = {"norm3": 0, "norm4": 0, "dot3": 0, "dot4": 0, "matvec3": 0}
    for i in range(n):
        for k in (3, 4):
            x = rng.standard_normal(k) * scales[i]
            y = rng.standard_normal(k)
            mismatches[f"norm{k}"] += bool(math.sqrt(x.dot(x)) != np.linalg.norm(x))
            mismatches[f"dot{k}"] += bool(float(x.dot(y)) != float(x @ y))
        a = rng.standard_normal((3, 3))
        v = rng.standard_normal(3) * scales[i]
        mismatches["matvec3"] += not np.array_equal(a.dot(v), a @ v)
    assert not any(mismatches.values()), (
        f"of {n} draws each, these forms rounded differently: {mismatches}; "
        f"the flat kernel's bit identity with simulate_tick does not hold on "
        f"{_numpy_and_blas()}")

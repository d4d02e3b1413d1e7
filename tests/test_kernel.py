"""The flat tick kernel against the per-tick object pipeline it replaced.

reference_run is the loop body run_trial had before the kernel: one
simulate_tick of tests/reference.py per tick (Pose, Wrench and state
objects, transfer.step, controller.reactive_term). Started from the
same setup and classified by the same _finish_trial, run_trial must
give the same bits.
"""

import cProfile
import json
import math
import pstats
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bitesim import harness
from bitesim.geometry import (Pose, quat_conj, quat_from_axis_angle, quat_mul, quat_normalize,
                              quat_normalize_rows, quat_to_matrix, quat_to_rotvec,
                              quat_to_rotvec_rows, row_dots, slerp, slerp_rows)
from bitesim.controller import Wrench
from bitesim.humansim import (CAVITY_DEPTH, LIP_MARGIN, MAX_PERTURBATION_AMPLITUDE,
                              FoodAttachmentState, load_food_presets)
from bitesim.kinematics import IkParams, ik_damped_least_squares
from bitesim.harness import (Scenario, TickLog, _finish_trial, _prepare_trial, _resolve_chain,
                             run_trial)
from bitesim.kernel import _below_1e_12, _clear_of_mouth, _setpoint_table, _tick_kernel
from bitesim.presets import GAIN_PRESETS
from bitesim.transfer import TrajectoryPlan, TransferPhase, interpolate, phase_segments, step

from reference import initial_states, simulate_tick

FOODS = ("carrot", "strawberry", "blueberry", "pineapple",
         "cherry_tomato", "broccoli", "cheesecake", "tofu")
TICK_FIELDS = ("t", "position", "orientation", "force", "torque", "phase",
               "set_position", "set_orientation")


def reference_run(setup) -> tuple[TickLog, FoodAttachmentState]:
    """run_trial's tick loop as it was: simulate_tick objects per tick.
    Returns the log and the world's food attachment, which it updates."""
    robot, ctrl, fsm, world = initial_states(setup)
    n_ticks = setup.n_ticks
    log = TickLog(t=np.empty(n_ticks), position=np.empty((n_ticks, 3)),
                  orientation=np.empty((n_ticks, 4)), force=np.empty((n_ticks, 3)),
                  torque=np.empty((n_ticks, 3)), phase=np.empty(n_ticks, dtype=np.int8),
                  set_position=np.empty((n_ticks, 3)),
                  set_orientation=np.empty((n_ticks, 4)), events=[])
    stride = int(setup.cfg["joint_log_stride"])
    ik_targets = []
    prev_setpoint = None
    for i in range(n_ticks):
        robot, ctrl, fsm, rec = simulate_tick(robot, ctrl, fsm, world, i, prev_setpoint)
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
    if ik_targets:  # the logged rows must be these very poses
        chain = _resolve_chain(setup.cfg["chain"])
        q_guess = chain.home
        rows = []
        for _, pose in ik_targets:
            q_guess = ik_damped_least_squares(chain, pose, q_guess, IkParams(max_iter=60)).q
            rows.append(q_guess)
        log.joints = np.array(rows)
        log.joint_ticks = np.array([i for i, _ in ik_targets], dtype=np.int64)
    return log, world.attachment


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
    expected = _finish_trial(setup, *reference_run(setup))
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
    expected = _finish_trial(setup, *reference_run(setup))
    report = run_trial(scenario)
    assert_same_trial(report, expected)
    assert report.log.joints.shape == (101, 9)


# foods whose plan lies on the mouth's plane y = 0; the scanned cherry
# tomato's box sits 0.1 um to one side of it, so its plan has no mirror
CENTRED_FOODS = tuple(f for f in FOODS if f != "cherry_tomato")


DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: math.hypot(*d) > 0.1)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(food=st.sampled_from(CENTRED_FOODS), gain_preset=st.sampled_from(sorted(GAIN_PRESETS)),
       direction=DIRECTIONS, amplitude=st.floats(0.0, 6.0), period=st.floats(0.2, 2.0),
       head_direction=DIRECTIONS, head_amplitude=st.floats(0.0, MAX_PERTURBATION_AMPLITUDE),
       head_period=st.floats(0.2, 2.0), horizon=st.sampled_from([2.0, 3.5, 4.0]))
def test_lateral_mirror_of_a_push(food, gain_preset, direction, amplitude, period,
                                  head_direction, head_amplitude, head_period, horizon):
    # the default mouth sits on the plane y = 0, and negation is exact in
    # floats: a push and a head motion mirrored in y mirror the trial, bit
    # for bit
    def trial(sign):
        return run_trial(Scenario.from_dict({
            "food": food, "gain_preset": gain_preset, "horizon_s": horizon,
            "joint_log_stride": 0,
            "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0},
            "disturbance": {"kind": "sinusoid", "amplitude_n": amplitude, "period_s": period,
                            "direction": [direction[0], sign * direction[1], direction[2]]},
            "head_perturbation": {
                "kind": "sinusoid", "amplitude": head_amplitude, "period": head_period,
                "direction": [head_direction[0], sign * head_direction[1], head_direction[2]]}}))

    assert_mirrored(trial(1.0), trial(-1.0))


def assert_mirrored(a, b):
    """Trial b is trial a mirrored in y: py and fy negated, the rest the same bits."""
    for name in ("position", "force"):  # y negated, signs of zero aside
        assert np.array_equal(-getattr(a.log, name)[:, 1], getattr(b.log, name)[:, 1]), name
    assert a.log.position[:, [0, 2]].tobytes() == b.log.position[:, [0, 2]].tobytes()
    assert a.log.orientation.tobytes() == b.log.orientation.tobytes()
    assert json.dumps(a.events) == json.dumps(b.events)
    assert a.outcome == b.outcome


# (food, seed, outcome): the seed draws the head's random walk and a
# constant push that starts at tick 30
@pytest.mark.parametrize("food, seed, outcome", [
    ("pineapple", 2, "success"), ("blueberry", 3, "success"),
    ("carrot", 1, "drop"), ("tofu", 3, "drop")])
def test_lateral_mirror_of_a_random_walk(monkeypatch, food, seed, outcome):
    # a random-walk head motion whose trace has its y column negated, and
    # an array push whose y column is negated, mirror the trial
    perturbation_trace = harness.perturbation_trace
    push = np.zeros((4001, 6))
    push[30:, :3] = np.random.default_rng(seed).uniform(-0.5, 0.5, 3)

    def trial(sign):
        def mirrored_trace(*args, **kwargs):
            trace = perturbation_trace(*args, **kwargs)
            trace[:, 1] *= sign
            return trace

        monkeypatch.setattr(harness, "perturbation_trace", mirrored_trace)
        return run_trial(Scenario.from_dict({
            "food": food, "seed": seed, "horizon_s": 4.0, "joint_log_stride": 0,
            "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0},
            "disturbance": {"kind": "array", "trace": (push * [1, sign, 1, 1, 1, 1]).tolist()},
            "head_perturbation": {"kind": "random-walk", "sigma": 0.004}}))

    a, b = trial(1.0), trial(-1.0)
    assert a.outcome == outcome
    assert_mirrored(a, b)


# the same setup run twice: the kernel writes nothing into it. The
# pineapple is taken by a 3.5 N bite; the blueberry drops under a push
@pytest.mark.parametrize("overrides, outcome", [
    ({"food": "pineapple", "bite": {"peak_force_n": 3.5}}, "success"),
    ({"food": "blueberry", "disturbance": {"kind": "sinusoid", "amplitude_n": 2.5}}, "drop")])
def test_a_setup_runs_twice_to_the_same_bytes(overrides, outcome):
    setup = _prepare_trial(Scenario.from_dict({"joint_log_stride": 0, **overrides}))
    first = _finish_trial(setup, *_tick_kernel(setup))
    second = _finish_trial(setup, *_tick_kernel(setup))
    assert first.outcome == outcome
    assert_same_trial(second, first)


SHORT = {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0}


def doubled_forces(sc: dict) -> dict:
    """The overrides sc with every value in newtons, or in newtons per
    metre, per metre per second or per kilogram, doubled: sc gives its
    disturbance's amplitude and sigma, and no impedance damping, whose
    default 2 sqrt(k m) doubles with the stiffness and the mass."""
    cfg = Scenario.from_dict(sc).raw
    dist = sc["disturbance"]
    return {**sc,
            "mouth": {"stiffness": 2.0 * cfg["mouth"]["stiffness"],
                      "damping": 2.0 * cfg["mouth"]["damping"]},
            "bite": {"peak_force_n": 2.0 * cfg["bite"]["peak_force_n"]},
            "disturbance": {**dist, **{k: 2.0 * v for k, v in dist.items()
                                       if k in ("amplitude_n", "sigma_n")}},
            "impedance": {"stiffness": [2.0 * k for k in cfg["impedance"]["stiffness"]]},
            "virtual_mass": [2.0 * m for m in cfg["virtual_mass"]],
            "safety_limit_n": 2.0 * cfg["safety_limit_n"],
            "integral_cap_n": 2.0 * cfg["integral_cap_n"],
            "bite_threshold_n": 2.0 * cfg["bite_threshold_n"]}


def doubled_food_forces():
    return {name: replace(food, detachment_force=2.0 * food.detachment_force,
                          bite_release_force=2.0 * food.bite_release_force)
            for name, food in load_food_presets().items()}


@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(food=st.sampled_from(FOODS), gain_preset=st.sampled_from(sorted(GAIN_PRESETS)),
       disturbance=st.sampled_from([
           {"kind": "none"},
           {"kind": "sinusoid", "amplitude_n": 1.5, "period_s": 0.7},
           {"kind": "random-walk", "sigma_n": 2.0, "amplitude_n": 0.8}]),
       mouth_error=st.sampled_from([0.0, 6.0]), cutoff=st.sampled_from([0.0, 4.0]))
@example(food="carrot", gain_preset="ours", disturbance={"kind": "none"}, mouth_error=0.0,
         cutoff=0.0)
@example(food="tofu", gain_preset="ours", mouth_error=0.0, cutoff=0.0,
         disturbance={"kind": "sinusoid", "amplitude_n": 1.5, "period_s": 0.7})
@example(food="blueberry", gain_preset="ours", disturbance={"kind": "none"}, mouth_error=6.0,
         cutoff=0.0)
@example(food="strawberry", gain_preset="ours", mouth_error=0.0, cutoff=0.0,
         disturbance={"kind": "random-walk", "sigma_n": 2.0, "amplitude_n": 0.8})
@example(food="pineapple", gain_preset="more_reactive", disturbance={"kind": "none"},
         mouth_error=0.0, cutoff=4.0)
def test_doubled_force_units(food, gain_preset, disturbance, mouth_error, cutoff):
    # every force, stiffness, damping, mass and force threshold times two:
    # each product and quotient the tick takes scales by two exactly, and
    # each acceleration is the same quotient, so the motion keeps its bits
    # and each measured force doubles exactly
    sc = {"food": food, "gain_preset": gain_preset, "disturbance": disturbance,
          "mouth_error_mm": [0.0, -mouth_error, 0.0], "lowpass_cutoff_hz": cutoff,
          "segments": SHORT, "horizon_s": 3.5, "joint_log_stride": 0}
    a = run_trial(Scenario.from_dict(sc))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "load_food_presets", doubled_food_forces)
        b = run_trial(Scenario.from_dict(doubled_forces(sc)))
    for name in ("t", "position", "orientation", "phase", "set_position", "set_orientation"):
        assert getattr(a.log, name).tobytes() == getattr(b.log, name).tobytes(), name
    for name in ("force", "torque"):
        assert (2.0 * getattr(a.log, name)).tobytes() == getattr(b.log, name).tobytes(), name
    assert [{**ev, "f_y": 2.0 * ev["f_y"]} for ev in a.events] == b.events
    assert (a.outcome, a.food_detached, a.food_taken_by_bite) == (
        b.outcome, b.food_detached, b.food_taken_by_bite)


# The kernel reuses the reactive term on force-free ticks. These trials
# make that reuse matter: the fork, aimed 12 mm low at a 40 mm mouth,
# rests the carrot on the lower teeth on ticks 1592-1631, early in the
# bite wait, and the integral that contact leaves holds through the
# force-free ticks that follow. The bite is refused and the contact
# stays under the detector's threshold, so the wait times out at 1.999 s;
# in 'ours' the exit gains differ from the entry gains.
TOUCH = {"segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0},
         "food": "carrot", "mouth": {"aperture_m": 0.04}, "mouth_error_mm": [0.0, -12.0, 0.0],
         "bite": {"refuse": True}, "bite_timeout_s": 0.5, "joint_log_stride": 0}
TOUCH_TICKS = list(range(1592, 1632))


def run_against_reference(overrides):
    scenario = Scenario.from_dict(overrides)
    setup = _prepare_trial(scenario)
    expected = _finish_trial(setup, *reference_run(setup))
    report = run_trial(scenario)
    assert_same_trial(report, expected)
    return report


def wrench_ticks(log) -> list[int]:
    return np.flatnonzero(np.any(np.hstack([log.force, log.torque]) != 0.0, axis=1)).tolist()


def test_free_ticks_after_contact_equal_reference_loop():
    # the trial ends inside the wait, so the gains never switch: only the
    # contact may end the reuse, and the free ticks before it must not
    # lend it their term
    report = run_against_reference({**TOUCH, "horizon_s": 1.9})
    assert wrench_ticks(report.log) == TOUCH_TICKS
    assert report.final_phase == "BITE_WAIT"


def test_timeout_exit_in_a_free_stretch_equals_reference_loop():
    # the wait times out 368 ticks after the contact: the exit gains and
    # the reset integral must end the reuse of the entry-side term
    report = run_against_reference({**TOUCH, "horizon_s": 4.0})
    assert wrench_ticks(report.log) == TOUCH_TICKS
    assert [(ev["event"], ev["t"]) for ev in report.events if ev["phase_to"] == "EXIT"] == \
        [("timeout", 1.999)]
    assert report.final_phase == "DONE"


def test_done_after_a_push_in_the_retract_equals_reference_loop():
    # contact pushes across the exit axis only, where 'ours' keeps its
    # entry gains; a push along it (world x) in the retract leaves an
    # integral that the exit and entry gains weigh differently, so the
    # entry gains again at DONE (3.499 s) must end the reuse of the
    # exit-side term
    push = np.zeros((3000, 6))
    push[2600:2800, 0] = 0.5
    report = run_against_reference({**TOUCH, "horizon_s": 4.0,
                                    "disturbance": {"kind": "array", "trace": push.tolist()}})
    assert wrench_ticks(report.log) == TOUCH_TICKS + list(range(2600, 2800))
    assert report.final_phase == "DONE"


def test_lowpass_trial_after_contact_equals_reference_loop():
    # the filtered measurement decays after the contact although the force
    # is zero, so the reuse must stay off
    report = run_against_reference({**TOUCH, "horizon_s": 1.9, "lowpass_cutoff_hz": 4.0})
    ticks = wrench_ticks(report.log)
    assert ticks and ticks[-1] < 1800


def test_turn_then_hold_equals_reference_loop():
    # a torque turns the fork over ticks 200-499 of the arc, then the
    # trace's last row, zero, holds to the end: the orientation moves and
    # settles into one row about 1.3 s later, so the kernel recomputes its
    # orientation error and unit() on the moving ticks and reuses them on
    # the held ones
    trace = np.zeros((501, 6))
    trace[200:500, 3:] = [0.002, 0.0, -0.004]
    report = run_against_reference({
        "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0},
        "horizon_s": 3.5, "joint_log_stride": 0,
        "disturbance": {"kind": "array", "trace": trace.tolist()}})
    q = report.log.orientation
    moves = np.flatnonzero(np.any(q[1:] != q[:-1], axis=1))
    assert moves[0] == 199 and len(moves) > 1000
    assert moves[-1] < len(q) - 1000


# The kernel runs force-free ticks in quiet stretches, which a general
# tick must end wherever a force, a transition or a bite can come in.
# Each trial below puts one such edge inside a stretch.
EDGE = {"segments": SHORT, "food": "carrot", "joint_log_stride": 0}


def test_stretch_ends_where_the_fork_reaches_the_lip():
    # aimed 25.5 mm low at a 40 mm mouth, the fork crosses the lip plane
    # late in the arc just below the lower teeth, so the first tick in
    # the contact slab meets the teeth
    overrides = {**EDGE, "mouth": {"aperture_m": 0.04}, "mouth_error_mm": [0.0, -25.5, 0.0],
                 "bite": {"refuse": True}, "horizon_s": 1.2}
    report = run_against_reference(overrides)
    mouth = _prepare_trial(Scenario.from_dict(overrides)).mouth
    z_m = (report.log.position - mouth.center.position) @ quat_to_matrix(
        mouth.center.orientation)[:, 2]
    first = wrench_ticks(report.log)[0]
    assert first == 998 and report.log.phase[first] == TransferPhase.APPROACH_ARC
    # the contact of a tick is that of the pose the tick before left
    assert z_m[first - 2] > LIP_MARGIN >= z_m[first - 1]


def test_stretch_resumes_between_two_pushes():
    # an array disturbance pushes on ticks 300-349 and 600-649 of the arc
    # and is zero between and after: a stretch ends at each push and
    # resumes after the first
    push = np.zeros((701, 6))
    push[300:350, 0] = 0.5
    push[600:650, 1] = -0.5
    report = run_against_reference({**EDGE, "bite": {"refuse": True}, "horizon_s": 1.2,
                                    "disturbance": {"kind": "array", "trace": push.tolist()}})
    assert wrench_ticks(report.log) == list(range(300, 350)) + list(range(600, 650))


def test_stretch_begins_on_the_exit_table():
    # a refused bite times out with no force on the fork: the exit's
    # table is built on the timeout tick, and the stretch that begins on
    # the next tick must end at that table's transitions
    report = run_against_reference({**EDGE, "bite": {"refuse": True}, "bite_timeout_s": 0.3,
                                    "horizon_s": 3.5})
    assert wrench_ticks(report.log) == []
    assert [(ev["t"], ev["phase_to"], ev["event"]) for ev in report.events[-3:]] == [
        (1.799, "EXIT", "timeout"), (2.299, "RETRACT_ARC", None), (3.299, "DONE", None)]


def test_bite_holding_the_food_in_the_exit_starts_no_stretch():
    # a push along the detector's axis reads as a bite on the first tick
    # of the wait (1500), before the scripted bite: the exit's ticks
    # 1520-1599 are force-free, but the bite still holds the food and
    # acts from tick 1600, while the fork is still past the lip
    push = np.zeros((1521, 6))
    push[1500:1520, 2] = 1.0
    report = run_against_reference({**EDGE, "bite": {"t_bite_s": 0.1, "ramp_s": 0.05},
                                    "horizon_s": 2.5,
                                    "disturbance": {"kind": "array", "trace": push.tolist()}})
    assert [(ev["t"], ev["event"]) for ev in report.events if ev["phase_to"] == "EXIT"] == \
        [(1.5, "bite")]
    ticks = wrench_ticks(report.log)
    assert ticks[:21] == list(range(1500, 1520)) + [1600]
    assert (report.log.phase[1520:1601] == TransferPhase.EXIT).all()


def test_random_walk_head_in_a_free_stretch():
    # the mouth wanders up to 20 mm per axis as the fork enters: it meets
    # the teeth on a few ticks and is clear of them for 194 ticks between,
    # so the stretch between must test the mouth where the head has moved
    report = run_against_reference({
        **EDGE, "seed": 6, "bite": {"refuse": True}, "horizon_s": 1.6,
        "head_perturbation": {"kind": "random-walk", "sigma": 0.02, "amplitude": 0.02}})
    assert wrench_ticks(report.log) == [*range(1000, 1006), 1009, 1010, 1205, 1206, 1207,
                                        1220, 1221]
    assert report.final_phase == "BITE_WAIT"


def turning_setup(overrides=None):
    """A trial setup whose plan follows the nominal plan's path but turns
    the fork by 90 degrees about world z over the arc, in waypoints about
    0.2 s apart, which takes slerp's far branch and gives the plant
    orientation errors to correct (run_trial's plans hold one fork
    orientation)."""
    setup = _prepare_trial(Scenario.from_dict({
        "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 0.5},
        "horizon_s": 3.5, "joint_log_stride": 0, **(overrides or {})}))
    times = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 1.75, 2.0])
    nominal = setup.plan
    arc_end = phase_segments(nominal)[0].t_end
    pre = interpolate(nominal, arc_end).orientation
    poses = [Pose(interpolate(nominal, t).position,
                  quat_mul(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]),
                                                np.pi / 2 * max(0.0, 1.0 - t / arc_end)), pre))
             for t in times]
    setup.plan = TrajectoryPlan(times, [p.position for p in poses],
                                [p.orientation for p in poses], nominal.segments)
    return setup


def test_turning_plan_equals_reference_loop():
    ref = turning_setup()
    expected = _finish_trial(ref, *reference_run(ref))
    new = turning_setup()
    report = _finish_trial(new, *_tick_kernel(new))
    q = new.plan.orientations
    assert (np.abs(np.sum(q[1:] * q[:-1], axis=1)) <= 0.9995).any()  # slerp's far branch
    assert report.final_phase == "DONE"
    assert np.abs(report.log.orientation - report.log.set_orientation).max() > 1e-3
    assert_same_trial(report, expected)


def test_turning_plan_through_lip_and_teeth_equals_reference_loop():
    # the turning plan aimed as TOUCH aims: the fork crosses the lip plane
    # and rests on the lower teeth while the plant still corrects the
    # turn, so the kernel's float pre-tests settle some ticks and leave
    # the others to BLAS, for contact and for the orientation error
    overrides = {key: TOUCH[key] for key in ("food", "mouth", "mouth_error_mm", "bite",
                                             "bite_timeout_s")}
    ref = turning_setup(overrides)
    expected = _finish_trial(ref, *reference_run(ref))
    new = turning_setup(overrides)
    report = _finish_trial(new, *_tick_kernel(new))
    assert_same_trial(report, expected)

    log, mouth = report.log, new.mouth
    rot = quat_to_matrix(mouth.center.orientation)
    offsets = log.position - mouth.center.position
    y_m, z_m = offsets @ rot[:, 1], offsets @ rot[:, 2]
    in_slab = (z_m <= LIP_MARGIN) & (z_m >= -CAVITY_DEPTH)
    assert (z_m > LIP_MARGIN).any() and in_slab.any()
    touching = wrench_ticks(log)
    assert (in_slab & (y_m < -mouth.aperture / 2)).any() and touching
    clear = [_clear_of_mouth(*d, *rot.T.tolist(), LIP_MARGIN, CAVITY_DEPTH,
                             mouth.lateral_halfwidth, mouth.aperture / 2)
             for d in offsets.tolist()]
    assert any(clear) and not all(clear)
    turn = quat_to_rotvec_rows(quat_mul(log.set_orientation.T, quat_conj(log.orientation.T)).T)
    turn = np.sqrt(row_dots(turn, turn))
    assert (turn < 1e-12).any() and (turn[touching] > 1e-7).all()


def test_setpoint_tables_equal_step_on_the_turning_plan():
    # the tables against transfer.step (which calls transfer.interpolate)
    # tick by tick, and against simulate_tick's feed-forward velocity, on
    # a plan that turns the fork over the arc in slerp's far branch
    # (waypoint orientations 9 degrees apart); no force, so the bite
    # wait ends by its timeout and the exit table starts at that tick
    setup = _prepare_trial(Scenario.from_dict({
        "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 0.5,
                     "scan_s": 0.05, "face_detect_s": 0.0},
        "horizon_s": 3.0, "bite_timeout_s": 0.25, "joint_log_stride": 0}))
    nominal = setup.plan
    arc_end = phase_segments(nominal)[0].t_end
    pre = interpolate(nominal, arc_end).orientation
    times = np.linspace(0.0, 2.0, 21)
    poses = [Pose(interpolate(nominal, t).position,
                  quat_mul(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]),
                                                np.pi / 2 * max(0.0, 1.0 - t / arc_end)), pre))
             for t in times]
    plan = TrajectoryPlan(times, [p.position for p in poses], [p.orientation for p in poses],
                          nominal.segments)
    setup = replace(setup, plan=plan)
    dt, n = 0.001, setup.n_ticks

    state, setpoints, phases, transitions = initial_states(setup)[2], [], [], {}
    for i in range(n):
        state, sp, events = step(state, Wrench.zero(), i * dt, dt)
        setpoints.append(np.concatenate([sp.position, sp.orientation]))
        phases.append(int(state.phase))
        if events:
            transitions[i] = [(TransferPhase[ev["phase_from"]], TransferPhase[ev["phase_to"]])
                              for ev in events]
    exit_tick = phases.index(TransferPhase.EXIT)
    assert transitions[exit_tick] == [(TransferPhase.BITE_WAIT, TransferPhase.EXIT)]
    assert phases[-1] == TransferPhase.DONE

    first = _setpoint_table(setup, 0, TransferPhase.SCAN, 0.0)
    then = _setpoint_table(setup, exit_tick + 1, TransferPhase.EXIT, exit_tick * dt,
                           first.setpoints[exit_tick])
    cut = exit_tick + 1
    assert first.phases[:exit_tick] == phases[:exit_tick]
    assert first.phases[exit_tick] == TransferPhase.BITE_WAIT
    assert then.phases == phases[cut:]
    table_setpoints = np.vstack([first.setpoints[:cut], then.setpoints])
    assert table_setpoints.tobytes() == np.array(setpoints).tobytes()
    table_transitions = {i: [(a, b) for a, b, _ in ts]
                         for i, ts in {**first.transitions, **then.transitions}.items()}
    assert table_transitions == {i: ts for i, ts in transitions.items() if i != exit_tick}
    assert first.wait_start == state.wait_started_at

    # simulate_tick's v_des from consecutive setpoints
    velocities = [np.zeros(6)]
    for prev, sp in zip(setpoints, setpoints[1:]):
        velocities.append(np.concatenate([
            (sp[:3] - prev[:3]) / dt,
            quat_to_rotvec(quat_mul(sp[3:], quat_conj(prev[3:]))) / dt]))
    table_velocities = np.vstack([first.velocities[:cut], then.velocities])
    assert table_velocities.tobytes() == np.array(velocities).tobytes()
    assert np.abs(table_velocities[:, 3:]).max() > 1.0  # the fork does turn
    q = plan.orientations
    assert (np.abs(np.sum(q[1:] * q[:-1], axis=1)) <= 0.9995).any()  # slerp's far branch


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


def near_squared_norms(squares):
    """Three floats in any direction whose squared norm is one of squares,
    each float off by up to 8 ulp."""
    return st.tuples(
        arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
            lambda u: np.abs(u).max() > 1e-3),
        st.sampled_from(squares), arrays(np.int64, 3, elements=st.integers(-8, 8)),
    ).map(lambda c: (c[0] / np.linalg.norm(c[0]) * math.sqrt(c[1])
                     * (1.0 + c[2] * 2.0**-52)).tolist())


# near the pre-test's bound 0.5e-24 and near 1e-24 = (1e-12)**2, or any floats
NEAR_1E_12 = st.one_of(near_squared_norms([0.5e-24, 1e-24]),
                       st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3))


@settings(max_examples=400, deadline=None)
@given(NEAR_1E_12)
@example([math.nan, 0.0, 0.0])
@example([0.0, math.inf, 0.0])
def test_small_turn_pretest_agrees_with_blas(v):
    # the kernel's rotvec and rotation step skip their BLAS norm where
    # the pre-test holds: the norm must then take the small-angle branch
    # (< 1e-12), where 1 - angle**2 / 8 rounds to 1; NaN and inf go to BLAS
    if not all(map(math.isfinite, v)):
        assert not _below_1e_12(*v)
    elif _below_1e_12(*v):
        b = np.array(v)
        angle = math.sqrt(b.dot(b))
        assert angle < 1e-12
        assert 1.0 - angle * angle / 8.0 == 1.0


@settings(max_examples=200, deadline=None)
@given(near_squared_norms([0.5e-24, 0.125e-24, 1e-30, 1e-200]))
def test_unit_returns_a_small_turn_as_it_is(h):
    # the rotation step of a small turn sets (1, r / 2) for what unit()
    # returns: the BLAS norm of (1, h) is 1 while |h|^2 < 0.5e-24
    assume(_below_1e_12(*h))
    q = np.array([1.0, *h])
    assert math.sqrt(q.dot(q)) == 1.0
    assert quat_normalize(q).tobytes() == q.tobytes()


@st.composite
def fork_offsets(draw):
    """A mouth frame, its walls (lip, cavity, lateral, half_aperture) and a
    fork offset from the mouth centre within 0.1 m. One of the offset's
    mouth coordinates may lie on one of the planes lip, -cavity, +-lateral
    and +-half_aperture, off it by a few 1e-12 of the offset's 1-norm (the
    pre-test's margin), or exactly: then that wall is moved to within an
    ulp of the coordinate's BLAS dot or of its float sum, which differ by
    several ulp where the offset's components cancel. Now and then a
    component is NaN or inf."""
    q = draw(arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)).filter(
        lambda q: np.abs(q).max() > 1e-3))
    rot = quat_to_matrix(quat_normalize(q))
    walls = [LIP_MARGIN, CAVITY_DEPTH, draw(st.floats(0.005, 0.05)), draw(st.floats(0.005, 0.05))]
    local = np.array([draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)),
                      draw(st.floats(-0.06, 0.02))])
    plane = draw(st.sampled_from([None, (2, 0, 1.0), (2, 1, -1.0), (0, 2, 1.0), (0, 2, -1.0),
                                  (1, 3, 1.0), (1, 3, -1.0)]))
    margins = draw(st.integers(-3, 3))
    if plane is not None:
        axis, wall, side = plane
        local[axis] = side * walls[wall] + margins * 1e-12 * np.abs(local).sum()
    offset = rot @ local
    if plane is not None and draw(st.integers(0, 3)) > 0:
        hat = rot[:, axis]
        coordinate = side * draw(st.sampled_from([
            float(offset @ hat), offset[0] * hat[0] + offset[1] * hat[1] + offset[2] * hat[2]]))
        walls[wall] = coordinate + draw(st.integers(-1, 1)) * np.spacing(coordinate)
    if draw(st.integers(0, 9)) == 0:
        offset[draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return rot, walls, offset.tolist()


@settings(max_examples=600, deadline=None)
@given(fork_offsets())
def test_contact_pretest_agrees_with_blas(case):
    # where the kernel's pre-test finds the fork clear of the mouth, the
    # BLAS dots of humansim.contact_force put it outside the contact slab
    # or inside every wall, so no wall pushes; NaN and inf go to BLAS
    rot, (lip, cavity, lateral, half), d = case
    x_hat, y_hat, z_hat = rot[:, 0], rot[:, 1], rot[:, 2]
    clear = _clear_of_mouth(*d, x_hat.tolist(), y_hat.tolist(), z_hat.tolist(),
                            lip, cavity, lateral, half)
    if not all(map(math.isfinite, d)):
        assert not clear
    elif clear:
        r = np.array(d)
        x_m, y_m, z_m = float(r @ x_hat), float(r @ y_hat), float(r @ z_hat)
        assert z_m > lip or z_m < -cavity or (-half <= y_m <= half and -lateral <= x_m <= lateral)


def test_kernel_dot_calls_per_tick():
    """The float pre-tests and the reuse of unit()'s result keep BLAS off
    most ticks: the default nominal trial makes at most 1.5 dot calls per
    tick (1.33; 2.33 without the reuse, 7.21 without the pre-tests). A
    count under cProfile, unlike a timing, is the same on every run."""
    setup = _prepare_trial(Scenario.from_dict({}))
    profile = cProfile.Profile()
    profile.runcall(_tick_kernel, setup)
    calls = sum(stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
                if name == "<method 'dot' of 'numpy.ndarray' objects>"
                or name == "dot" and "numpy" in path)
    assert calls / setup.n_ticks <= 1.5


def test_kernel_calls_per_tick():
    """Quiet ticks call little: under cProfile the default nominal trial
    makes 15.6 calls per tick, and a suite_table nominal trial (a 60 mm
    mouth) 15.5; they made 18.8 and 18.7 before quiet stretches. About
    80 % of their ticks are quiet, so one call more on the quiet path
    puts either past 16. Counts repeat exactly; timings do not."""
    suite_nominal = {"food": "carrot", "mouth": {"aperture_m": 0.06, "lateral_halfwidth_m": 0.05},
                     "bite": {"t_bite_s": 0.5}, "joint_log_stride": 0}
    for overrides in ({}, suite_nominal):
        setup = _prepare_trial(Scenario.from_dict(overrides))
        profile = cProfile.Profile()
        profile.runcall(_tick_kernel, setup)
        calls = sum(stat[1] for stat in pstats.Stats(profile).stats.values())
        assert calls / setup.n_ticks <= 16.0


def test_stacked_forms_the_plans_rely_on():
    """Plans and the kernel's setpoint tables are built on arrays but keep
    the bits of the one-waypoint- and one-tick-at-a-time forms: row_dots,
    quat_normalize_rows, slerp_rows, quat_mul on stacked columns and
    quat_to_rotvec_rows must round as np.dot, quat_normalize, slerp,
    quat_mul and quat_to_rotvec do on each row (the stacked matmul makes
    the same BLAS dot call), and numpy's cos, sin, arccos and arctan2 must
    give an array the values they give each of its elements."""
    rng = np.random.default_rng(2025)
    n = 4000
    a = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-6.0, 3.0, (n, 1))
    b = rng.standard_normal((n, 4))
    b[: n // 2] = a[: n // 2] + 1e-4 * b[: n // 2]  # slerp's near branch
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    t = rng.uniform(0.0, 1.0, n)
    angles = rng.uniform(-7.0, 7.0, n)
    cosines = rng.uniform(-1.0, 1.0, n)
    ys, xs = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-14.0, 1.0, (2, n))
    v = a[:, 1:] * 10.0 ** rng.uniform(-14.0, 0.0, (n, 1))  # both rotvec branches
    turns = np.column_stack([a[:, :1], v])
    mismatches = {
        "row_dots": int(np.sum(row_dots(a, b) != [np.dot(x, y) for x, y in zip(a, b)])),
        "row_dots3": int(np.sum(row_dots(v, v) != [x.dot(x) for x in v])),
        "quat_normalize_rows": int(np.sum(
            quat_normalize_rows(a * 3.0) != [quat_normalize(x * 3.0) for x in a])),
        "slerp_rows": int(np.sum(
            slerp_rows(a, b, t) != [slerp(x, y, s) for x, y, s in zip(a, b, t)])),
        "quat_mul": int(np.sum(quat_mul(a.T, quat_conj(b.T)).T
                               != [quat_mul(x, quat_conj(y)) for x, y in zip(a, b)])),
        "quat_to_rotvec_rows": int(np.sum(
            quat_to_rotvec_rows(turns) != [quat_to_rotvec(x) for x in turns])),
        "cos": int(np.sum(np.cos(angles) != [np.cos(x) for x in angles])),
        "sin": int(np.sum(np.sin(angles) != [np.sin(x) for x in angles])),
        "arccos": int(np.sum(np.arccos(cosines) != [np.arccos(x) for x in cosines])),
        "arctan2": int(np.sum(np.arctan2(ys, xs)
                              != [np.arctan2(y, x) for y, x in zip(ys.tolist(), xs.tolist())])),
    }
    assert not any(mismatches.values()), (
        f"of {n} draws each, these stacked forms rounded differently: {mismatches}; "
        f"plans and setpoint tables built on arrays do not keep their golden bits on "
        f"{_numpy_and_blas()}")

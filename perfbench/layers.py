"""Per-layer timings: each layer's public functions called on fixed inputs.

The inputs here never depend on the workload seed, so the numbers move
only when the code or the machine does. Times are medians over blocks of
repeated calls.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bitesim.comfort import comfort_cost, sample_fork_poses
from bitesim.controller import (ControllerState, ImpedanceParams, ReactivityGains,
                                SafetyLatch, Wrench, desired_wrench, reactive_term)
from bitesim.geometry import Pose, pose_error, quat_from_axis_angle, quat_mul, slerp
from bitesim.harness import (Scenario, build_study_inputs, export_trajectory,
                             mouth_frame_from_position, run_trial, save_log)
from bitesim.humansim import (BiteScript, MouthModel, bite_force, contact_force,
                              load_food_presets, perturbation_trace)
from bitesim.kinematics import (IkParams, bundled_chain, forward_kinematics,
                                ik_damped_least_squares, jacobian)
from bitesim.perception import synth_depth_scan
from bitesim.transfer import (BiteDetector, FsmState, TransferPhase,
                              build_transfer_plan, interpolate, step,
                              transfer_orientation)

IK_POSES = 200  # fixed poses of the default study distribution (seed 2024)


def per_call(fn, block_s: float = 0.02, blocks: int = 5) -> float:
    """Median seconds per call over `blocks` blocks of at least block_s."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= block_s:
            break
        n *= 2
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def once(fn, repeats: int = 3) -> float:
    """Median seconds of a few single calls of a slow function."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fresh_import(env: dict, module: str, repeats: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def geometry_controller_transfer_humansim() -> dict[str, float]:
    qa = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.4)
    qb = quat_from_axis_angle(np.array([1.0, 0.2, 0.0]), 1.1)
    pa = Pose(np.array([0.5, 0.1, 0.4]), qa)
    pb = Pose(np.array([0.52, 0.08, 0.43]), qb)
    pos = np.array([0.5, 0.1, 0.4])

    gains = ReactivityGains.from_vectors([7.0] * 3 + [0.0] * 3, [20.0] * 3 + [0.0] * 3)
    ctrl = ControllerState(gains=gains)
    wrench = Wrench(np.array([0.1, 0.2, -0.1]), np.zeros(3))
    impedance = ImpedanceParams.default()
    err6 = np.array([0.01, -0.02, 0.005, 0.01, 0.0, -0.02])
    verr6 = np.array([0.001, 0.0, -0.002, 0.0, 0.01, 0.0])
    latch = SafetyLatch(3.0)

    mouth_frame = mouth_frame_from_position([0.55, 0.0, 0.45])
    pre_mouth = Pose(mouth_frame.position, transfer_orientation(mouth_frame))
    plan = build_transfer_plan(mouth_frame, pre_mouth)
    fsm = FsmState(plan=plan, detector=BiteDetector(axis=mouth_frame.y_axis),
                   phase=TransferPhase.APPROACH_ARC)
    mouth = MouthModel(center=mouth_frame)
    # 0.5 mm through the lower teeth plane, 10 mm inside the lips
    tip = Pose(mouth_frame.position - 0.0155 * mouth_frame.y_axis
               - 0.010 * mouth_frame.z_axis, pre_mouth.orientation)
    tip_velocity = np.array([0.0, 0.0, -0.01, 0.0, 0.0, 0.0])
    script = BiteScript()

    us, ms = 1e6, 1e3
    return {
        "geometry.pose_new_us": us * per_call(lambda: Pose(pos, qa)),
        "geometry.quat_mul_us": us * per_call(lambda: quat_mul(qa, qb)),
        "geometry.pose_error_us": us * per_call(lambda: pose_error(pa, pb)),
        "geometry.slerp_us": us * per_call(lambda: slerp(qa, qb, 0.3)),
        "controller.reactive_term_us": us * per_call(lambda: reactive_term(ctrl, wrench, 1e-3)),
        "controller.desired_wrench_us": us * per_call(
            lambda: desired_wrench(impedance, err6, verr6)),
        "controller.safety_update_us": us * per_call(lambda: latch.update(wrench)),
        "transfer.step_us": us * per_call(lambda: step(fsm, wrench, 3.2, 1e-3)),
        "transfer.interpolate_us": us * per_call(lambda: interpolate(plan, 3.2)),
        "transfer.build_plan_ms": ms * per_call(
            lambda: build_transfer_plan(mouth_frame, pre_mouth), block_s=0.05),
        "humansim.contact_force_us": us * per_call(
            lambda: contact_force(tip, tip_velocity, mouth)),
        "humansim.bite_force_us": us * per_call(lambda: bite_force(script, 0.6)),
        "humansim.perturbation_trace_ms": ms * per_call(
            lambda: perturbation_trace("random-walk", {}, 10001, 1e-3, 1), block_s=0.05),
    }


def perception() -> dict[str, float]:
    mouth_frame = mouth_frame_from_position([0.55, 0.0, 0.45])
    times, points = [], []
    for food in load_food_presets().values():
        times.append(once(lambda: synth_depth_scan(food, mouth_frame)))
        points.append(len(synth_depth_scan(food, mouth_frame)))
    return {"perception.scan_ms_median": 1e3 * statistics.median(times),
            "perception.scan_ms_max": 1e3 * max(times),
            "perception.scan_points_max": float(max(points))}


def harness(tmp: Path) -> dict[str, float]:
    one_tick = Scenario.from_dict({"horizon_s": 0.0})
    nominal = Scenario.from_dict({})

    setup = once(lambda: run_trial(one_tick))
    t0 = time.perf_counter()
    report = run_trial(nominal)
    trial = time.perf_counter() - t0
    log = report.log

    # the joint logging run_trial does: warm-started IK every 100 ticks
    chain = bundled_chain(nominal["chain"])
    params = IkParams(max_iter=60)

    def ik_logging():
        q = chain.home
        for i in range(0, len(log), int(nominal["joint_log_stride"])):
            q = ik_damped_least_squares(chain, Pose(log.position[i], log.orientation[i]),
                                        q, params).q

    ik = once(ik_logging)
    return {
        "harness.trial_setup_ms": 1e3 * setup,
        # the nominal trial less its first tick and its joint logging
        "harness.tick_us": 1e6 * (trial - setup - ik) / (report.n_ticks - 1),
        "harness.ik_logging_ms": 1e3 * ik,
        "harness.save_log_ms": 1e3 * once(lambda: save_log(log, tmp / "log.npz")),
        "harness.export_csv_ms": 1e3 * once(
            lambda: export_trajectory(log, tmp / "trajectory.csv")),
        "harness.report_json_ms": 1e3 * per_call(report.to_json, block_s=0.05),
    }


def kinematics_comfort() -> dict[str, float]:
    chain_with, chain_without, dist, ik_params, comfort, home = build_study_inputs(
        {"count": IK_POSES})
    home_with = np.concatenate([home, chain_with.home[chain_without.dof:]])
    poses = sample_fork_poses(dist)
    out = {
        "kinematics.fk_7dof_us": 1e6 * per_call(lambda: forward_kinematics(chain_without, home)),
        "kinematics.fk_9dof_us": 1e6 * per_call(lambda: forward_kinematics(chain_with, home_with)),
        "kinematics.jacobian_9dof_us": 1e6 * per_call(lambda: jacobian(chain_with, home_with)),
    }
    for label, chain, q0 in (("7dof", chain_without, home), ("9dof", chain_with, home_with)):
        t0 = time.perf_counter()
        results = [ik_damped_least_squares(chain, p, q0, ik_params) for p in poses]
        elapsed = time.perf_counter() - t0
        iters = sum(r.iterations for r in results)
        useful = sum(r.iterations for r in results if r.converged)
        out[f"kinematics.ik_solve_{label}_us"] = 1e6 * elapsed / len(poses)
        out[f"kinematics.ik_iters_{label}"] = float(iters)
        out[f"kinematics.ik_converged_{label}"] = float(sum(r.converged for r in results))
        if label == "7dof":
            out["kinematics.ik_useful_iter_ratio_7dof"] = useful / iters
    sample_dist = build_study_inputs({"count": 1000})[2]
    out["comfort.sample_poses_ms"] = 1e3 * once(lambda: sample_fork_poses(sample_dist))
    out["comfort.cost_us"] = 1e6 * per_call(lambda: comfort_cost(chain_with, home_with, comfort))
    return out


def cli_imports(env: dict) -> dict[str, float]:
    return {"cli.import_s": _fresh_import(env, "bitesim.cli"),
            "cli.import_scipy_stats_s": _fresh_import(env, "scipy.stats")}


def measure_all(env: dict, workdir: Path) -> dict[str, float]:
    out = {}
    out.update(geometry_controller_transfer_humansim())
    out.update(perception())
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        out.update(harness(Path(tmp)))
    out.update(kinematics_comfort())
    out.update(cli_imports(env))
    return out

"""Simulation loop wiring perception, trajectory, FSM, controller, and
the simulated human together at a 1 kHz tick, plus trial/suite runners
and trajectory export.

The robot is a task-space virtual-mass admittance plant: the commanded
wrench minus the reactive correction, plus the physical contact forces,
integrates through the virtual mass with semi-implicit Euler. Joint
configurations are recovered by IK at a configurable stride for logging
only. Every run is seed-deterministic end to end.

run_trial prepares a trial, runs its ticks from t = 0 in _tick_kernel,
a flat loop over floats that only records, and reads the report from
the tick log and its events. The kernel updates nothing in place but
the food attachment, whose detachment feeds back into the bite force.
simulate_tick is the same tick as a pipeline of Pose, Wrench and state
objects, kept as the reference the kernel must match bit for bit.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .geometry import (Pose, pose_error, quat_conj, quat_from_rotvec, quat_mul,
                       quat_normalize, quat_rotate, quat_to_matrix, quat_to_rotvec)
from .kinematics import (ChainModel, IkParams, bundled_chain, ik_damped_least_squares,
                         load_chain, _mat_to_quat)
from .controller import (ControllerState, ImpedanceParams, ReactivityGains, SafetyLatch,
                         SensorFault, TICK_PERIOD, Wrench, desired_wrench, phase_gains,
                         reactive_term, safety_check)
from .transfer import (BiteDetector, FsmState, TransferPhase, EXIT_SIDE_PHASES,
                       _segment_or_none, build_fixed_pose_plan, build_transfer_plan, step)
from .perception import compute_offsets, food_bounding_box, synth_depth_scan, target_pose
from .humansim import (HEAD_MOTION_PARAMS, BiteScript, FoodAttachmentState, MouthModel,
                       bite_force, contact_force, load_food_presets, perturbation_trace,
                       signal_trace)
from .presets import GAIN_PRESETS, default_scenario_dict, default_study_dict

CSV_HEADER = ("t_s,px,py,pz,qw,qx,qy,qz,fx,fy,fz,tau_x,tau_y,tau_z,phase,"
              "set_px,set_py,set_pz,set_qw,set_qx,set_qy,set_qz,deviation_m")

# one trajectory CSV row: 14 floats, the phase name, 8 floats
_CSV_ROW = "%.17g," * 14 + "%s" + ",%.17g" * 8 + "\n"
_CSV_CHUNK_ROWS = 1000

OUTCOMES = ("success", "bite_failure", "drop", "imprecise", "aborted")


class ConfigError(ValueError):
    """Scenario/suite/study configuration cannot be resolved."""


def mouth_frame_from_position(position, facing=None) -> Pose:
    """Mouth pose for a user facing the robot base.

    z points out of the mouth (horizontal, toward the base unless an
    explicit facing direction is given), y is up, x along the lips.
    """
    p = np.asarray(position, dtype=float).reshape(3)
    if facing is None:
        facing = np.array([-p[0], -p[1], 0.0])
    z = np.asarray(facing, dtype=float).copy()
    z[2] = 0.0
    n = np.linalg.norm(z)
    if n < 1e-9:
        raise ConfigError("mouth facing direction must be horizontal and nonzero")
    z /= n
    y = np.array([0.0, 0.0, 1.0])
    x = np.cross(y, z)
    return Pose(p, _mat_to_quat(np.column_stack([x, y, z])))


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


# what a config value must be, by the type of its default (bool before
# int, which it subclasses); a default of another type, None, takes anything
_VALUE_KINDS = (
    (bool, "a bool", lambda v: isinstance(v, (bool, np.bool_))),
    (str, "a string", lambda v: isinstance(v, str)),
    (int, "a whole number", lambda v: _is_number(v) and (
        isinstance(v, (int, np.integer)) or float(v).is_integer())),
    (float, "a number", _is_number),
    (list, "a list of numbers", lambda v: isinstance(v, (list, tuple, np.ndarray))
        and all(map(_is_number, v))),
    (dict, "an object", lambda v: isinstance(v, dict)),
)


def _check_keys(cfg: dict, known: dict, kind: str, path: str = "") -> None:
    """Reject a key of cfg that known lacks, or a value of another kind
    than known's value at the same path, at any nesting level; the
    message names the kind of config and the key's path."""
    for key, value in cfg.items():
        where = path + str(key)
        if key not in known:
            raise ConfigError(f"unknown {kind} key {where!r}")
        for default_type, wanted, ok in _VALUE_KINDS:
            if isinstance(known[key], default_type):
                if not ok(value):
                    raise ConfigError(f"{kind} key {where!r} must be {wanted}, got {value!r}")
                break
        if isinstance(value, dict) and isinstance(known[key], dict):
            _check_keys(value, known[key], kind, where + ".")


def _scenario_keys(cfg: dict) -> dict:
    """Keys a scenario may set, each with a value of its kind: the
    defaults', a gain preset's, the optional mouth facing, and the
    parameters of the disturbance and head-motion kinds that cfg selects."""
    known = _merge(default_scenario_dict(), GAIN_PRESETS["ours"])
    known["mouth"]["facing"] = None
    for key, kinds in (("disturbance", DISTURBANCE_PARAMS),
                       ("head_perturbation", HEAD_MOTION_PARAMS)):
        kind = cfg[key].get("kind") if isinstance(cfg[key], dict) else None
        known[key] = {"kind": "none", **kinds.get(str(kind), {})}
    return known


@dataclass(frozen=True)
class Scenario:
    """Resolved trial description; the unit of reproducibility."""

    raw: dict

    @classmethod
    def from_dict(cls, overrides: dict | None = None) -> "Scenario":
        overrides = overrides or {}
        cfg = default_scenario_dict()
        _check_keys(overrides, _scenario_keys(_merge(cfg, overrides)), "scenario")
        preset = overrides.get("gain_preset", cfg["gain_preset"])
        if preset not in GAIN_PRESETS:
            raise ConfigError(f"unknown gain preset {preset!r}")
        # the preset sets the baseline; explicit gains in the overrides win
        cfg = _merge(_merge(cfg, GAIN_PRESETS[preset]), overrides)
        for key in ("horizon_s", "joint_log_stride"):
            if not 0 <= cfg[key] < math.inf:
                raise ConfigError(f"scenario key {key!r} must be finite and >= 0, "
                                  f"got {cfg[key]!r}")
        return cls(cfg)

    def __getitem__(self, key):
        return self.raw[key]


@dataclass(frozen=True)
class VirtualRobotState:
    """Task-space admittance plant state."""

    pose: Pose
    twist: np.ndarray  # (6,) world linear + angular velocity
    mass: np.ndarray  # (6,) virtual mass / inertia

    def __post_init__(self):
        tw = np.asarray(self.twist, dtype=float).reshape(6).copy()
        m = np.asarray(self.mass, dtype=float).reshape(6).copy()
        if not np.all(np.isfinite(tw)):
            raise ValueError("twist must be finite")
        if np.any(m <= 0):
            raise ValueError("virtual mass entries must be > 0")
        tw.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "twist", tw)
        object.__setattr__(self, "mass", m)


class WorldState:
    """Per-trial environment: mouth, food attachment, safety, traces."""

    def __init__(self, mouth: MouthModel, perceived_mouth: Pose, bite: BiteScript,
                 attachment: FoodAttachmentState, safety: SafetyLatch,
                 impedance: ImpedanceParams, entry_gains: ReactivityGains,
                 exit_gains: ReactivityGains, exit_axis: np.ndarray,
                 perturb_trace: np.ndarray, disturbance_trace: np.ndarray,
                 lowpass_alpha: float | None = None):
        self.mouth = mouth
        self.perceived_mouth = perceived_mouth
        self.bite = bite
        self.attachment = attachment
        self.safety = safety
        self.impedance = impedance
        self.exit_axis = np.asarray(exit_axis, dtype=float)
        self.perturb_trace = perturb_trace
        self.disturbance_trace = disturbance_trace
        self.lowpass_alpha = lowpass_alpha
        self.filtered = np.zeros(6)
        # both phase gain sets are fixed per trial; build them once
        self.gains_entry = phase_gains(TransferPhase.ENTRY, self.exit_axis,
                                       entry_gains, exit_gains)
        self.gains_exit = phase_gains(TransferPhase.EXIT, self.exit_axis,
                                      entry_gains, exit_gains)


def simulate_tick(robot: VirtualRobotState, ctrl: ControllerState, fsm: FsmState,
                  world: WorldState, t_idx: int, dt: float = TICK_PERIOD,
                  prev_setpoint: Pose | None = None):
    """One 1 kHz tick; returns (robot', ctrl', fsm', record). The
    reference for _tick_kernel, which run_trial uses.

    Tick order: sense forces (contact + bite + injected disturbance,
    with the head perturbation applied to the mouth), run the safety
    latch, advance the FSM to get the setpoint and phase, form the
    impedance wrench from the setpoint error, apply the reactive PI
    correction, and integrate the virtual mass. After an abort the
    plant freezes and commands stay zero.
    """
    t = t_idx * dt
    mouth_now = world.mouth
    off = world.perturb_trace[min(t_idx, len(world.perturb_trace) - 1)]
    if off[0] != 0.0 or off[1] != 0.0 or off[2] != 0.0:
        mouth_now = world.mouth.with_center(world.mouth.center.translated(off))

    # forces exerted on the fork by the world; the bite persists into the
    # exit while the fork is still in the mouth and the food is attached
    on_fork = contact_force(robot.pose, robot.twist, mouth_now)
    bite_n = 0.0
    t_in_bite = None
    if not world.attachment.detached:
        if fsm.phase == TransferPhase.BITE_WAIT:
            t_in_bite = t - fsm.t_phase_start
        elif (fsm.phase == TransferPhase.EXIT and fsm.bite_time is not None
              and fsm.wait_started_at is not None):
            rel = robot.pose.position - mouth_now.center.position
            if float(rel @ mouth_now.center.z_axis) <= mouth_now.lip_margin:
                t_in_bite = t - fsm.wait_started_at
    if t_in_bite is not None:
        b_local = bite_force(world.bite, t_in_bite)
        if b_local.force[1] != 0.0:
            bite_n = abs(float(b_local.force[1]))
            on_fork = on_fork + Wrench(mouth_now.center.rotate(b_local.force))
    d = world.disturbance_trace[min(t_idx, len(world.disturbance_trace) - 1)]
    if d.any():
        on_fork = on_fork + Wrench(d[:3], d[3:])

    # the simulated sensor reports the tool-applied wrench
    f_m = Wrench(-on_fork.force, -on_fork.torque)

    abort = world.safety.update(f_m)
    fsm_prev_phase = fsm.phase
    fsm, setpoint, events = step(fsm, f_m, t, dt, abort=abort)

    # phase-dependent gains; integral resets when the exit side begins
    want_exit_gains = fsm.phase in EXIT_SIDE_PHASES
    have_exit_gains = ctrl.gains is world.gains_exit
    if want_exit_gains and not have_exit_gains:
        ctrl = ctrl.with_gains(world.gains_exit, reset_integral=True)
    elif not want_exit_gains and have_exit_gains:
        ctrl = ctrl.with_gains(world.gains_entry)

    if fsm.phase == TransferPhase.ABORTED:
        robot = VirtualRobotState(robot.pose, np.zeros(6), robot.mass)
        record = {"t": t, "pose": robot.pose, "f_m": f_m, "setpoint": robot.pose,
                  "phase": fsm.phase, "events": events, "on_fork": on_fork,
                  "bite_n": bite_n}
        return robot, ctrl, fsm, record

    err = pose_error(robot.pose, setpoint)
    if prev_setpoint is None:
        v_des = np.zeros(6)
    else:
        v_des = np.empty(6)
        v_des[:3] = (setpoint.position - prev_setpoint.position) / dt
        v_des[3:] = quat_to_rotvec(quat_mul(setpoint.orientation,
                                            quat_conj(prev_setpoint.orientation))) / dt
    v_err = v_des - robot.twist

    f_cmd = desired_wrench(world.impedance, err, v_err)
    f_meas = f_m
    if world.lowpass_alpha is not None:
        world.filtered += world.lowpass_alpha * (f_m.as_vector() - world.filtered)
        f_meas = Wrench.from_vector(world.filtered)
    f_bar, ctrl = reactive_term(ctrl, f_meas, dt)

    net = f_cmd.as_vector() - f_bar.as_vector() + on_fork.as_vector()
    twist = robot.twist + dt * (net / robot.mass)
    position = robot.pose.position + dt * twist[:3]
    rotvec = dt * twist[3:]
    if rotvec[0] != 0.0 or rotvec[1] != 0.0 or rotvec[2] != 0.0:
        orientation = quat_mul(quat_from_rotvec(rotvec), robot.pose.orientation)
    else:
        orientation = robot.pose.orientation
    robot = VirtualRobotState(Pose(position, orientation), twist, robot.mass)

    record = {"t": t, "pose": robot.pose, "f_m": f_m, "setpoint": setpoint,
              "phase": fsm.phase, "events": events, "on_fork": on_fork,
              "bite_n": bite_n}
    return robot, ctrl, fsm, record


@dataclass
class TickLog:
    """Per-tick trial arrays plus the event list."""

    t: np.ndarray
    position: np.ndarray
    orientation: np.ndarray
    force: np.ndarray
    torque: np.ndarray
    phase: np.ndarray
    set_position: np.ndarray
    set_orientation: np.ndarray
    events: list[dict]
    joints: np.ndarray | None = None
    joint_ticks: np.ndarray | None = None

    def __len__(self):
        return self.t.shape[0]

    def deviation(self) -> np.ndarray:
        return np.linalg.norm(self.position - self.set_position, axis=1)


def save_log(log: TickLog, path):
    arrays = {
        "t": log.t, "position": log.position, "orientation": log.orientation,
        "force": log.force, "torque": log.torque, "phase": log.phase,
        "set_position": log.set_position, "set_orientation": log.set_orientation,
        "events": np.array(json.dumps(log.events)),
    }
    if log.joints is not None:
        arrays["joints"] = log.joints
        arrays["joint_ticks"] = log.joint_ticks
    np.savez_compressed(path, **arrays)


def load_log(path) -> TickLog:
    with np.load(path, allow_pickle=False) as z:
        return TickLog(
            t=z["t"], position=z["position"], orientation=z["orientation"],
            force=z["force"], torque=z["torque"], phase=z["phase"],
            set_position=z["set_position"], set_orientation=z["set_orientation"],
            events=json.loads(str(z["events"])),
            joints=z["joints"] if "joints" in z else None,
            joint_ticks=z["joint_ticks"] if "joint_ticks" in z else None,
        )


def export_trajectory(log: TickLog | str, path):
    """Write the tick log as CSV (documented schema, one row per tick).

    Values are written with %.17g, so every float reads back exactly;
    -0.0 is written as 0. Rows are formatted and written in chunks, so
    the file's text is never held whole in memory."""
    if not isinstance(log, TickLog):
        log = load_log(log)
    dev = log.deviation()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for lo in range(0, len(log), _CSV_CHUNK_ROWS):
            part = slice(lo, lo + _CSV_CHUNK_ROWS)
            rows = (np.column_stack([
                log.t[part], log.position[part], log.orientation[part], log.force[part],
                log.torque[part], log.set_position[part], log.set_orientation[part],
                dev[part]]) + 0.0).tolist()
            for row, phase in zip(rows, log.phase[part].tolist()):
                row.insert(14, TransferPhase(phase).name)
            f.write("".join([_CSV_ROW % tuple(row) for row in rows]))


@dataclass(frozen=True)
class TrialReport:
    """Outcome and timeline of one trial."""

    scenario_name: str
    seed: int
    outcome: str
    events: list[dict]
    bite_time: float | None
    timeout_time: float | None
    peak_force_n: float
    peak_force_components: tuple[float, float, float]
    mean_deviation_m: float
    n_ticks: int
    food_detached: bool
    food_taken_by_bite: bool
    final_phase: str  # phase of the last tick
    completed: bool  # the trial reached DONE within its horizon
    log: TickLog = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {
            "scenario_name": self.scenario_name,
            "seed": self.seed,
            "outcome": self.outcome,
            "events": self.events,
            "bite_time": self.bite_time,
            "timeout_time": self.timeout_time,
            "peak_force_n": self.peak_force_n,
            "peak_force_components": list(self.peak_force_components),
            "mean_deviation_m": self.mean_deviation_m,
            "n_ticks": self.n_ticks,
            "food_detached": self.food_detached,
            "food_taken_by_bite": self.food_taken_by_bite,
            "final_phase": self.final_phase,
            "completed": self.completed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _resolve_chain(name: str) -> ChainModel:
    try:
        if name.endswith(".json"):
            return load_chain(name)
        return bundled_chain(name)
    except (OSError, KeyError, ValueError) as e:
        raise ConfigError(f"cannot resolve chain {name!r}: {e}") from e


# parameters and defaults of the injected-disturbance kinds (forces in N)
DISTURBANCE_PARAMS = {
    "none": {},
    "sinusoid": {"amplitude_n": 0.5, "period_s": 1.0, "direction": [1.0, 0.0, 0.0]},
    "random-walk": {"sigma_n": 1.0, "amplitude_n": 0.8},  # sigma in N / sqrt(s)
    "array": {"trace": None},  # (n, 6) rows; the last row holds past its end
}


def _disturbance_trace(cfg: dict, n: int, dt: float, seed: int) -> np.ndarray:
    kind = cfg["kind"]
    if kind not in DISTURBANCE_PARAMS:
        raise ConfigError(f"unknown disturbance kind {kind!r}")
    if kind == "none":
        return np.zeros((1, 6))
    if kind == "array":
        arr = np.asarray(cfg["trace"], dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 6:
            raise ConfigError("disturbance trace must be (n, 6)")
        return arr
    p = {**DISTURBANCE_PARAMS[kind], **cfg}
    out = np.zeros((n, 6))
    out[:, :3] = signal_trace(kind, n, dt, seed, float(p["amplitude_n"]),
                              period=float(p.get("period_s", 1.0)),
                              direction=p.get("direction", (1.0, 0.0, 0.0)),
                              sigma=float(p.get("sigma_n", 0.0)))
    return out


@dataclass
class TrialSetup:
    """Everything run_trial builds from a scenario before the first tick."""

    cfg: dict
    world: WorldState
    fsm: FsmState
    ctrl: ControllerState
    robot: VirtualRobotState
    n_ticks: int
    chain: ChainModel | None
    mouth_error_mm: np.ndarray


def _prepare_trial(scenario: Scenario) -> TrialSetup:
    """Scan, targeting, plan, traces and the initial states of one trial.

    Scenario.from_dict merged the defaults in, so every key is present."""
    cfg = scenario.raw
    dt = TICK_PERIOD
    seed = int(cfg["seed"])

    foods = load_food_presets()
    food_name = cfg["food"]
    if food_name not in foods:
        raise ConfigError(f"unknown food preset {food_name!r}")
    food = foods[food_name]

    chain = _resolve_chain(cfg["chain"]) if cfg["joint_log_stride"] else None

    mcfg = cfg["mouth"]
    true_mouth_frame = mouth_frame_from_position(mcfg["center_position"],
                                                 mcfg.get("facing"))
    mouth = MouthModel(
        center=true_mouth_frame,
        aperture=float(mcfg["aperture_m"]),
        stiffness=float(mcfg["stiffness"]),
        damping=float(mcfg["damping"]),
        lateral_halfwidth=float(mcfg["lateral_halfwidth_m"]),
    )

    # perception: scan the food, then target the (possibly mislocated) mouth
    scan_cfg = cfg["scan"]
    scan_pose = Pose(true_mouth_frame.position, true_mouth_frame.orientation)
    cloud = synth_depth_scan(food, scan_pose,
                             resolution=float(scan_cfg["resolution_mm"]),
                             seed=seed, noise_mm=float(scan_cfg["noise_mm"]))
    offsets = compute_offsets(food_bounding_box(cloud))

    err_mm = np.asarray(cfg["mouth_error_mm"], dtype=float)
    perceived_center = true_mouth_frame.position + (
        err_mm[0] * true_mouth_frame.x_axis
        + err_mm[1] * true_mouth_frame.y_axis
        + err_mm[2] * true_mouth_frame.z_axis) / 1000.0
    perceived_mouth = Pose(perceived_center, true_mouth_frame.orientation)

    pitch = np.deg2rad(float(cfg["fork_pitch_deg"]))
    entry_depth = float(cfg["entry_depth_m"])
    pre_mouth = target_pose(perceived_mouth, offsets, entry_depth=entry_depth,
                            fork_pitch=pitch)

    seg = cfg["segments"]
    mode = cfg["transfer_mode"]
    arc_s, entry_s, exit_s = float(seg["arc_s"]), float(seg["entry_s"]), float(seg["exit_s"])
    radius = float(cfg["arc_radius_m"])
    start_angle = np.deg2rad(float(cfg["arc_start_deg"]))
    if mode == "in_mouth":
        plan = build_transfer_plan(
            perceived_mouth, pre_mouth, arc_duration=arc_s, entry_duration=entry_s,
            exit_duration=exit_s, radius=radius, start_angle=start_angle,
            entry_depth=entry_depth, lowering=float(cfg["lowering_m"]),
        )
        retract_s = float(seg["retract_s"])
    elif mode == "fixed_pose":
        plan = build_fixed_pose_plan(
            perceived_mouth, pre_mouth, arc_duration=arc_s, dwell_duration=entry_s,
            return_duration=exit_s, radius=radius, start_angle=start_angle,
        )
        retract_s = 0.0
    else:
        raise ConfigError(f"unknown transfer mode {mode!r}")

    detector = BiteDetector(
        threshold=float(cfg["bite_threshold_n"]),
        axis=perceived_mouth.y_axis,
        timeout=float(cfg["bite_timeout_s"]),
    )
    fsm = FsmState(
        plan=plan, detector=detector,
        scan_duration=float(seg["scan_s"]),
        face_duration=float(seg["face_detect_s"]),
        retract_duration=retract_s,
    )

    bite_cfg = cfg["bite"]
    bite = BiteScript(
        t_bite=float(bite_cfg["t_bite_s"]),
        peak_force=float(bite_cfg["peak_force_n"]),
        ramp=float(bite_cfg["ramp_s"]),
        refuse=bool(bite_cfg["refuse"]),
    )

    imp_cfg = cfg["impedance"]
    mass = np.asarray(cfg["virtual_mass"], dtype=float)
    stiffness = np.asarray(imp_cfg["stiffness"], dtype=float)
    damping = imp_cfg["damping"]
    if damping is None:
        damping = 2.0 * np.sqrt(stiffness * mass)
    impedance = ImpedanceParams(stiffness, np.asarray(damping, dtype=float))

    entry_gains = ReactivityGains.from_vectors(cfg["entry_gains"]["k_p"],
                                               cfg["entry_gains"]["k_i"])
    exit_gains = ReactivityGains.from_vectors(cfg["exit_gains"]["k_p"],
                                              cfg["exit_gains"]["k_i"])

    n_ticks = int(round(float(cfg["horizon_s"]) / dt)) + 1
    perturb = perturbation_trace(cfg["head_perturbation"]["kind"],
                                 cfg["head_perturbation"], n_ticks, dt, seed)
    disturbance = _disturbance_trace(cfg["disturbance"], n_ticks, dt, seed + 1)

    cutoff = float(cfg["lowpass_cutoff_hz"])
    alpha = None
    if cutoff > 0:
        alpha = dt / (dt + 1.0 / (2.0 * np.pi * cutoff))

    world = WorldState(
        mouth=mouth, perceived_mouth=perceived_mouth, bite=bite,
        attachment=FoodAttachmentState(food),
        safety=SafetyLatch(float(cfg["safety_limit_n"]), cfg["safety_mode"]),
        impedance=impedance, entry_gains=entry_gains, exit_gains=exit_gains,
        exit_axis=perceived_mouth.z_axis,
        perturb_trace=perturb, disturbance_trace=disturbance,
        lowpass_alpha=alpha,
    )

    robot = VirtualRobotState(plan.start_pose, np.zeros(6), mass)
    try:
        ctrl = ControllerState(gains=world.gains_entry,
                               integral_cap=float(cfg["integral_cap_n"]))
    except ValueError as e:
        raise ConfigError(f"scenario key 'integral_cap_n': {e}") from e
    return TrialSetup(cfg, world, fsm, ctrl, robot, n_ticks, chain, err_mm)


# column layout of the kernel's per-tick record rows: t, position,
# orientation, force, torque, phase, setpoint position and orientation
_REC_T, _REC_POS, _REC_ORI, _REC_FORCE, _REC_TORQUE = 0, 1, 4, 8, 11
_REC_PHASE, _REC_SET_POS, _REC_SET_ORI, _REC_WIDTH = 14, 15, 18, 22


def _tick_kernel(setup: TrialSetup) -> tuple[TickLog, list[tuple[int, Pose]]]:
    """The 1 kHz loop of run_trial as one flat kernel, run from t = 0;
    returns the tick log and the robot pose at each joint-log tick.

    Tick for tick it computes, to the bit, what a loop over simulate_tick
    computes from the setup's initial states, but it builds no Pose,
    Wrench or state object per tick: the plant, controller, filter and
    FSM state live in float locals and preallocated float64 arrays, and
    each tick writes one row of a preallocated record array. Plain floats
    carry only +, -, *, /, square roots, comparisons, abs, min and max,
    which round exactly as numpy does. Every dot product and norm stays a
    BLAS call on a float64 array (BLAS fuses multiply-adds, so a Python
    sum can differ in the last bit), the integral clamp stays np.clip,
    and the trigonometric functions stay numpy's.

    The kernel only records: the report is read from the log and its
    events, and the one state updated in place is the food attachment,
    whose detachment feeds back into the bite force. Joint logging is
    left to the caller: every ``joint_log_stride`` ticks the run keeps
    the robot pose, which simulate_tick builds as Pose(position,
    unnormalised orientation).
    """
    world, fsm, robot, n_ticks = setup.world, setup.fsm, setup.robot, setup.n_ticks
    ik_stride = int(setup.cfg["joint_log_stride"])
    dt = TICK_PERIOD
    safety = world.safety
    safety_check(Wrench.zero(), safety.limit, safety.mode)  # a bad limit or mode raises
    tripped = False
    norm_mode = safety.mode == "norm"
    limit = safety.limit

    b3 = np.empty(3)
    b4 = np.empty(4)

    def norm3(x, y, z):
        b3[0] = x
        b3[1] = y
        b3[2] = z
        return math.sqrt(b3.dot(b3))

    def unit(w, x, y, z):
        # quat_normalize
        b4[0] = w
        b4[1] = x
        b4[2] = y
        b4[3] = z
        n = math.sqrt(b4.dot(b4))
        if n == 0.0 or not math.isfinite(n):
            raise ValueError("cannot normalize zero or non-finite quaternion")
        return w / n, x / n, y / n, z / n

    def qmul(aw, ax, ay, az, bw, bx, by, bz):
        # quat_mul
        return (aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw)

    def rotvec(w, x, y, z):
        # quat_to_rotvec
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        s = norm3(x, y, z)
        if s < 1e-12:
            return 2.0 * x, 2.0 * y, 2.0 * z
        c = float(2.0 * np.arctan2(s, w)) / s
        return c * x, c * y, c * z

    # mouth frames: as given, and as Pose() renormalises it when the head
    # moves; columns of the rotation matrix for contact, the quaternion's
    # z axis for the lip test and the quaternion itself for the bite
    mouth = world.mouth
    lip, cavity = mouth.lip_margin, mouth.cavity_depth
    half_aperture = mouth.aperture / 2.0
    k_mouth, c_mouth, lateral = mouth.stiffness, mouth.damping, mouth.lateral_halfwidth
    mx0, my0, mz0 = mouth.center.position.tolist()
    frames = []
    for q in (mouth.center.orientation, quat_normalize(mouth.center.orientation)):
        rot = quat_to_matrix(q)
        z_axis = quat_rotate(q, np.array([0.0, 0.0, 1.0]))
        frames.append((rot[:, 0], rot[:, 1], rot[:, 2], z_axis, q,
                       rot[:, 0].tolist(), rot[:, 1].tolist()))
    head = world.perturb_trace
    if not np.all(np.isfinite(head[:n_ticks])):
        raise ValueError("pose position must be finite")
    head_moves = (head != 0.0).any(axis=1).tolist()
    last_head = len(head) - 1
    dist = world.disturbance_trace
    dist_on = dist.any(axis=1).tolist()
    last_dist = len(dist) - 1

    script = world.bite
    attachment = world.attachment
    detached = attachment.detached
    alpha = world.lowpass_alpha
    filt = [0.0] * 6

    # the two gain sets: force matrices, torque gains, clamp of the integral
    def gain_set(g):
        cap = setup.ctrl.integral_cap * g._cap_per_newton
        return g.p_force, g.i_force, g.p_torque.tolist(), g.i_torque.tolist(), -cap, cap
    gains = {False: gain_set(world.gains_entry), True: gain_set(world.gains_exit)}
    exit_gains = False
    p_force, i_force, p_torque, i_torque, cap_lo, cap_hi = gains[exit_gains]
    integral = np.zeros(6)
    integral_force = integral[:3]
    acc = np.empty(6)
    f_meas = np.empty(6)
    f_meas_force = f_meas[:3]
    stiff = world.impedance.stiffness.tolist()
    damp = world.impedance.damping.tolist()
    mass = robot.mass.tolist()

    # plan: waypoints and, per waypoint interval, slerp's constants
    plan = fsm.plan
    times = plan.times.tolist()
    t_first, t_last = times[0], times[-1]
    last_wp = len(times) - 1
    waypoints = [(*p.position.tolist(), *p.orientation.tolist()) for p in plan.poses]
    intervals = []
    for j in range(last_wp):
        a, b = plan.poses[j].orientation, plan.poses[j + 1].orientation
        dot = float(np.dot(a, b))
        if dot < 0.0:
            b = -b
            dot = -dot
        span = times[j + 1] - times[j]
        if dot > 0.9995:
            intervals.append((span, (b - a).tolist(), None, None, None))
        else:
            theta = np.arccos(np.clip(dot, -1.0, 1.0))
            intervals.append((span, None, theta, np.sin(theta), b.tolist()))

    def interpolate_at(t):
        # transfer.interpolate, as a 7-tuple
        t = min(max(t, t_first), t_last)
        j = bisect_right(times, t) - 1
        if j >= last_wp:
            return waypoints[-1]
        if t == times[j]:
            return waypoints[j]
        span, delta, theta, sin_theta, b = intervals[j]
        frac = (t - times[j]) / span
        ax, ay, az, aw, aqx, aqy, aqz = waypoints[j]
        bx, by, bz = waypoints[j + 1][:3]
        if delta is not None:
            qw, qx, qy, qz = unit(aw + frac * delta[0], aqx + frac * delta[1],
                                  aqy + frac * delta[2], aqz + frac * delta[3])
        else:
            ca = float(np.sin((1.0 - frac) * theta) / sin_theta)
            cb = float(np.sin(frac * theta) / sin_theta)
            qw, qx, qy, qz = (ca * aw + cb * b[0], ca * aqx + cb * b[1],
                              ca * aqy + cb * b[2], ca * aqz + cb * b[3])
        return ((1.0 - frac) * ax + frac * bx, (1.0 - frac) * ay + frac * by,
                (1.0 - frac) * az + frac * bz, *unit(qw, qx, qy, qz))

    # FSM: integer phase, start times, the detector's elapsed time
    SCAN, FACE, APPROACH, ENTRY, WAIT, EXIT, RETRACT, DONE, ABORTED = range(9)
    names = [p.name for p in TransferPhase]
    arc = _segment_or_none(plan, "arc")
    entry = _segment_or_none(plan, "linear-entry") or _segment_or_none(plan, "dwell")
    exit_seg = _segment_or_none(plan, "linear-exit") or _segment_or_none(plan, "arc-return")
    approach = arc if arc is not None else entry
    approach_dur = approach.t_end - approach.t_start
    entry_dur = entry.t_end - entry.t_start
    exit_dur = exit_seg.t_end - exit_seg.t_start
    retract_dur = fsm.retract_duration
    start_sp = waypoints[0]
    detector = fsm.detector
    axis = detector.axis
    timeout_at = detector.timeout - 1e-9
    phase, t_phase_start, elapsed, bitten = SCAN, 0.0, 0.0, False
    wait_started_at = hold = None

    px, py, pz = robot.pose.position.tolist()
    qw, qx, qy, qz = robot.pose.orientation.tolist()
    raw_q = None  # orientation before its last normalisation, once integrated
    tw = [0.0] * 6
    prev_sp = None

    rec = np.empty((n_ticks, _REC_WIDTH))
    events: list[dict] = []
    ik_ticks = []

    for i in range(n_ticks):
        t = i * dt
        jh = i if i < last_head else last_head
        if head_moves[jh]:
            ox, oy, oz = head[jh].tolist()
            mx, my, mz = mx0 + ox, my0 + oy, mz0 + oz
            x_hat, y_hat, z_hat, z_axis, mouth_q, xh, yh = frames[1]
        else:
            mx, my, mz = mx0, my0, mz0
            x_hat, y_hat, z_hat, z_axis, mouth_q, xh, yh = frames[0]

        # forces on the fork: penalty contact, then the bite, then the
        # injected disturbance (humansim.contact_force and bite_force)
        b3[0] = px - mx
        b3[1] = py - my
        b3[2] = pz - mz
        z_m = float(b3.dot(z_hat))
        f0 = f1 = f2 = 0.0
        if not (z_m > lip or z_m < -cavity):
            x_m = float(b3.dot(x_hat))
            y_m = float(b3.dot(y_hat))
            v = np.array(tw[:3])
            v_x = float(v.dot(x_hat))
            v_y = float(v.dot(y_hat))
            if y_m < -half_aperture:
                mag = max(0.0, k_mouth * (-half_aperture - y_m) + c_mouth * (-v_y))
                f0, f1, f2 = f0 + mag * yh[0], f1 + mag * yh[1], f2 + mag * yh[2]
            elif y_m > half_aperture:
                mag = max(0.0, k_mouth * (y_m - half_aperture) + c_mouth * v_y)
                f0, f1, f2 = f0 - mag * yh[0], f1 - mag * yh[1], f2 - mag * yh[2]
            if x_m > lateral:
                mag = max(0.0, k_mouth * (x_m - lateral) + c_mouth * v_x)
                f0, f1, f2 = f0 - mag * xh[0], f1 - mag * xh[1], f2 - mag * xh[2]
            elif x_m < -lateral:
                mag = max(0.0, k_mouth * (-lateral - x_m) + c_mouth * (-v_x))
                f0, f1, f2 = f0 + mag * xh[0], f1 + mag * xh[1], f2 + mag * xh[2]
        bite_n = 0.0
        if not detached and not script.refuse:
            t_in_bite = None
            if phase == WAIT:
                t_in_bite = t - t_phase_start
            elif phase == EXIT and bitten and float(b3.dot(z_axis)) <= lip:
                t_in_bite = t - wait_started_at
            if t_in_bite is not None and t_in_bite >= script.t_bite:
                frac = (min(1.0, (t_in_bite - script.t_bite) / script.ramp)
                        if script.ramp > 0 else 1.0)
                bite_y = -frac * script.peak_force
                if bite_y != 0.0:
                    bite_n = abs(bite_y)
                    bf = quat_rotate(mouth_q, np.array([0.0, bite_y, 0.0])).tolist()
                    f0, f1, f2 = f0 + bf[0], f1 + bf[1], f2 + bf[2]
        jd = i if i < last_dist else last_dist
        if dist_on[jd]:
            d = dist[jd].tolist()
            f0, f1, f2 = f0 + d[0], f1 + d[1], f2 + d[2]
            m0, m1, m2 = 0.0 + d[3], 0.0 + d[4], 0.0 + d[5]
        else:
            m0 = m1 = m2 = 0.0
        # the sensor reads the tool-applied wrench
        fm0, fm1, fm2, tm0, tm1, tm2 = -f0, -f1, -f2, -m0, -m1, -m2

        if not tripped:
            if norm_mode:
                tripped = norm3(fm0, fm1, fm2) > limit
            else:
                tripped = abs(fm0) > limit or abs(fm1) > limit or abs(fm2) > limit

        # transfer.step: chain through elapsed phases to this tick's setpoint
        tick_events = []
        f_y = None
        if tripped and phase != ABORTED:
            b3[0], b3[1], b3[2] = fm0, fm1, fm2
            f_y = float(np.dot(b3, axis))
            tick_events.append((phase, ABORTED, "safety_abort"))
            phase = ABORTED
            t_phase_start = t
        while phase != ABORTED:
            t_in = t - t_phase_start
            if phase == SCAN or phase == FACE:
                dur = fsm.scan_duration if phase == SCAN else fsm.face_duration
                if t_in >= dur:
                    tick_events.append((phase, phase + 1, None))
                    phase += 1
                    t_phase_start = t - (t_in - dur)
                    continue
                sp = start_sp
            elif phase == APPROACH:
                if t_in >= approach_dur:
                    tick_events.append((phase, ENTRY, None))
                    phase = ENTRY
                    t_phase_start = t - (t_in - approach_dur)
                    continue
                sp = interpolate_at(approach.t_start + t_in)
            elif phase == ENTRY:
                if t_in >= entry_dur:
                    hold = interpolate_at(entry.t_end)
                    tick_events.append((phase, WAIT, None))
                    phase = WAIT
                    t_phase_start = wait_started_at = t - (t_in - entry_dur)
                    continue
                sp = interpolate_at(entry.t_start + t_in)
            elif phase == WAIT:
                # transfer.detect_bite
                b3[0], b3[1], b3[2] = fm0, fm1, fm2
                f_y = float(np.dot(b3, axis))
                bitten = abs(f_y) > detector.threshold
                if not bitten:
                    elapsed = elapsed + dt
                if bitten or elapsed >= timeout_at:
                    tick_events.append((phase, EXIT, "bite" if bitten else "timeout"))
                    phase = EXIT
                    t_phase_start = t
                sp = hold
            elif phase == EXIT:
                if t_in >= exit_dur:
                    tick_events.append((phase, RETRACT, None))
                    phase = RETRACT
                    t_phase_start = t - (t_in - exit_dur)
                    continue
                sp = interpolate_at(exit_seg.t_start + t_in)
            elif phase == RETRACT:
                if arc is None or retract_dur <= 0 or t_in >= retract_dur:
                    hold = start_sp if arc is None else interpolate_at(arc.t_start)
                    tick_events.append((phase, DONE, None))
                    phase = DONE
                    t_phase_start = t
                    continue
                frac = t_in / retract_dur
                sp = interpolate_at(arc.t_end - frac * (arc.t_end - arc.t_start))
            else:  # DONE
                sp = hold
            break
        for p_from, p_to, kind in tick_events:
            if f_y is None:
                b3[0], b3[1], b3[2] = fm0, fm1, fm2
                f_y = float(np.dot(b3, axis))
            events.append({"t": t, "phase_from": names[p_from], "phase_to": names[p_to],
                           "event": kind, "f_y": f_y})

        # exit-side gains; the integral resets when the exit side begins
        want_exit = phase == EXIT or phase == RETRACT
        if want_exit != exit_gains:
            exit_gains = want_exit
            p_force, i_force, p_torque, i_torque, cap_lo, cap_hi = gains[exit_gains]
            if exit_gains:
                integral[:] = 0.0

        if phase == ABORTED:
            # the plant freezes where it is
            tw = [0.0] * 6
            sp = (px, py, pz, qw, qx, qy, qz)
        else:
            # impedance wrench from the setpoint error (geometry.pose_error,
            # controller.desired_wrench)
            spx, spy, spz, sqw, sqx, sqy, sqz = sp
            e0, e1, e2 = spx - px, spy - py, spz - pz
            e3, e4, e5 = rotvec(*qmul(sqw, sqx, sqy, sqz, qw, -qx, -qy, -qz))
            if prev_sp is None:
                vd = (0.0,) * 6
            else:
                ppx, ppy, ppz, pqw, pqx, pqy, pqz = prev_sp
                r3, r4, r5 = rotvec(*qmul(sqw, sqx, sqy, sqz, pqw, -pqx, -pqy, -pqz))
                vd = ((spx - ppx) / dt, (spy - ppy) / dt, (spz - ppz) / dt,
                      r3 / dt, r4 / dt, r5 / dt)
            err = (e0, e1, e2, e3, e4, e5)
            v_err = [v - w for v, w in zip(vd, tw)]
            f_cmd = [k * e + c * v for k, e, c, v in zip(stiff, err, damp, v_err)]
            # a non-finite error makes its wrench component non-finite too
            if not math.isfinite(sum(f_cmd)):
                if not all(map(math.isfinite, (*err, *v_err))):
                    raise ValueError("pose/velocity errors must be finite")

            # reactive PI term on the (optionally low-passed) measurement
            # (controller.reactive_term)
            fm = (fm0, fm1, fm2, tm0, tm1, tm2)
            if alpha is not None:
                filt = [y + alpha * (x - y) for x, y in zip(fm, filt)]
                fm = filt
            if not math.isfinite(sum(fm)):
                if not all(map(math.isfinite, fm)):
                    raise SensorFault("non-finite force measurement")
            f_meas[:] = fm
            np.multiply(f_meas, dt, out=acc)
            np.add(integral, acc, out=acc)
            np.clip(acc, cap_lo, cap_hi, out=integral)
            bar_f = (p_force.dot(f_meas_force) + i_force.dot(integral_force)).tolist()
            it = integral.tolist()
            f_bar = (*bar_f, p_torque[0] * fm[3] + i_torque[0] * it[3],
                     p_torque[1] * fm[4] + i_torque[1] * it[4],
                     p_torque[2] * fm[5] + i_torque[2] * it[5])

            # semi-implicit Euler through the virtual mass
            on_fork = (f0, f1, f2, m0, m1, m2)
            tw = [w + dt * ((c - b + f) / m)
                  for w, c, b, f, m in zip(tw, f_cmd, f_bar, on_fork, mass)]
            px, py, pz = px + dt * tw[0], py + dt * tw[1], pz + dt * tw[2]
            r0, r1, r2 = dt * tw[3], dt * tw[4], dt * tw[5]
            if r0 != 0.0 or r1 != 0.0 or r2 != 0.0:
                # geometry.quat_from_rotvec, then quat_mul onto the pose
                angle = norm3(r0, r1, r2)
                if angle < 1e-12:
                    aw, ax, ay, az = unit(1.0 - angle * angle / 8.0, 0.5 * r0, 0.5 * r1,
                                          0.5 * r2)
                else:
                    u0, u1, u2 = r0 / angle, r1 / angle, r2 / angle
                    n = norm3(u0, u1, u2)
                    half = 0.5 * angle
                    aw = float(np.cos(half))
                    s = float(np.sin(half)) / n
                    ax, ay, az = s * u0, s * u1, s * u2
                raw_q = qmul(aw, ax, ay, az, qw, qx, qy, qz)
            else:
                raw_q = (qw, qx, qy, qz)
            qw, qx, qy, qz = unit(*raw_q)
            # the checks of Pose and VirtualRobotState, in their order
            if not math.isfinite(px + py + pz + sum(tw)):
                if not all(map(math.isfinite, (px, py, pz))):
                    raise ValueError("pose position must be finite")
                if not all(map(math.isfinite, tw)):
                    raise ValueError("twist must be finite")
        prev_sp = sp

        # food attachment, on-fork forces split by source
        transport = (norm3(f0, f1, f2) if f0 != 0.0 or f1 != 0.0 or f2 != 0.0
                     else 0.0) - bite_n
        if not detached:
            detached = attachment.update(max(0.0, transport), t, bite_engaged=False)
            if bite_n > 0.0:
                detached = attachment.update(bite_n, t, bite_engaged=True)

        rec[i] = (t, px, py, pz, qw, qx, qy, qz, fm0, fm1, fm2, tm0, tm1, tm2, phase, *sp)
        if ik_stride and i % ik_stride == 0:
            ik_ticks.append((i, (px, py, pz), raw_q))


    # the log's float arrays are column views of the record rows
    log = TickLog(
        t=rec[:, _REC_T], position=rec[:, _REC_POS:_REC_ORI],
        orientation=rec[:, _REC_ORI:_REC_FORCE], force=rec[:, _REC_FORCE:_REC_TORQUE],
        torque=rec[:, _REC_TORQUE:_REC_PHASE], phase=rec[:, _REC_PHASE].astype(np.int8),
        set_position=rec[:, _REC_SET_POS:_REC_SET_ORI],
        set_orientation=rec[:, _REC_SET_ORI:_REC_WIDTH], events=events,
    )
    ik_targets = [(i, robot.pose if q is None else Pose(np.array(p), np.array(q)))
                  for i, p, q in ik_ticks]
    return log, ik_targets


def _log_joints(log: TickLog, ik_targets: list[tuple[int, Pose]], chain: ChainModel) -> None:
    """Joint configurations at the logged ticks, each IK solve warm-started
    from the one before."""
    if not ik_targets:
        return
    q_guess = chain.home
    ik_params = IkParams(max_iter=60)
    rows = []
    for _, pose in ik_targets:
        q_guess = ik_damped_least_squares(chain, pose, q_guess, ik_params).q
        rows.append(q_guess)
    log.joints = np.array(rows)
    log.joint_ticks = np.array([i for i, _ in ik_targets], dtype=np.int64)


def _finish_trial(setup: TrialSetup, log: TickLog) -> TrialReport:
    """Classify the outcome and build the report from the log's events and
    the food attachment."""
    # phases only move forward, so each of these transitions occurs at most once
    at = {(ev["phase_from"], ev["phase_to"], ev["event"]): ev["t"] for ev in log.events}
    bite_time = at.get(("BITE_WAIT", "EXIT", "bite"))
    timeout_time = at.get(("BITE_WAIT", "EXIT", "timeout"))
    trip_phase = next((p_from for p_from, _, kind in at if kind == "safety_abort"), None)

    err_mm, world = setup.mouth_error_mm, setup.world
    att = world.attachment
    lateral_mm = world.mouth.lateral_halfwidth * 1000.0
    aperture_mm = world.mouth.aperture * 1000.0
    imprecise = (abs(err_mm[0]) > lateral_mm) or (abs(err_mm[1]) > aperture_mm / 2.0)
    exit_deadline = at.get(("EXIT", "RETRACT_ARC", None), np.inf)
    dropped = (att.detached and not att.taken_by_bite
               and att.detach_time is not None and att.detach_time <= exit_deadline)

    # most specific root cause first: a lost food item explains a missing
    # bite, a mislocated mouth explains a crash, the bare abort comes last
    if trip_phase == "BITE_WAIT":
        outcome = "bite_failure"
    elif dropped:
        outcome = "drop"
    elif timeout_time is not None:
        outcome = "bite_failure"
    elif imprecise:
        outcome = "imprecise"
    elif trip_phase is not None:
        outcome = "aborted"
    else:
        outcome = "success"

    final_phase = TransferPhase(int(log.phase[-1])).name
    abs_f = np.abs(log.force)
    return TrialReport(
        scenario_name=setup.cfg["name"],
        seed=int(setup.cfg["seed"]),
        outcome=outcome,
        events=log.events,
        bite_time=bite_time,
        timeout_time=timeout_time,
        peak_force_n=float(np.linalg.norm(log.force, axis=1).max()),
        peak_force_components=tuple(float(x) for x in abs_f.max(axis=0)),
        mean_deviation_m=float(log.deviation().mean()),
        n_ticks=setup.n_ticks,
        food_detached=att.detached,
        food_taken_by_bite=att.taken_by_bite,
        final_phase=final_phase,
        completed=final_phase == "DONE",
        log=log,
    )


def run_trial(scenario: Scenario) -> TrialReport:
    """Execute scan, targeting, and the full transfer FSM for one trial."""
    setup = _prepare_trial(scenario)
    log, ik_targets = _tick_kernel(setup)
    _log_joints(log, ik_targets, setup.chain)
    return _finish_trial(setup, log)


def _trial_seed(suite_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=suite_seed,
                                      spawn_key=(index,)).generate_state(1)[0])


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate per-method outcome table for a batch of trials."""

    name: str
    seed: int
    total: int
    per_method: dict[str, dict[str, int]]
    trial_outcomes: list[dict]

    def success_rates(self) -> dict[str, float]:
        return {m: c.get("success", 0) / max(1, sum(c.values()))
                for m, c in self.per_method.items()}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "total": self.total,
            "per_method": self.per_method,
            "success_rates": self.success_rates(),
            "trial_outcomes": self.trial_outcomes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def table(self) -> str:
        lines = [f"{'method':<16} {'success':>8} " + " ".join(
            f"{k:>12}" for k in OUTCOMES if k != "success") + f" {'total':>6} {'rate':>7}"]
        rates = self.success_rates()
        for method in sorted(self.per_method):
            counts = self.per_method[method]
            total = sum(counts.values())
            row = f"{method:<16} {counts.get('success', 0):>8} "
            row += " ".join(f"{counts.get(k, 0):>12}" for k in OUTCOMES if k != "success")
            row += f" {total:>6} {rates[method]:>6.1%}"
            lines.append(row)
        return "\n".join(lines)


def run_suite(suite_cfg: dict) -> SuiteReport:
    """Run every scenario x repetition with seeds derived from the suite seed.

    Every key and every trial's scenario is checked before the first
    trial runs."""
    # the seed's default only gives its kind: a suite must set it
    cfg = {"name": "suite", "seed": 0, "repetitions": 1, "trials": None}
    _check_keys(suite_cfg, cfg, "suite")
    if "seed" not in suite_cfg:
        raise ConfigError("suite seed is mandatory")
    cfg.update(suite_cfg)
    suite_seed = int(cfg["seed"])
    reps = int(cfg["repetitions"])
    if reps < 1:
        raise ConfigError(f"suite key 'repetitions' must be >= 1, got {reps}")
    entries = cfg["trials"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("suite needs a non-empty trials list")

    trials = []
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"suite trials[{n}] must be an object")
        _check_keys(entry, {"method": "ours", "scenario": None}, "suite", f"trials[{n}].")
        overrides = dict(entry.get("scenario", {}))
        method = entry.get("method", overrides.get("gain_preset", "ours"))
        overrides.setdefault("gain_preset", method)
        for _ in range(reps):
            seed = _trial_seed(suite_seed, len(trials))
            trials.append((method, Scenario.from_dict({**overrides, "seed": seed})))

    per_method: dict[str, dict[str, int]] = {}
    outcomes = []
    for idx, (method, scenario) in enumerate(trials):
        report = run_trial(scenario)
        bucket = per_method.setdefault(method, {k: 0 for k in OUTCOMES})
        bucket[report.outcome] += 1
        outcomes.append({"index": idx, "method": method, "seed": report.seed,
                         "outcome": report.outcome})

    return SuiteReport(
        name=cfg["name"],
        seed=suite_seed,
        total=len(trials),
        per_method=per_method,
        trial_outcomes=outcomes,
    )


def build_study_inputs(study_cfg: dict | None = None):
    """Resolve a study config dict into run_wrist_study arguments.

    Keys must be those of default_study_dict(), plus an optional
    "mouth_facing"; an unknown key raises ConfigError with its path.
    """
    from .comfort import ComfortParams, PoseDistribution
    from .transfer import transfer_orientation

    defaults = default_study_dict()
    _check_keys(study_cfg or {}, {**defaults, "mouth_facing": None}, "study")
    cfg = _merge(defaults, study_cfg or {})
    chain_with = _resolve_chain(cfg["chain_with"])
    chain_without = _resolve_chain(cfg["chain_without"])

    mouth = mouth_frame_from_position(cfg["mouth_position"], cfg.get("mouth_facing"))
    center = Pose(mouth.position, transfer_orientation(mouth))
    dist = PoseDistribution.around(
        center,
        translation=float(cfg["translation_halfwidth_m"]),
        rotation=np.deg2rad(float(cfg["rotation_halfwidth_deg"])),
        count=int(cfg["count"]),
        seed=int(cfg["seed"]),
    )
    ccfg = cfg["comfort"]
    head = (mouth.position
            - float(ccfg["head_offset_back_m"]) * mouth.z_axis
            + float(ccfg["head_offset_up_m"]) * mouth.y_axis)
    comfort = ComfortParams(
        head_position=head,
        axis=mouth.z_axis,
        half_angle=np.deg2rad(float(ccfg["half_angle_deg"])),
        length=float(ccfg["length_m"]),
        weight=float(ccfg["weight"]),
    )
    ik_cfg = cfg["ik"]
    ik_params = IkParams(damping=float(ik_cfg["damping"]),
                         pos_tol=float(ik_cfg["pos_tol"]),
                         rot_tol=float(ik_cfg["rot_tol"]),
                         max_iter=int(ik_cfg["max_iter"]))
    home = np.asarray(cfg["home"], dtype=float)
    return chain_with, chain_without, dist, ik_params, comfort, home

"""Simulation loop wiring perception, trajectory, FSM, controller, and
the simulated human together at a 1 kHz tick, plus trial/suite runners
and trajectory export.

The robot is a task-space virtual-mass admittance plant: the commanded
wrench minus the reactive correction, plus the physical contact forces,
integrates through the virtual mass with semi-implicit Euler. Joint
configurations are recovered by IK from the logged poses at a
configurable stride, for logging only: run_trial logs them, run_suite,
which reports outcomes only, does not. run_suite runs its trials in
forked worker processes, one per usable CPU, with the bytes of a run in
one process. Every run is seed-deterministic end to end.

run_trial prepares a trial, runs its ticks from t = 0 in _tick_kernel,
a flat loop over floats that only records and returns its tick log and
food attachment, and reads the report from those. The kernel writes
nothing into its setup, so a setup runs to the same bytes every time.
simulate_tick is the same tick as a pipeline of Pose, Wrench and state
objects, kept as the reference the kernel must match bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
import zlib
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .geometry import (Pose, mat_to_quat_rows, pose_error, quat_conj, quat_from_rotvec,
                       quat_mul, quat_normalize, quat_rotate, quat_to_matrix, quat_to_rotvec,
                       quat_to_rotvec_rows)
from .kinematics import (ChainModel, IkParams, bundled_chain,
                         ik_damped_least_squares, load_chain)
from .comfort import ComfortParams, JsonReport, PoseDistribution
from .controller import (ControllerState, ImpedanceParams, ReactivityGains, SafetyLatch,
                         SensorFault, TICK_PERIOD, Wrench, desired_wrench, phase_gains,
                         reactive_term)
from .transfer import (BiteDetector, FsmState, TransferPhase, EXIT_SIDE_PHASES,
                       build_fixed_pose_plan, build_transfer_plan, interpolate_rows,
                       phase_segments, step, transfer_orientation)
from .perception import FoodOffsets, compute_offsets, scan_bounding_box, target_pose
from .humansim import (CAVITY_DEPTH, LIP_MARGIN, BiteScript,
                       FoodAttachmentState, MouthModel, bite_force, contact_force,
                       load_food_presets, perturbation_trace, signal_trace)
from .presets import (DISTURBANCE_PARAMS, MAX_SUITE_TICKS, SCENARIO, STUDY, SUITE, SUITE_TRIAL,
                      ConfigError, check_keys, resolve)

CSV_HEADER = ("t_s,px,py,pz,qw,qx,qy,qz,fx,fy,fz,tau_x,tau_y,tau_z,phase,"
              "set_px,set_py,set_pz,set_qw,set_qx,set_qy,set_qz,deviation_m")

_CSV_CHUNK_ROWS = 1000

OUTCOMES = ("success", "bite_failure", "drop", "imprecise", "aborted")


def _horizontal(v) -> bool:
    """Whether v's horizontal part has a norm >= 1e-9, judged by its square
    in floats, which must not overflow as np.linalg.norm's may."""
    x, y = float(v[0]), float(v[1])
    return 1e-18 <= x * x + y * y < math.inf


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
    if not _horizontal(z):
        raise ConfigError("mouth facing direction must be horizontal and nonzero")
    z /= np.linalg.norm(z)
    y = np.array([0.0, 0.0, 1.0])
    x = np.cross(y, z)
    return Pose(p, mat_to_quat_rows(np.column_stack([x, y, z])[None])[0])


def _check_facing(kind: str, position_key: str, position, facing_key: str, facing) -> None:
    """A mouth faces along facing, or while that is null from position to
    the base; either must be horizontal, named as the config walk names keys."""
    key, value = (position_key, position) if facing is None else (facing_key, facing)
    if not _horizontal(value):
        wanted = ("horizontal and nonzero" if facing is not None else
                  f"off the vertical through the base while {facing_key!r} is null")
        raise ConfigError(f"{kind} key {key!r} must be {wanted}, got {value!r}")


def _check_pairs(cfg: dict) -> None:
    """The scenario values judged by a second value, named as the range
    rules name theirs: damping by stiffness (ImpedanceParams' rule), and
    the mouth's facing by its centre."""
    imp, mouth = cfg["impedance"], cfg["mouth"]
    if imp["damping"] is not None and any(
            k > 0 and not d > 0 for k, d in zip(imp["stiffness"], imp["damping"])):
        raise ConfigError(f"scenario key 'impedance.damping' must be > 0 on every axis of "
                          f"nonzero stiffness, got {imp['damping']!r}")
    _check_facing("scenario", "mouth.center_position", mouth["center_position"],
                  "mouth.facing", mouth.get("facing"))


@dataclass(frozen=True)
class Scenario:
    """Resolved trial description; the unit of reproducibility."""

    raw: dict

    @classmethod
    def from_dict(cls, overrides: dict | None = None) -> "Scenario":
        cfg = resolve({} if overrides is None else overrides, SCENARIO, "scenario")
        _check_pairs(cfg)
        cap = cfg["integral_cap_n"]
        if not 0 < cap < math.inf:  # in the words of ControllerState's own check
            raise ConfigError(f"scenario key 'integral_cap_n': integral cap must be finite "
                              f"and > 0, got {cap!r}")
        if cfg["disturbance"]["kind"] == "array" and "trace" not in cfg["disturbance"]:
            raise ConfigError("scenario key 'disturbance.trace' must be set for kind 'array'")
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

    def __init__(self, mouth: MouthModel, bite: BiteScript,
                 attachment: FoodAttachmentState, safety: SafetyLatch,
                 impedance: ImpedanceParams, entry_gains: ReactivityGains,
                 exit_gains: ReactivityGains, exit_axis: np.ndarray,
                 perturb_trace: np.ndarray, disturbance_trace: np.ndarray,
                 lowpass_alpha: float | None = None):
        self.mouth = mouth
        self.bite = bite
        self.attachment = attachment
        self.safety = safety
        self.impedance = impedance
        self.perturb_trace = perturb_trace
        self.disturbance_trace = disturbance_trace
        self.lowpass_alpha = lowpass_alpha
        self.filtered = np.zeros(6)
        # both phase gain sets are fixed per trial; build them once
        self.gains_entry = phase_gains(TransferPhase.ENTRY, exit_axis, entry_gains, exit_gains)
        self.gains_exit = phase_gains(TransferPhase.EXIT, exit_axis, entry_gains, exit_gains)


def simulate_tick(robot: VirtualRobotState, ctrl: ControllerState, fsm: FsmState,
                  world: WorldState, t_idx: int, prev_setpoint: Pose | None = None):
    """One 1 kHz tick; returns (robot', ctrl', fsm', record). The
    reference for _tick_kernel, which run_trial uses.

    Tick order: sense forces (contact + bite + injected disturbance,
    with the head perturbation applied to the mouth), run the safety
    latch, advance the FSM to get the setpoint and phase, form the
    impedance wrench from the setpoint error, apply the reactive PI
    correction, and integrate the virtual mass. After an abort the
    plant freezes and commands stay zero.
    """
    dt = TICK_PERIOD
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
            if float(rel @ mouth_now.center.z_axis) <= LIP_MARGIN:
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
    """Write each of the log's fields that is set as one array of an .npz
    file, the events as one JSON string."""
    arrays = {f.name: getattr(log, f.name) for f in fields(log)
              if getattr(log, f.name) is not None}
    arrays["events"] = np.array(json.dumps(log.events))
    np.savez_compressed(path, **arrays)


def load_log(path) -> TickLog:
    """The log save_log wrote; a field with a default may be absent, any
    other missing array is a ConfigError naming it, as is a file that is
    not a whole npz archive (a lone .npy, a corrupt or truncated zip)."""
    try:
        z = np.load(path, allow_pickle=False)
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ConfigError(f"log {str(path)!r} is not an npz archive")
        with z:
            missing = [f.name for f in fields(TickLog)
                       if f.default is MISSING and f.name not in z]
            if missing:
                raise ConfigError(f"log {str(path)!r} lacks the array(s) {', '.join(missing)}")
            arrays = {f.name: z[f.name] for f in fields(TickLog) if f.name in z}
    except (zipfile.BadZipFile, zlib.error, EOFError) as e:
        raise ConfigError(f"log {str(path)!r} is not a readable npz archive: {e}") from e
    arrays["events"] = json.loads(str(arrays["events"]))
    return TickLog(**arrays)


# the shape of each per-tick array of a TickLog after its row count
_TICK_COLUMNS = {"t": (), "position": (3,), "orientation": (4,), "force": (3,),
                 "torque": (3,), "phase": (), "set_position": (3,), "set_orientation": (4,)}


def _check_log(log: TickLog) -> None:
    """A ValueError for a per-tick array that is not one row per tick of
    its width, or for a phase code that names no TransferPhase."""
    if np.ndim(log.t) != 1:
        raise ValueError(f"log array 't' has shape {np.shape(log.t)}, want one value per tick")
    n = len(log.t)
    for name, width in _TICK_COLUMNS.items():
        if (shape := np.shape(getattr(log, name))) != (n, *width):
            raise ValueError(f"log array {name!r} has shape {shape}, want {(n, *width)}")
    valid = np.isin(log.phase, np.arange(len(TransferPhase)))
    if not valid.all():
        TransferPhase(log.phase[np.argmin(valid)].item())  # raises its ValueError


def _format_column(col: np.ndarray) -> list[str]:
    """The %.17g text of each value of col, each distinct value formatted
    once: the text depends only on the value, and NaNs of either sign all
    read nan."""
    if col.min() == col.max():  # never for NaN
        return ["%.17g" % col[0]] * len(col)
    values, codes = np.unique(col, return_inverse=True)
    texts = ["%.17g" % v for v in values.tolist()]
    return [texts[k] for k in codes.tolist()]


def export_trajectory(log: TickLog | str, path):
    """Write the tick log as CSV (documented schema, one row per tick).

    Values are written with %.17g, so every float reads back exactly;
    -0.0 is written as 0. Rows are formatted and written in chunks, so
    the file's text is never held whole in memory; within a chunk each
    column formats each of its distinct values once. A log whose arrays
    disagree in length or that holds a phase code no TransferPhase has
    raises ValueError before the file is opened."""
    if not isinstance(log, TickLog):
        log = load_log(log)
    _check_log(log)
    dev = log.deviation()
    names = {int(p): p.name for p in TransferPhase}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for lo in range(0, len(log), _CSV_CHUNK_ROWS):
            part = slice(lo, lo + _CSV_CHUNK_ROWS)
            columns = [_format_column(col) for col in (np.column_stack([
                log.t[part], log.position[part], log.orientation[part], log.force[part],
                log.torque[part], log.set_position[part], log.set_orientation[part],
                dev[part]]) + 0.0).T]
            columns.insert(14, [names[code] for code in log.phase[part].tolist()])
            f.write("".join([",".join(row) + "\n" for row in zip(*columns)]))


@dataclass(frozen=True)
class TrialReport(JsonReport):
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


def _resolve_chain(name: str) -> ChainModel:
    try:
        if name.endswith(".json"):
            return load_chain(name)
        return bundled_chain(name)
    except (OSError, KeyError, ValueError) as e:
        raise ConfigError(f"cannot resolve chain {name!r}: {e}") from e


def _disturbance_trace(cfg: dict, n: int, dt: float, seed: int) -> np.ndarray:
    kind = cfg["kind"]
    if kind == "none":
        return np.zeros((1, 6))
    if kind == "array":
        return np.asarray(cfg["trace"], dtype=float)
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
    mouth_error_mm: np.ndarray


# the offsets of every noiseless scan so far, by (food, resolution): such
# a scan reads no seed, so its offsets are a function of the bundled food
# and the resolution alone
_SCAN_OFFSETS: dict[tuple[str, float], FoodOffsets] = {}


def _tick_count(cfg: dict) -> int:
    """Ticks of a trial: its horizon at 1 kHz, both ends included."""
    return int(round(float(cfg["horizon_s"]) / TICK_PERIOD)) + 1


def _prepare_trial(scenario: Scenario) -> TrialSetup:
    """Scan, targeting, plan, traces and the initial states of one trial.

    Scenario.from_dict merged the defaults in, so every key is present."""
    cfg = scenario.raw
    dt = TICK_PERIOD
    seed = int(cfg["seed"])

    food_name = cfg["food"]
    food = load_food_presets()[food_name]

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

    # perception: scan the food, then target the (possibly mislocated) mouth;
    # the offsets need only the scan's bounding box, never the whole cloud
    scan_cfg = cfg["scan"]
    resolution, noise = float(scan_cfg["resolution_mm"]), float(scan_cfg["noise_mm"])
    offsets = _SCAN_OFFSETS.get((food_name, resolution)) if noise == 0.0 else None
    if offsets is None:
        offsets = compute_offsets(scan_bounding_box(food, resolution=resolution, seed=seed,
                                                    noise_mm=noise))
        if noise == 0.0:
            _SCAN_OFFSETS[food_name, resolution] = offsets

    err_mm = np.asarray(cfg["mouth_error_mm"], dtype=float)
    perceived_center = true_mouth_frame.position + (
        err_mm[0] * true_mouth_frame.x_axis
        + err_mm[1] * true_mouth_frame.y_axis
        + err_mm[2] * true_mouth_frame.z_axis) / 1000.0
    perceived_mouth = Pose(perceived_center, true_mouth_frame.orientation)

    pitch = np.deg2rad(float(cfg["fork_pitch_deg"]))
    pre_mouth = target_pose(perceived_mouth, offsets, fork_pitch=pitch)

    seg = cfg["segments"]
    mode = cfg["transfer_mode"]
    arc_s, entry_s, exit_s = float(seg["arc_s"]), float(seg["entry_s"]), float(seg["exit_s"])
    radius = float(cfg["arc_radius_m"])
    start_angle = np.deg2rad(float(cfg["arc_start_deg"]))
    if mode == "in_mouth":
        plan = build_transfer_plan(
            perceived_mouth, pre_mouth, arc_duration=arc_s, entry_duration=entry_s,
            exit_duration=exit_s, radius=radius, start_angle=start_angle,
            entry_depth=float(cfg["entry_depth_m"]), lowering=float(cfg["lowering_m"]),
        )
        retract_s = float(seg["retract_s"])
    else:  # fixed_pose
        plan = build_fixed_pose_plan(
            perceived_mouth, pre_mouth, arc_duration=arc_s, dwell_duration=entry_s,
            return_duration=exit_s, radius=radius, start_angle=start_angle,
        )
        retract_s = 0.0

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

    n_ticks = _tick_count(cfg)
    perturb = perturbation_trace(cfg["head_perturbation"]["kind"],
                                 cfg["head_perturbation"], n_ticks, dt, seed)
    disturbance = _disturbance_trace(cfg["disturbance"], n_ticks, dt, seed + 1)

    cutoff = float(cfg["lowpass_cutoff_hz"])
    alpha = None
    if cutoff > 0:
        alpha = dt / (dt + 1.0 / (2.0 * np.pi * cutoff))

    world = WorldState(
        mouth=mouth, bite=bite,
        attachment=FoodAttachmentState(food),
        safety=SafetyLatch(float(cfg["safety_limit_n"]), cfg["safety_mode"]),
        impedance=impedance, entry_gains=entry_gains, exit_gains=exit_gains,
        exit_axis=perceived_mouth.z_axis,
        perturb_trace=perturb, disturbance_trace=disturbance,
        lowpass_alpha=alpha,
    )

    robot = VirtualRobotState(plan.start_pose, np.zeros(6), mass)
    ctrl = ControllerState(gains=world.gains_entry, integral_cap=float(cfg["integral_cap_n"]))
    return TrialSetup(cfg, world, fsm, ctrl, robot, n_ticks, err_mm)


# column layout of the kernel's per-tick record rows: t, position,
# orientation, force, torque, phase, setpoint position and orientation
_REC_T, _REC_POS, _REC_ORI, _REC_FORCE, _REC_TORQUE = 0, 1, 4, 8, 11
_REC_PHASE, _REC_SET_POS, _REC_SET_ORI, _REC_WIDTH = 14, 15, 18, 22


class _SetpointTable(NamedTuple):
    """The FSM of a trial from tick ``first`` on, as far as time alone
    drives it. Lists run over ticks first, first + 1, ... n_ticks - 1."""

    phases: list[int]
    setpoints: np.ndarray  # (m, 7): position, then orientation (w, x, y, z)
    velocities: np.ndarray  # (m, 6) feed-forward: linear, then angular
    transitions: dict[int, list[tuple[int, int, None]]]  # tick: (from, to, event)
    wait_start: float | None  # the time BITE_WAIT begins, if it does


def _setpoint_table(fsm: FsmState, first: int, n_ticks: int, phase: int,
                    t_phase_start: float, prev_setpoint: np.ndarray | None = None
                    ) -> _SetpointTable:
    """Run transfer.step from tick first on, in phase since t_phase_start,
    as far as no force can change its course: to BITE_WAIT, which holds
    its setpoint until the bite detector ends it, or to DONE.

    As in step, a phase ends on the first tick whose time in it reaches
    its duration and hands its overshoot to the next within that tick.
    Every setpoint is the plan at some time, so one interpolate_rows call
    gives them all. The feed-forward velocity of a tick is its setpoint's
    change since the tick before (prev_setpoint for the first, none at
    t = 0) over the tick period, the rotation as quat_to_rotvec of
    q[i] * conj(q[i - 1]); each row rounds as the per-tick sums do."""
    P = TransferPhase
    plan = fsm.plan
    arc, entry, exit_seg = phase_segments(plan)
    approach = arc if arc is not None else entry
    t_first = float(plan.times[0])
    retract_dur = fsm.retract_duration
    # each timed phase: its duration and the plan time of a time in it
    timed = {
        P.SCAN: (fsm.scan_duration, lambda t_in: np.full(len(t_in), t_first)),
        P.FACE_DETECT: (fsm.face_duration, lambda t_in: np.full(len(t_in), t_first)),
        P.APPROACH_ARC: (approach.t_end - approach.t_start,
                         lambda t_in: approach.t_start + t_in),
        P.ENTRY: (entry.t_end - entry.t_start, lambda t_in: entry.t_start + t_in),
        P.EXIT: (exit_seg.t_end - exit_seg.t_start, lambda t_in: exit_seg.t_start + t_in),
        # without an arc or a duration the retract ends at once
        P.RETRACT_ARC: ((retract_dur if arc is not None and retract_dur > 0 else -math.inf),
                        lambda t_in: arc.t_end - (t_in / retract_dur) * (arc.t_end - arc.t_start)),
    }
    ts = np.arange(first, n_ticks) * TICK_PERIOD
    at = np.empty(len(ts))  # the plan time of each tick's setpoint
    phases = np.empty(len(ts), dtype=np.int8)
    transitions: dict[int, list[tuple[int, int, None]]] = {}
    wait_start = None
    lo = 0
    while lo < len(ts):
        if phase not in timed:  # BITE_WAIT or DONE holds to the end
            at[lo:] = (entry.t_end if phase == P.BITE_WAIT
                       else t_first if arc is None else arc.t_start)
            phases[lo:] = phase
            break
        dur, plan_time = timed[phase]
        t_in = ts[lo:] - t_phase_start
        ends = np.flatnonzero(t_in >= dur)
        hi = lo + (int(ends[0]) if len(ends) else len(t_in))
        if hi > lo:
            at[lo:hi] = plan_time(t_in[:hi - lo])
            phases[lo:hi] = phase
        if hi == len(ts):
            break
        t = float(ts[hi])
        t_phase_start = t if phase == P.RETRACT_ARC else t - ((t - t_phase_start) - dur)
        if phase == P.ENTRY:
            wait_start = t_phase_start
        transitions.setdefault(first + hi, []).append((int(phase), int(phase) + 1, None))
        phase, lo = phase + 1, hi

    positions, orientations = interpolate_rows(plan, at)
    rows = np.hstack([positions, orientations])
    prev = np.vstack([rows[:1] if prev_setpoint is None else [prev_setpoint], rows[:-1]])
    turn = quat_mul(orientations.T, quat_conj(prev[:, 3:].T)).T
    velocities = np.hstack([(positions - prev[:, :3]) / TICK_PERIOD,
                            quat_to_rotvec_rows(turn) / TICK_PERIOD])
    if prev_setpoint is None:
        velocities[0] = 0.0
    return _SetpointTable(phases.tolist(), rows, velocities, transitions, wait_start)


# The kernel's float pre-tests: True only where a float sum, a few ulp from
# the BLAS dot it stands in for, settles the comparison; on False (also for
# NaN or inf) the kernel asks BLAS.
def _below_1e_12(x: float, y: float, z: float) -> bool:
    """True only when the BLAS norm sqrt(v.dot(v)) of (x, y, z) is < 1e-12."""
    return x * x + y * y + z * z < 0.5e-24


def _clear_of_mouth(dx, dy, dz, x_hat, y_hat, z_hat, lip, cavity, lateral,
                    half_aperture) -> bool:
    """True only when the BLAS dots of humansim.contact_force put the fork,
    at (dx, dy, dz) from the mouth centre, against no wall: clearly outside
    the slab [-cavity, lip] along z_hat, or clearly inside the walls along
    x_hat and y_hat. The unit axes' components are at most 1, so a float sum
    and its BLAS dot differ by a few ulp of the offset's 1-norm at most, far
    below the margin of 1e-12 of that norm."""
    tol = 1e-12 * (abs(dx) + abs(dy) + abs(dz))
    z_m = dx * z_hat[0] + dy * z_hat[1] + dz * z_hat[2]
    if z_m > lip + tol or z_m < -cavity - tol:
        return True
    return (abs(dx * x_hat[0] + dy * x_hat[1] + dz * x_hat[2]) < lateral - tol
            and abs(dx * y_hat[0] + dy * y_hat[1] + dz * y_hat[2]) < half_aperture - tol)


def _tick_kernel(setup: TrialSetup) -> tuple[TickLog, FoodAttachmentState]:
    """The 1 kHz loop of run_trial as one flat kernel, run from t = 0;
    returns only the tick log and the food attachment, which it makes
    afresh: it writes nothing into the setup.

    Tick for tick it computes, to the bit, what a loop over simulate_tick
    computes from the setup's initial states, but it builds no Pose,
    Wrench or state object per tick: the plant, controller, filter and
    FSM state live in float locals and preallocated float64 arrays, and
    each tick writes one row of a preallocated record array. Plain floats
    carry only +, -, *, /, square roots, comparisons, abs, min and max,
    which round exactly as numpy does; the integral clamp compares floats
    and, like np.clip, keeps a value equal to a bound. Every dot product
    and norm whose value is used stays a BLAS call on a float64 array
    (BLAS fuses multiply-adds, so a Python sum can differ in the last
    bit), and the trigonometric functions stay numpy's.

    A dot product that only feeds a comparison is first estimated by a
    plain float sum, and BLAS is asked only where the estimate is too
    close to the threshold to decide (_below_1e_12, _clear_of_mouth). The
    orientation error's rotation vector below 1e-12 is twice the vector
    part and reads no norm; a rotation step below 1e-12 is (1, r / 2) as
    it is, since 1 - angle**2 / 8 and the squared norm unit() divides by
    both round to 1; a fork clearly outside the contact slab, or clearly
    inside its walls, meets no contact, which skips the x, y and velocity
    dots. A force-free tick outside the bite wait then makes at most one
    BLAS call, the final unit() norm.

    The orientation error's rotation vector and unit()'s result are kept
    from the tick that computed them, keyed by their inputs (the setpoint
    and robot quaternions; the raw quaternion). A tick reuses one when its
    key equals the kept key and holds no zero: floats other than zero that
    compare equal have the same bits, a zero of either sign is always
    recomputed, and a NaN input raises before another tick could compare
    it. Where the plan holds one orientation and no torque turns the fork,
    the orientation stays one row, and a force-free tick outside the bite
    wait reuses both and makes no BLAS call.

    Most ticks meet no force: no contact (contact_force is exactly zero
    outside the mouth's planes), no bite and no disturbance. Without the
    low-pass filter such a tick measures (-0.0,) * 6, which adds nothing
    to the integral, and the integral was clamped under the same gains
    already, so the reactive term is that of the last force-free tick:
    the kernel reuses it until a tick measures a force or the gain set
    switches. A tick without force skips the food attachment too, as a
    zero force never exceeds its thresholds (food presets keep them
    >= 0).

    What time alone decides, the FSM's phases up to the bite wait and from
    the exit on, their setpoints and the feed-forward velocities, comes
    from setpoint tables (_setpoint_table) built at t = 0 and again on the
    tick the exit starts; the loop keeps what feeds back on itself: bite
    detection, the safety trip, contact, the reactive PI term and the
    integration.

    The kernel only records: the report is read from the log, its events
    and the attachment. Joint logging is left to the caller
    (_log_joints): each logged position and orientation row has the bits
    of the robot Pose simulate_tick builds.
    """
    world, fsm, robot, n_ticks = setup.world, setup.fsm, setup.robot, setup.n_ticks
    dt = TICK_PERIOD
    safety = world.safety
    tripped = False
    norm_mode = safety.mode == "norm"
    limit = safety.limit

    b3 = np.empty(3)
    b4 = np.empty(4)

    def dot3(x, y, z, v):
        b3[0] = x
        b3[1] = y
        b3[2] = z
        return float(b3.dot(v))

    def norm3(x, y, z):
        return math.sqrt(dot3(x, y, z, b3))

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
        if _below_1e_12(x, y, z) or (s := norm3(x, y, z)) < 1e-12:
            return 2.0 * x, 2.0 * y, 2.0 * z  # the small branch reads no norm
        c = float(2.0 * np.arctan2(s, w)) / s
        return c * x, c * y, c * z

    # mouth frames: as given, and as Pose() renormalises it when the head
    # moves; columns of the rotation matrix for contact, the quaternion's
    # z axis for the lip test and the quaternion itself for the bite
    mouth = world.mouth
    lip, cavity = LIP_MARGIN, CAVITY_DEPTH
    half_aperture = mouth.aperture / 2.0
    k_mouth, c_mouth, lateral = mouth.stiffness, mouth.damping, mouth.lateral_halfwidth
    mx0, my0, mz0 = mouth.center.position.tolist()
    frames = []
    for q in (mouth.center.orientation, quat_normalize(mouth.center.orientation)):
        rot = quat_to_matrix(q)
        z_axis = quat_rotate(q, np.array([0.0, 0.0, 1.0]))
        frames.append((rot[:, 0], rot[:, 1], rot[:, 2], z_axis, q.tolist(),
                       rot[:, 0].tolist(), rot[:, 1].tolist(), rot[:, 2].tolist()))
    head = world.perturb_trace
    if not np.all(np.isfinite(head[:n_ticks])):
        raise ValueError("pose position must be finite")
    head_moves = (head != 0.0).any(axis=1).tolist()
    last_head = len(head) - 1
    dist = world.disturbance_trace
    dist_on = dist.any(axis=1).tolist()
    last_dist = len(dist) - 1

    script = world.bite
    attachment = FoodAttachmentState(world.attachment.food)
    detached = False
    alpha = world.lowpass_alpha
    filt = [0.0] * 6

    # the two gain sets: force matrices, torque gains, clamp of the integral
    def gain_set(g):
        cap = setup.ctrl.integral_cap * g._cap_per_newton
        return (g.p_force, g.i_force, g.p_torque.tolist(), g.i_torque.tolist(),
                (-cap).tolist(), cap.tolist())
    gains = {False: gain_set(world.gains_entry), True: gain_set(world.gains_exit)}
    exit_gains = False
    p_force, i_force, p_torque, i_torque, cap_lo, cap_hi = gains[exit_gains]
    integral = [0.0] * 6
    f_meas_force = np.empty(3)  # the BLAS operands of the force gains
    integral_force = np.empty(3)
    free_f_bar = None  # the reactive wrench of the last force-free tick
    k0, k1, k2, k3, k4, k5 = world.impedance.stiffness.tolist()
    c0, c1, c2, c3, c4, c5 = world.impedance.damping.tolist()
    ms0, ms1, ms2, ms3, ms4, ms5 = robot.mass.tolist()

    # FSM: integer phase, the detector's elapsed time; the phases that
    # time alone drives come from setpoint tables
    SCAN, FACE, APPROACH, ENTRY, WAIT, EXIT, RETRACT, DONE, ABORTED = range(9)
    names = [p.name for p in TransferPhase]
    table = _setpoint_table(fsm, 0, n_ticks, SCAN, 0.0)
    phases, setpoints, velocities, transitions = table[:4]
    wait_started_at = table.wait_start
    detector = fsm.detector
    axis = detector.axis
    timeout_at = detector.timeout - 1e-9
    phase, elapsed, bitten = SCAN, 0.0, False

    px, py, pz = robot.pose.position.tolist()
    qw, qx, qy, qz = robot.pose.orientation.tolist()
    w0 = w1 = w2 = w3 = w4 = w5 = 0.0  # the twist
    # the last inputs and results of the orientation error and of unit():
    # no key equals None, and a key holding a zero is always recomputed
    last_turn_key = last_raw_q = None
    turn = q_unit = None

    rec = np.empty((n_ticks, _REC_WIDTH))
    events: list[dict] = []

    for i in range(n_ticks):
        t = i * dt
        jh = i if i < last_head else last_head
        if head_moves[jh]:
            ox, oy, oz = head[jh].tolist()
            mx, my, mz = mx0 + ox, my0 + oy, mz0 + oz
            x_hat, y_hat, z_hat, z_axis, mouth_q, xh, yh, zh = frames[1]
        else:
            mx, my, mz = mx0, my0, mz0
            x_hat, y_hat, z_hat, z_axis, mouth_q, xh, yh, zh = frames[0]

        # forces on the fork: penalty contact, then the bite, then the
        # injected disturbance (humansim.contact_force and bite_force)
        dx, dy, dz = px - mx, py - my, pz - mz
        f0 = f1 = f2 = 0.0
        if (not _clear_of_mouth(dx, dy, dz, xh, yh, zh, lip, cavity, lateral, half_aperture)
                and not ((z_m := dot3(dx, dy, dz, z_hat)) > lip or z_m < -cavity)):
            x_m = dot3(dx, dy, dz, x_hat)
            y_m = dot3(dx, dy, dz, y_hat)
            v = np.array((w0, w1, w2))
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
        if not detached and not script.refuse and (
                phase == WAIT or phase == EXIT and bitten and dot3(dx, dy, dz, z_axis) <= lip):
            t_in_bite = t - wait_started_at
            if t_in_bite >= script.t_bite:
                frac = (min(1.0, (t_in_bite - script.t_bite) / script.ramp)
                        if script.ramp > 0 else 1.0)
                bite_y = -frac * script.peak_force
                if bite_y != 0.0:
                    bite_n = abs(bite_y)
                    # quat_rotate(mouth_q, (0, bite_y, 0)) term for term,
                    # the 0 * x terms kept for their signed zeros
                    w, x, y, z = mouth_q
                    uv0, uv1, uv2 = y * 0.0 - z * bite_y, z * 0.0 - x * 0.0, x * bite_y - y * 0.0
                    f0 = f0 + (0.0 + 2.0 * (w * uv0 + (y * uv2 - z * uv1)))
                    f1 = f1 + (bite_y + 2.0 * (w * uv1 + (z * uv0 - x * uv2)))
                    f2 = f2 + (0.0 + 2.0 * (w * uv2 + (x * uv1 - y * uv0)))
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

        # transfer.step: a safety trip aborts; otherwise the table gives the
        # phase, the transitions into it and the setpoint, and in BITE_WAIT
        # the bite detector (transfer.detect_bite) may start the exit
        tick_events = ()
        f_y = None
        if phase == ABORTED:
            pass
        elif tripped:
            f_y = dot3(fm0, fm1, fm2, axis)
            tick_events = ((phase, ABORTED, "safety_abort"),)
            phase = ABORTED
        else:
            phase = phases[i]
            tick_events = transitions.get(i, ())
            if phase == WAIT:
                f_y = dot3(fm0, fm1, fm2, axis)
                bitten = abs(f_y) > detector.threshold
                if not bitten:
                    elapsed = elapsed + dt
                if bitten or elapsed >= timeout_at:
                    tick_events = (*tick_events, (WAIT, EXIT, "bite" if bitten else "timeout"))
                    phase = EXIT
                    # the exit runs on time from this tick on
                    table = _setpoint_table(fsm, i + 1, n_ticks, EXIT, t, setpoints[i])
                    phases[i + 1:], setpoints[i + 1:], velocities[i + 1:] = table[:3]
                    transitions.update(table.transitions)
        for p_from, p_to, kind in tick_events:
            if f_y is None:
                f_y = dot3(fm0, fm1, fm2, axis)
            events.append({"t": t, "phase_from": names[p_from], "phase_to": names[p_to],
                           "event": kind, "f_y": f_y})

        # exit-side gains; the integral resets when the exit side begins
        want_exit = phase == EXIT or phase == RETRACT
        if want_exit != exit_gains:
            exit_gains = want_exit
            p_force, i_force, p_torque, i_torque, cap_lo, cap_hi = gains[exit_gains]
            free_f_bar = None
            if exit_gains:
                integral = [0.0] * 6

        if phase == ABORTED:
            # the plant freezes where it is
            w0 = w1 = w2 = w3 = w4 = w5 = 0.0
            sp = (px, py, pz, qw, qx, qy, qz)
        else:
            # impedance wrench from the setpoint error (geometry.pose_error,
            # controller.desired_wrench)
            sp = setpoints[i].tolist()
            spx, spy, spz, sqw, sqx, sqy, sqz = sp
            e0, e1, e2 = spx - px, spy - py, spz - pz
            turn_key = (sqw, sqx, sqy, sqz, qw, qx, qy, qz)
            if turn_key != last_turn_key or 0.0 in turn_key:
                last_turn_key = turn_key
                turn = rotvec(*qmul(sqw, sqx, sqy, sqz, qw, -qx, -qy, -qz))
            e3, e4, e5 = turn
            v0, v1, v2, v3, v4, v5 = velocities[i].tolist()
            v0, v1, v2, v3, v4, v5 = v0 - w0, v1 - w1, v2 - w2, v3 - w3, v4 - w4, v5 - w5
            g0, g1, g2 = k0 * e0 + c0 * v0, k1 * e1 + c1 * v1, k2 * e2 + c2 * v2
            g3, g4, g5 = k3 * e3 + c3 * v3, k4 * e4 + c4 * v4, k5 * e5 + c5 * v5
            # a non-finite error makes its wrench component non-finite too
            if not math.isfinite(g0 + g1 + g2 + g3 + g4 + g5):
                if not all(map(math.isfinite, (e0, e1, e2, e3, e4, e5, v0, v1, v2, v3, v4, v5))):
                    raise ValueError("pose/velocity errors must be finite")

            # reactive PI term on the (optionally low-passed) measurement
            # (controller.reactive_term). Unfiltered, a zero measurement
            # leaves the clamped integral as it is, so a force-free tick
            # reuses the term of the last one under the same gains
            free = alpha is None and not (fm0 or fm1 or fm2 or tm0 or tm1 or tm2)
            if free and free_f_bar is not None:
                f_bar = free_f_bar
            else:
                fm = (fm0, fm1, fm2, tm0, tm1, tm2)
                if alpha is not None:
                    filt = [y + alpha * (x - y) for x, y in zip(fm, filt)]
                    fm = filt
                if not math.isfinite(sum(fm)):
                    if not all(map(math.isfinite, fm)):
                        raise SensorFault("non-finite force measurement")
                # the clamp of np.clip: the bound it crosses, else the value
                integral = [lo if lo > x else hi if hi < x else x
                            for x, lo, hi in zip([x + y * dt for x, y in zip(integral, fm)],
                                                 cap_lo, cap_hi)]
                f_meas_force[0], f_meas_force[1], f_meas_force[2] = fm[0], fm[1], fm[2]
                integral_force[0], integral_force[1], integral_force[2] = integral[:3]
                bar_f = (p_force.dot(f_meas_force) + i_force.dot(integral_force)).tolist()
                f_bar = (*bar_f, p_torque[0] * fm[3] + i_torque[0] * integral[3],
                         p_torque[1] * fm[4] + i_torque[1] * integral[4],
                         p_torque[2] * fm[5] + i_torque[2] * integral[5])
                free_f_bar = f_bar if free else None

            # semi-implicit Euler through the virtual mass: command less
            # reactive term plus the forces on the fork
            fb0, fb1, fb2, fb3, fb4, fb5 = f_bar
            w0, w1, w2 = (w0 + dt * ((g0 - fb0 + f0) / ms0), w1 + dt * ((g1 - fb1 + f1) / ms1),
                          w2 + dt * ((g2 - fb2 + f2) / ms2))
            w3, w4, w5 = (w3 + dt * ((g3 - fb3 + m0) / ms3), w4 + dt * ((g4 - fb4 + m1) / ms4),
                          w5 + dt * ((g5 - fb5 + m2) / ms5))
            px, py, pz = px + dt * w0, py + dt * w1, pz + dt * w2
            r0, r1, r2 = dt * w3, dt * w4, dt * w5
            if r0 != 0.0 or r1 != 0.0 or r2 != 0.0:
                # geometry.quat_from_rotvec, then quat_mul onto the pose;
                # below 1e-12, 1 - angle**2 / 8 rounds to 1 and so does the
                # squared norm of (1, r / 2), which unit() returns as it is
                if _below_1e_12(r0, r1, r2):
                    aw, ax, ay, az = 1.0, 0.5 * r0, 0.5 * r1, 0.5 * r2
                elif (angle := norm3(r0, r1, r2)) < 1e-12:
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
            if raw_q != last_raw_q or 0.0 in raw_q:
                last_raw_q = raw_q
                q_unit = unit(*raw_q)
            qw, qx, qy, qz = q_unit
            # the checks of Pose and VirtualRobotState, in their order
            if not math.isfinite(px + py + pz + w0 + w1 + w2 + w3 + w4 + w5):
                if not all(map(math.isfinite, (px, py, pz))):
                    raise ValueError("pose position must be finite")
                if not all(map(math.isfinite, (w0, w1, w2, w3, w4, w5))):
                    raise ValueError("twist must be finite")

        # food attachment, on-fork forces split by source; a zero force
        # never exceeds a detachment threshold (presets keep them >= 0)
        if not detached:
            transport = (norm3(f0, f1, f2) if f0 != 0.0 or f1 != 0.0 or f2 != 0.0
                         else 0.0) - bite_n
            if transport > 0.0:
                detached = attachment.update(transport, t, bite_engaged=False)
            if bite_n > 0.0:
                detached = attachment.update(bite_n, t, bite_engaged=True)

        rec[i] = (t, px, py, pz, qw, qx, qy, qz, fm0, fm1, fm2, tm0, tm1, tm2, phase, *sp)

    # the log's float arrays are column views of the record rows
    return TickLog(
        t=rec[:, _REC_T], position=rec[:, _REC_POS:_REC_ORI],
        orientation=rec[:, _REC_ORI:_REC_FORCE], force=rec[:, _REC_FORCE:_REC_TORQUE],
        torque=rec[:, _REC_TORQUE:_REC_PHASE], phase=rec[:, _REC_PHASE].astype(np.int8),
        set_position=rec[:, _REC_SET_POS:_REC_SET_ORI],
        set_orientation=rec[:, _REC_SET_ORI:_REC_WIDTH], events=events,
    ), attachment


def _log_joints(log: TickLog, chain: ChainModel, stride: int) -> None:
    """Joint configurations solved from the logged position and orientation
    rows as they are (Pose() would renormalise them, which can move a last
    bit) at ticks 0, stride, 2 * stride, ..., each IK solve warm-started
    from the one before."""
    log.joint_ticks = np.arange(0, len(log), stride, dtype=np.int64)
    q_guess = chain.home
    ik_params = IkParams(max_iter=60)
    rows = []
    for i in log.joint_ticks.tolist():
        pose = Pose.unchecked(log.position[i], log.orientation[i])
        q_guess = ik_damped_least_squares(chain, pose, q_guess, ik_params).q
        rows.append(q_guess)
    log.joints = np.array(rows)


def _finish_trial(setup: TrialSetup, log: TickLog,
                  attachment: FoodAttachmentState) -> TrialReport:
    """Classify the outcome and build the report from the log's events and
    the food attachment."""
    # phases only move forward, so each of these transitions occurs at most once
    at = {(ev["phase_from"], ev["phase_to"], ev["event"]): ev["t"] for ev in log.events}
    bite_time = at.get(("BITE_WAIT", "EXIT", "bite"))
    timeout_time = at.get(("BITE_WAIT", "EXIT", "timeout"))
    trip_phase = next((p_from for p_from, _, kind in at if kind == "safety_abort"), None)

    err_mm, world = setup.mouth_error_mm, setup.world
    lateral_mm = world.mouth.lateral_halfwidth * 1000.0
    aperture_mm = world.mouth.aperture * 1000.0
    imprecise = (abs(err_mm[0]) > lateral_mm) or (abs(err_mm[1]) > aperture_mm / 2.0)
    exit_deadline = at.get(("EXIT", "RETRACT_ARC", None), np.inf)
    dropped = (attachment.detached and not attachment.taken_by_bite
               and attachment.detach_time is not None
               and attachment.detach_time <= exit_deadline)

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
        food_detached=attachment.detached,
        food_taken_by_bite=attachment.taken_by_bite,
        final_phase=final_phase,
        completed=final_phase == "DONE",
        log=log,
    )


def run_trial(scenario: Scenario) -> TrialReport:
    """Execute scan, targeting, and the full transfer FSM for one trial."""
    # a chain file that cannot be read fails before the ticks run
    stride = int(scenario["joint_log_stride"])
    chain = _resolve_chain(scenario["chain"]) if stride else None
    setup = _prepare_trial(scenario)
    log, attachment = _tick_kernel(setup)
    if chain is not None:
        _log_joints(log, chain, stride)
    return _finish_trial(setup, log, attachment)


def _trial_seed(suite_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=suite_seed,
                                      spawn_key=(index,)).generate_state(1)[0])


@dataclass(frozen=True)
class SuiteReport(JsonReport):
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
        return {**super().to_dict(), "success_rates": self.success_rates()}

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


def _suite_outcome(setup: TrialSetup) -> str:
    """One suite trial's outcome: run_trial less the joint log, which the
    suite's outcomes never read."""
    return _finish_trial(setup, *_tick_kernel(setup)).outcome


def _suite_workers(n_trials: int) -> int:
    """Worker processes for a suite: one per usable CPU, at most one per
    trial, and one where the platform cannot tell which CPUs are usable."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_trials)


# the setups of the suite a pool worker runs, inherited from the parent by fork
_WORKER_SETUPS: list[TrialSetup] = []


def _init_suite_worker(setups: list[TrialSetup]) -> None:
    global _WORKER_SETUPS
    _WORKER_SETUPS = setups


def _pooled_outcome(index: int) -> str:
    """The outcome of the suite's trial index, in a pool worker."""
    return _suite_outcome(_WORKER_SETUPS[index])


def _suite_outcomes(setups: list[TrialSetup]) -> list[str]:
    """The outcome of each setup, in order: in forked workers, one per
    usable CPU, or inline where only one worker results or fork is not a
    start method. A worker receives the setups by fork, not by pickling,
    and sends back one string per trial. Every trial runs to its end, or
    to the death of a worker, before the earliest failing one raises, as
    inline; no worker outlives the call."""
    workers = _suite_workers(len(setups))
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_init_suite_worker,
                                     initargs=(setups,)) as pool:
                futures = [pool.submit(_pooled_outcome, i) for i in range(len(setups))]
            return [f.result() for f in futures]
    return [_suite_outcome(setup) for setup in setups]


def run_suite(suite_cfg: dict) -> SuiteReport:
    """Run every scenario x repetition with seeds derived from the suite seed.

    Every key and every trial's scenario is checked before the first
    trial runs, and so is the suite's total of ticks, which sizes the
    setups held at once: past presets.MAX_SUITE_TICKS it is a
    ConfigError naming 'repetitions'."""
    cfg = resolve(suite_cfg, SUITE, "suite")
    if "seed" not in suite_cfg:
        raise ConfigError("suite seed is mandatory")
    suite_seed = int(cfg["seed"])
    reps = int(cfg["repetitions"])
    entries = cfg["trials"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("suite needs a non-empty trials list")

    trials = []
    ticks = 0
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"suite trials[{n}] must be an object")
        check_keys(entry, SUITE_TRIAL, "suite", f"trials[{n}].")
        overrides = dict(entry.get("scenario", {}))
        method = entry.get("method", overrides.get("gain_preset", "ours"))
        overrides.setdefault("gain_preset", method)
        for rep in range(reps):
            seed = _trial_seed(suite_seed, len(trials))
            trials.append((method, Scenario.from_dict({**overrides, "seed": seed})))
            if rep == 0:  # every repetition of an entry has its horizon
                ticks += reps * _tick_count(trials[-1][1].raw)
                if ticks > MAX_SUITE_TICKS:
                    raise ConfigError(
                        f"suite key 'repetitions' must be few enough for the suite's "
                        f"trials to take at most {MAX_SUITE_TICKS:,} ticks (horizon_s at "
                        f"1 kHz, plus 1, each), got {reps}: {ticks:,} by trials[{n}]")

    # every setup is built here, before any ticks run: a bad scenario
    # fails first, and the scan cache stays warm in this process
    setups = [_prepare_trial(scenario) for _, scenario in trials]
    per_method: dict[str, dict[str, int]] = {}
    outcomes = []
    for idx, ((method, scenario), outcome) in enumerate(zip(trials, _suite_outcomes(setups))):
        bucket = per_method.setdefault(method, {k: 0 for k in OUTCOMES})
        bucket[outcome] += 1
        outcomes.append({"index": idx, "method": method, "seed": int(scenario["seed"]),
                         "outcome": outcome})

    return SuiteReport(
        name=cfg["name"],
        seed=suite_seed,
        total=len(trials),
        per_method=per_method,
        trial_outcomes=outcomes,
    )


def build_study_inputs(study_cfg: dict | None = None):
    """Resolve a study config dict into run_wrist_study arguments.

    Keys are those of presets.STUDY; an unknown key or a value out of its
    range raises ConfigError with its path. The study these inputs run
    needs no import beyond numpy: its signed-rank tests take their normal
    tail from comfort._ndtr.
    """
    cfg = resolve({} if study_cfg is None else study_cfg, STUDY, "study")
    _check_facing("study", "mouth_position", cfg["mouth_position"],
                  "mouth_facing", cfg.get("mouth_facing"))
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

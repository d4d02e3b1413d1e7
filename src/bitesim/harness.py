"""Simulation loop wiring perception, trajectory, FSM, controller, and
the simulated human together at a 1 kHz tick, plus trial/suite runners
and trajectory export.

The robot is a task-space virtual-mass admittance plant: the commanded
wrench minus the reactive correction, plus the physical contact forces,
integrates through the virtual mass with semi-implicit Euler. Joint
configurations are recovered by IK at a configurable stride for logging
only. Every run is seed-deterministic end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import (Pose, pose_error, quat_conj, quat_from_rotvec, quat_mul,
                       quat_to_rotvec)
from .kinematics import (ChainModel, IkParams, bundled_chain, ik_damped_least_squares,
                         load_chain, _mat_to_quat)
from .controller import (ControllerState, ImpedanceParams, ReactivityGains, SafetyLatch,
                         TICK_PERIOD, Wrench, desired_wrench, phase_gains, reactive_term)
from .transfer import (BiteDetector, FsmState, TransferPhase, EXIT_SIDE_PHASES,
                       build_fixed_pose_plan, build_transfer_plan, step)
from .perception import compute_offsets, food_bounding_box, synth_depth_scan, target_pose
from .humansim import (BiteScript, FoodAttachmentState, MouthModel, bite_force,
                       contact_force, load_food_presets, perturbation_trace)
from .presets import GAIN_PRESETS, default_scenario_dict, default_study_dict

CSV_HEADER = ("t_s,px,py,pz,qw,qx,qy,qz,fx,fy,fz,tau_x,tau_y,tau_z,phase,"
              "set_px,set_py,set_pz,set_qw,set_qx,set_qy,set_qz,deviation_m")

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


@dataclass(frozen=True)
class Scenario:
    """Resolved trial description; the unit of reproducibility."""

    raw: dict

    @classmethod
    def from_dict(cls, overrides: dict | None = None) -> "Scenario":
        cfg = default_scenario_dict()
        preset = cfg.get("gain_preset")
        if overrides and overrides.get("gain_preset") is not None:
            preset = overrides["gain_preset"]
        if preset is not None:
            if preset not in GAIN_PRESETS:
                raise ConfigError(f"unknown gain preset {preset!r}")
            # the preset sets the baseline; explicit gains in the
            # overrides still win below
            cfg = _merge(cfg, GAIN_PRESETS[preset])
            cfg["gain_preset"] = preset
        if overrides:
            cfg = _merge(cfg, overrides)
        if cfg.get("seed") is None:
            raise ConfigError("scenario seed is mandatory")
        return cls(cfg)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def __getitem__(self, key):
        return self.raw[key]

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def to_json(self) -> str:
        clean = {k: v for k, v in self.raw.items() if not isinstance(v, np.ndarray)}
        return json.dumps(clean, sort_keys=True, indent=2, default=str) + "\n"


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
    """One 1 kHz tick; returns (robot', ctrl', fsm', record).

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
    v_err = np.empty(6)
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
    """Write the tick log as CSV (documented schema, one row per tick)."""
    if not isinstance(log, TickLog):
        log = load_log(log)
    dev = log.deviation()
    names = [TransferPhase(p).name for p in log.phase]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CSV_HEADER + "\n")
        for i in range(len(log)):
            vals = [log.t[i], *log.position[i], *log.orientation[i],
                    *log.force[i], *log.torque[i]]
            tail = [*log.set_position[i], *log.set_orientation[i], dev[i]]
            f.write(",".join(f"{v + 0.0:.17g}" for v in vals) + f",{names[i]},"
                    + ",".join(f"{v + 0.0:.17g}" for v in tail) + "\n")


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


def _disturbance_trace(cfg: dict, n: int, dt: float, seed: int) -> np.ndarray:
    kind = cfg.get("kind", "none")
    if kind == "none":
        return np.zeros((1, 6))
    if kind == "array":
        arr = np.asarray(cfg["trace"], dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 6:
            raise ConfigError("disturbance trace must be (n, 6)")
        return arr
    if kind == "sinusoid":
        amp = float(cfg.get("amplitude_n", 0.5))
        period = float(cfg.get("period_s", 1.0))
        direction = np.asarray(cfg.get("direction", [1.0, 0.0, 0.0]), dtype=float)
        direction = direction / np.linalg.norm(direction)
        t = np.arange(n) * dt
        out = np.zeros((n, 6))
        out[:, :3] = np.outer(amp * np.sin(2 * np.pi * t / period), direction)
        return out
    if kind == "random-walk":
        sigma = float(cfg.get("sigma_n", 1.0))
        amp = float(cfg.get("amplitude_n", 0.8))
        rng = np.random.default_rng(seed)
        stepsv = rng.standard_normal((n, 3)) * sigma * np.sqrt(dt)
        stepsv[0] = 0.0
        walk = np.clip(np.cumsum(stepsv, axis=0), -amp, amp)
        out = np.zeros((n, 6))
        out[:, :3] = walk
        return out
    raise ConfigError(f"unknown disturbance kind {kind!r}")


def run_trial(scenario: Scenario, chain: ChainModel | None = None) -> TrialReport:
    """Execute scan, targeting, and the full transfer FSM for one trial."""
    cfg = scenario.raw
    dt = TICK_PERIOD
    seed = int(cfg["seed"])

    foods = load_food_presets()
    food_name = cfg["food"]
    if food_name not in foods:
        raise ConfigError(f"unknown food preset {food_name!r}")
    food = foods[food_name]

    if chain is None and cfg.get("joint_log_stride", 0):
        chain = _resolve_chain(cfg["chain"])

    mcfg = cfg["mouth"]
    true_mouth_frame = mouth_frame_from_position(mcfg["center_position"],
                                                 mcfg.get("facing"))
    mouth = MouthModel(
        center=true_mouth_frame,
        aperture=float(mcfg.get("aperture_m", 0.030)),
        stiffness=float(mcfg.get("stiffness", 1000.0)),
        damping=float(mcfg.get("damping", 10.0)),
        lateral_halfwidth=float(mcfg.get("lateral_halfwidth_m", 0.025)),
    )

    # perception: scan the food, then target the (possibly mislocated) mouth
    scan_cfg = cfg.get("scan", {})
    scan_pose = Pose(true_mouth_frame.position, true_mouth_frame.orientation)
    cloud = synth_depth_scan(food, scan_pose,
                             resolution=float(scan_cfg.get("resolution_mm", 0.1)),
                             seed=seed, noise_mm=float(scan_cfg.get("noise_mm", 0.0)))
    offsets = compute_offsets(food_bounding_box(cloud))

    err_mm = np.asarray(cfg.get("mouth_error_mm", [0, 0, 0]), dtype=float)
    perceived_center = true_mouth_frame.position + (
        err_mm[0] * true_mouth_frame.x_axis
        + err_mm[1] * true_mouth_frame.y_axis
        + err_mm[2] * true_mouth_frame.z_axis) / 1000.0
    perceived_mouth = Pose(perceived_center, true_mouth_frame.orientation)

    pitch = np.deg2rad(float(cfg.get("fork_pitch_deg", 25.0)))
    pre_mouth = target_pose(perceived_mouth, offsets,
                            entry_depth=float(cfg.get("entry_depth_m", 0.018)),
                            fork_pitch=pitch)

    seg = cfg["segments"]
    mode = cfg.get("transfer_mode", "in_mouth")
    if mode == "in_mouth":
        plan = build_transfer_plan(
            perceived_mouth, pre_mouth,
            arc_duration=float(seg.get("arc_s", 6.0)),
            entry_duration=float(seg.get("entry_s", 2.0)),
            exit_duration=float(seg.get("exit_s", 2.0)),
            radius=float(cfg.get("arc_radius_m", 0.45)),
            start_angle=np.deg2rad(float(cfg.get("arc_start_deg", 90.0))),
            entry_depth=float(cfg.get("entry_depth_m", 0.018)),
            lowering=float(cfg.get("lowering_m", 0.003)),
        )
        retract_s = float(seg.get("retract_s", 6.0))
    elif mode == "fixed_pose":
        plan = build_fixed_pose_plan(
            perceived_mouth, pre_mouth,
            arc_duration=float(seg.get("arc_s", 6.0)),
            dwell_duration=float(seg.get("entry_s", 2.0)),
            return_duration=float(seg.get("exit_s", 2.0)),
            radius=float(cfg.get("arc_radius_m", 0.45)),
            start_angle=np.deg2rad(float(cfg.get("arc_start_deg", 90.0))),
        )
        retract_s = 0.0
    else:
        raise ConfigError(f"unknown transfer mode {mode!r}")

    detector = BiteDetector(
        threshold=float(cfg.get("bite_threshold_n", 0.3)),
        axis=perceived_mouth.y_axis,
        timeout=float(cfg.get("bite_timeout_s", 1.5)),
    )
    fsm = FsmState(
        plan=plan, detector=detector,
        scan_duration=float(seg.get("scan_s", 0.0)),
        face_duration=float(seg.get("face_detect_s", 0.0)),
        retract_duration=retract_s,
    )

    bite_cfg = cfg["bite"]
    bite = BiteScript(
        t_bite=float(bite_cfg.get("t_bite_s", 0.5)),
        peak_force=float(bite_cfg.get("peak_force_n", 1.0)),
        ramp=float(bite_cfg.get("ramp_s", 0.2)),
        refuse=bool(bite_cfg.get("refuse", False)),
    )

    imp_cfg = cfg["impedance"]
    mass = np.asarray(cfg.get("virtual_mass", [2, 2, 2, 0.02, 0.02, 0.02]), dtype=float)
    stiffness = np.asarray(imp_cfg["stiffness"], dtype=float)
    damping = imp_cfg.get("damping")
    if damping is None:
        damping = 2.0 * np.sqrt(stiffness * mass)
    impedance = ImpedanceParams(stiffness, np.asarray(damping, dtype=float))

    entry_gains = ReactivityGains.from_vectors(cfg["entry_gains"]["k_p"],
                                               cfg["entry_gains"]["k_i"])
    exit_gains = ReactivityGains.from_vectors(cfg["exit_gains"]["k_p"],
                                              cfg["exit_gains"]["k_i"])

    horizon = float(cfg.get("horizon_s", 10.0))
    n_ticks = int(round(horizon / dt)) + 1
    perturb = perturbation_trace(cfg["head_perturbation"].get("kind", "none"),
                                 cfg["head_perturbation"], n_ticks, dt, seed)
    disturbance = _disturbance_trace(cfg.get("disturbance", {"kind": "none"}),
                                     n_ticks, dt, seed + 1)

    cutoff = float(cfg.get("lowpass_cutoff_hz", 0.0))
    alpha = None
    if cutoff > 0:
        alpha = dt / (dt + 1.0 / (2.0 * np.pi * cutoff))

    world = WorldState(
        mouth=mouth, perceived_mouth=perceived_mouth, bite=bite,
        attachment=FoodAttachmentState(food),
        safety=SafetyLatch(float(cfg.get("safety_limit_n", 3.0)),
                           cfg.get("safety_mode", "component")),
        impedance=impedance, entry_gains=entry_gains, exit_gains=exit_gains,
        exit_axis=perceived_mouth.z_axis,
        perturb_trace=perturb, disturbance_trace=disturbance,
        lowpass_alpha=alpha,
    )

    robot = VirtualRobotState(plan.start_pose, np.zeros(6), mass)
    ctrl = ControllerState(gains=world.gains_entry, exit_axis=world.exit_axis,
                           integral_cap=float(cfg.get("integral_cap_n", 10.0)))

    log = TickLog(
        t=np.empty(n_ticks), position=np.empty((n_ticks, 3)),
        orientation=np.empty((n_ticks, 4)), force=np.empty((n_ticks, 3)),
        torque=np.empty((n_ticks, 3)), phase=np.empty(n_ticks, dtype=np.int8),
        set_position=np.empty((n_ticks, 3)), set_orientation=np.empty((n_ticks, 4)),
        events=[],
    )

    stride = int(cfg.get("joint_log_stride", 0))
    joints_rows = []
    joint_ticks = []
    q_guess = chain.home if chain is not None else None
    ik_params = IkParams(max_iter=60)

    prev_setpoint = None
    bite_time = None
    timeout_time = None
    phase_at_trip = None
    exit_completed_at = None

    for i in range(n_ticks):
        tripped_before = world.safety.tripped
        robot, ctrl, fsm, rec = simulate_tick(robot, ctrl, fsm, world, i, dt,
                                              prev_setpoint)
        prev_setpoint = rec["setpoint"]
        if world.safety.tripped and not tripped_before:
            phase_at_trip = rec["events"][0]["phase_from"] if rec["events"] else rec["phase"].name

        for ev in rec["events"]:
            log.events.append(ev)
            if ev["event"] == "bite":
                bite_time = ev["t"]
            elif ev["event"] == "timeout":
                timeout_time = ev["t"]
            if ev["phase_from"] == "EXIT" and ev["phase_to"] == "RETRACT_ARC":
                exit_completed_at = ev["t"]

        # food attachment bookkeeping, on-fork forces split by source
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

        if stride and chain is not None and i % stride == 0:
            sol = ik_damped_least_squares(chain, rec["pose"], q_guess, ik_params)
            q_guess = sol.q
            joints_rows.append(sol.q)
            joint_ticks.append(i)

    if joints_rows:
        log.joints = np.array(joints_rows)
        log.joint_ticks = np.array(joint_ticks, dtype=np.int64)

    # classify the outcome
    att = world.attachment
    mcfg_l = float(mcfg.get("lateral_halfwidth_m", 0.025)) * 1000.0
    aperture_mm = float(mcfg.get("aperture_m", 0.030)) * 1000.0
    imprecise = (abs(err_mm[0]) > mcfg_l) or (abs(err_mm[1]) > aperture_mm / 2.0)
    exit_deadline = exit_completed_at if exit_completed_at is not None else np.inf
    dropped = (att.detached and not att.taken_by_bite
               and att.detach_time is not None and att.detach_time <= exit_deadline)

    # most specific root cause first: a lost food item explains a missing
    # bite, a mislocated mouth explains a crash, the bare abort comes last
    if world.safety.tripped and phase_at_trip == "BITE_WAIT":
        outcome = "bite_failure"
    elif dropped:
        outcome = "drop"
    elif timeout_time is not None:
        outcome = "bite_failure"
    elif imprecise:
        outcome = "imprecise"
    elif world.safety.tripped:
        outcome = "aborted"
    else:
        outcome = "success"

    abs_f = np.abs(log.force)
    return TrialReport(
        scenario_name=cfg.get("name", "trial"),
        seed=seed,
        outcome=outcome,
        events=log.events,
        bite_time=bite_time,
        timeout_time=timeout_time,
        peak_force_n=float(np.linalg.norm(log.force, axis=1).max()),
        peak_force_components=tuple(float(x) for x in abs_f.max(axis=0)),
        mean_deviation_m=float(log.deviation().mean()),
        n_ticks=n_ticks,
        food_detached=att.detached,
        food_taken_by_bite=att.taken_by_bite,
        log=log,
    )


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
    """Run every scenario x repetition with seeds derived from the suite seed."""
    if "seed" not in suite_cfg:
        raise ConfigError("suite seed is mandatory")
    suite_seed = int(suite_cfg["seed"])
    reps = int(suite_cfg.get("repetitions", 1))
    entries = suite_cfg.get("trials")
    if not entries:
        raise ConfigError("suite needs a non-empty trials list")

    per_method: dict[str, dict[str, int]] = {}
    outcomes = []
    idx = 0
    for entry in entries:
        overrides = dict(entry.get("scenario", {}))
        method = entry.get("method", overrides.get("gain_preset", "ours"))
        overrides.setdefault("gain_preset", method)
        for _ in range(reps):
            overrides_i = dict(overrides)
            overrides_i["seed"] = _trial_seed(suite_seed, idx)
            scenario = Scenario.from_dict(overrides_i)
            report = run_trial(scenario)
            bucket = per_method.setdefault(method, {k: 0 for k in OUTCOMES})
            bucket[report.outcome] += 1
            outcomes.append({"index": idx, "method": method, "seed": report.seed,
                             "outcome": report.outcome})
            idx += 1

    return SuiteReport(
        name=suite_cfg.get("name", "suite"),
        seed=suite_seed,
        total=idx,
        per_method=per_method,
        trial_outcomes=outcomes,
    )


def _check_keys(cfg: dict, known: dict, path: str = "") -> None:
    """Reject a key of cfg that known lacks, at any nesting level."""
    for key, value in cfg.items():
        if key not in known:
            raise ConfigError(f"unknown study key {path + str(key)!r}")
        if isinstance(value, dict) and isinstance(known[key], dict):
            _check_keys(value, known[key], f"{path}{key}.")


def build_study_inputs(study_cfg: dict | None = None):
    """Resolve a study config dict into run_wrist_study arguments.

    Keys must be those of default_study_dict(), plus an optional
    "mouth_facing"; an unknown key raises ConfigError with its path.
    """
    from .comfort import ComfortParams, PoseDistribution
    from .transfer import transfer_orientation

    defaults = default_study_dict()
    _check_keys(study_cfg or {}, {**defaults, "mouth_facing": None})
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

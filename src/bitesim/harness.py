"""Trial and suite runners around the 1 kHz tick kernel, which wires
perception, trajectory, FSM, controller and the simulated human
together, plus the tick log's files and the wrist study's inputs.

The robot is a task-space virtual-mass admittance plant: the commanded
wrench minus the reactive correction, plus the physical contact forces,
integrates through the virtual mass with semi-implicit Euler. Joint
configurations are recovered by IK from the logged poses at a
configurable stride, for logging only: run_trial logs them, run_suite,
which reports outcomes only, does not. run_suite runs its trials
through _pooled(fn, tasks), the package's one worker pool: fn of each
task, in task order, in forked worker processes, one per usable CPU,
with the bytes of a run in one process. Every run is seed-deterministic
end to end.

run_trial builds a trial's TrialSetup (_prepare_trial), runs its ticks
from t = 0 in kernel._tick_kernel, a flat loop over floats that only
records and returns its tick log and food attachment, and reads the
report from those. The kernel writes nothing into its setup, so a setup
runs to the same bytes every time. tests/reference.py holds the same
tick as a pipeline of Pose, Wrench and state objects, the oracle the
kernel must match bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
import zlib
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .geometry import Pose, mat_to_quat_rows
from .kinematics import (ChainModel, IkParams, bundled_chain, chain_from_dict,
                         ik_damped_least_squares)
from .comfort import ComfortParams, JsonReport, PoseDistribution
from .controller import ImpedanceParams, ReactivityGains, TICK_PERIOD, phase_gains
from .transfer import (BiteDetector, TransferPhase, build_fixed_pose_plan, build_transfer_plan,
                       plan_waypoints, step, transfer_orientation)
from .perception import FoodOffsets, compute_offsets, scan_bounding_box, target_pose
from .humansim import (BiteScript, FoodAttachmentState, MouthModel, load_food_presets,
                       perturbation_trace, signal_trace)
from .kernel import TickLog, TrialSetup, _tick_kernel
from .presets import (DISTURBANCE_PARAMS, MAX_SUITE_TICKS, SCENARIO, STUDY, SUITE,
                      SUITE_SETUP_TICKS, SUITE_TRIAL, ConfigError, check_keys, load_json,
                      resolve)

# perfbench/selftest.py tests its tracer by wrapping and restoring the
# binding harness.step, which no trial calls; it goes with that test
_TRACER_PROBE = step

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
    rules name theirs: damping by stiffness (ImpedanceParams' rule), the
    virtual mass by stiffness and damping, and the mouth's facing by its
    centre.

    The kernel's semi-implicit Euler step of m x'' = -k x - c x' is stable
    exactly where a + 2 b < 4, with a = dt² k / m and b = dt c / m: its
    update's determinant is 1 - b and its trace 2 - a - b. Coupling
    through contact and the reactive gains is not judged."""
    imp, mouth, mass = cfg["impedance"], cfg["mouth"], cfg["virtual_mass"]
    if imp["damping"] is not None and any(
            k > 0 and not d > 0 for k, d in zip(imp["stiffness"], imp["damping"])):
        raise ConfigError(f"scenario key 'impedance.damping' must be > 0 on every axis of "
                          f"nonzero stiffness, got {imp['damping']!r}")
    damping = imp["damping"] or [2.0 * math.sqrt(k * m) for k, m in zip(imp["stiffness"], mass)]
    dt = TICK_PERIOD
    for axis, (k, c, m) in enumerate(zip(imp["stiffness"], damping, mass)):
        if not dt * dt * k / m + 2.0 * dt * c / m < 4.0:
            raise ConfigError(
                f"scenario key 'virtual_mass' must be > dt²·k/4 + dt·c/2 on every axis "
                f"(dt {dt} s, k the impedance stiffness, c its damping) for a stable "
                f"integration, got {m!r} on axis {axis} with k {k!r} and c {c!r}")
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
    arrays["events"] = load_json(str(arrays["events"]), f"log {str(path)!r}")
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
    """The bundled chain of that name, or the chain a .json file of that
    path defines; a file that cannot be read, or whose definition lacks a
    key or holds a value of another shape, is a ConfigError."""
    try:
        if name.endswith(".json"):
            with open(name, "r", encoding="utf-8") as f:
                return chain_from_dict(load_json(f.read(), "the file"))
        return bundled_chain(name)
    except (OSError, LookupError, TypeError, ValueError) as e:
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


# the offsets of every noiseless scan so far, by (food, resolution): such
# a scan reads no seed, so its offsets are a function of the bundled food
# and the resolution alone
_SCAN_OFFSETS: dict[tuple[str, float], FoodOffsets] = {}


def _tick_count(cfg: dict) -> int:
    """Ticks of a trial: its horizon at 1 kHz, both ends included."""
    return int(round(float(cfg["horizon_s"]) / TICK_PERIOD)) + 1


def _setup_share(cfg: dict) -> int:
    """A trial's ticks in a suite's sum for the setup its horizon does not
    size: presets.SUITE_SETUP_TICKS, or one per waypoint of its plan, which
    is built over whole segments, where the plan has more."""
    seg = cfg["segments"]
    waypoints = plan_waypoints(float(seg[k]) for k in ("arc_s", "entry_s", "exit_s"))
    return max(SUITE_SETUP_TICKS, waypoints)


def _prepare_trial(scenario: Scenario) -> TrialSetup:
    """Scan, targeting, plan, traces and every value the kernel reads.

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

    # both phase gain sets are fixed per trial
    gains = [phase_gains(phase, perceived_mouth.z_axis, entry_gains, exit_gains)
             for phase in (TransferPhase.ENTRY, TransferPhase.EXIT)]
    return TrialSetup(
        cfg=cfg, n_ticks=n_ticks, mouth_error_mm=err_mm,
        plan=plan, scan_duration=float(seg["scan_s"]),
        face_duration=float(seg["face_detect_s"]), retract_duration=retract_s,
        mouth=mouth, bite=bite, food=food, detector=detector,
        impedance=impedance, gains_entry=gains[0], gains_exit=gains[1],
        integral_cap=float(cfg["integral_cap_n"]),
        safety_limit=float(cfg["safety_limit_n"]), safety_mode=cfg["safety_mode"],
        mass=mass, head_trace=perturb, disturbance_trace=disturbance, lowpass_alpha=alpha,
    )


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

    err_mm = setup.mouth_error_mm
    lateral_mm = setup.mouth.lateral_halfwidth * 1000.0
    aperture_mm = setup.mouth.aperture * 1000.0
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
    # a chain file that cannot be read fails before the ticks run, logged or not
    chain = _resolve_chain(scenario["chain"])
    stride = int(scenario["joint_log_stride"])
    setup = _prepare_trial(scenario)
    log, attachment = _tick_kernel(setup)
    if stride:
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


# the function and tasks of the _pooled call a worker serves, bound by fork
_POOL_JOB: tuple = ()


def _bind_pool_job(fn, tasks) -> None:
    global _POOL_JOB
    _POOL_JOB = fn, tasks


def _pool_task(index: int):
    return _POOL_JOB[0](_POOL_JOB[1][index])


def _pooled(fn, tasks) -> list:
    """fn of each task, in order: in forked workers, one per usable CPU and
    at most one per task, or inline where one worker results, the usable
    CPUs are unknown or fork is not a start method. fn and the tasks reach
    the workers by fork, not pickling, so fn may be a closure. Every task
    runs to its end, or to a worker's death, before the earliest failing
    one raises, as inline; no worker outlives the call."""
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1,
                  len(tasks))
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_bind_pool_job, initargs=(fn, tasks)) as pool:
                futures = [pool.submit(_pool_task, i) for i in range(len(tasks))]
            return [f.result() for f in futures]
    return [fn(task) for task in tasks]


def run_suite(suite_cfg: dict) -> SuiteReport:
    """Run every scenario x repetition with seeds derived from the suite seed.

    Every key and every trial's scenario is checked before the first
    trial runs, and so is the suite's total of ticks, each trial's own
    plus its setup's share (_setup_share), which sizes the setups held at
    once: past presets.MAX_SUITE_TICKS it is a ConfigError naming
    'repetitions'."""
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
            if rep == 0:  # every repetition of an entry has its horizon and plan
                raw = trials[-1][1].raw
                ticks += reps * (_tick_count(raw) + _setup_share(raw))
                if ticks > MAX_SUITE_TICKS:
                    raise ConfigError(
                        f"suite key 'repetitions' must be few enough for the suite's "
                        f"trials to take at most {MAX_SUITE_TICKS:,} ticks (horizon_s at "
                        f"1 kHz, plus 1, plus {SUITE_SETUP_TICKS:,} for the setup or one per "
                        f"plan waypoint if more, each), "
                        f"got {reps}: {ticks:,} by trials[{n}]")

    # every chain is resolved, though a suite logs no joints, and every
    # setup built here, before any ticks run: a bad scenario fails first,
    # and the scan cache stays warm in this process
    for name in dict.fromkeys(scenario["chain"] for _, scenario in trials):
        _resolve_chain(name)
    setups = [_prepare_trial(scenario) for _, scenario in trials]
    per_method: dict[str, dict[str, int]] = {}
    outcomes = []
    for idx, ((method, scenario), outcome) in enumerate(
            zip(trials, _pooled(_suite_outcome, setups))):
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

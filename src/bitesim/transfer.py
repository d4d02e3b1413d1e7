"""Bite-transfer protocol: arced approach, linear mouth entry, bite
detection with timeout, linear exit, and arc return, encoded as an
explicit state machine driven by the 1 kHz harness tick.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Pose, interpolate_pose, quat_from_axis_angle, quat_mul
from .controller import Wrench

DEFAULT_ARC_RADIUS = 0.45  # m
DEFAULT_ENTRY_DEPTH = 0.018  # m
DEFAULT_LOWERING = 0.003  # m
DEFAULT_BITE_THRESHOLD = 0.3  # N
DEFAULT_BITE_TIMEOUT = 1.5  # s
DEFAULT_FORK_PITCH = np.deg2rad(25.0)

_UP = np.array([0.0, 0.0, 1.0])


class TransferPhase(enum.IntEnum):
    """Ordered trial phases; ABORTED is reachable from anywhere."""

    SCAN = 0
    FACE_DETECT = 1
    APPROACH_ARC = 2
    ENTRY = 3
    BITE_WAIT = 4
    EXIT = 5
    RETRACT_ARC = 6
    DONE = 7
    ABORTED = 8


EXIT_SIDE_PHASES = frozenset({TransferPhase.EXIT, TransferPhase.RETRACT_ARC})


@dataclass(frozen=True)
class Segment:
    label: str  # arc | linear-entry | dwell | linear-exit | arc-return
    t_start: float
    t_end: float


@dataclass(frozen=True)
class TrajectoryPlan:
    """Timed waypoints with labeled segments."""

    times: np.ndarray
    poses: tuple[Pose, ...]
    segments: tuple[Segment, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).copy()
        if t.ndim != 1 or t.shape[0] != len(self.poses):
            raise ValueError("times and poses must have equal length")
        if t.shape[0] < 1:
            raise ValueError("plan needs at least one waypoint")
        if np.any(np.diff(t) <= 0):
            raise ValueError("waypoint timestamps must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "poses", tuple(self.poses))
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def start_pose(self) -> Pose:
        return self.poses[0]

    @property
    def end_pose(self) -> Pose:
        return self.poses[-1]

    def segment(self, label: str) -> Segment:
        for s in self.segments:
            if s.label == label:
                return s
        raise KeyError(f"no segment labeled {label!r}")


def interpolate(plan: TrajectoryPlan, t: float) -> Pose:
    """Pose at time t: linear position, slerp orientation between waypoints."""
    times = plan.times
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError(f"t={t} outside plan span [{times[0]}, {times[-1]}]")
    t = min(max(t, times[0]), times[-1])
    i = int(np.searchsorted(times, t, side="right")) - 1
    if i >= len(times) - 1:
        return plan.poses[-1]
    if t == times[i]:
        return plan.poses[i]
    frac = (t - times[i]) / (times[i + 1] - times[i])
    return interpolate_pose(plan.poses[i], plan.poses[i + 1], frac)


def concat_plans(parts: list[TrajectoryPlan]) -> TrajectoryPlan:
    """Join plans end to end, dropping duplicated boundary waypoints."""
    if not parts:
        raise ValueError("nothing to concatenate")
    times = [parts[0].times]
    poses = list(parts[0].poses)
    segments = list(parts[0].segments)
    offset = float(parts[0].times[-1])
    for p in parts[1:]:
        shifted = p.times - p.times[0] + offset
        times.append(shifted[1:])
        poses.extend(p.poses[1:])
        segments.extend(Segment(s.label, s.t_start - p.times[0] + offset,
                                s.t_end - p.times[0] + offset) for s in p.segments)
        offset = float(shifted[-1])
    return TrajectoryPlan(np.concatenate(times), poses, segments)


def _waypoint_times(duration: float, sample_rate: float) -> np.ndarray:
    n = max(1, int(round(duration * sample_rate)))
    return np.linspace(0.0, duration, n + 1)


def plan_arc(target_pre_mouth: Pose, out_direction, radius: float = DEFAULT_ARC_RADIUS,
             start_angle: float = np.pi / 2, duration: float = 6.0,
             sample_rate: float = 100.0, start_orientation=None) -> TrajectoryPlan:
    """Circular approach arc ending at the pre-mouth target.

    The arc lies in the vertical plane spanned by world-up and
    ``out_direction`` (the horizontal direction pointing away from the
    mouth), centered ``radius`` straight below the target. Angle 0 is at
    the target; ``start_angle`` > 0 swings down/out along the arc.
    """
    if radius <= 0:
        raise ValueError("arc radius must be > 0")
    if duration <= 0:
        raise ValueError("arc duration must be > 0")
    u = np.asarray(out_direction, dtype=float).copy()
    u[2] = 0.0
    n = np.linalg.norm(u)
    if n < 1e-9:
        raise ValueError("out_direction must have a horizontal component")
    u /= n

    center = target_pre_mouth.position - radius * _UP
    times = _waypoint_times(duration, sample_rate)
    angles = start_angle + (times / duration) * (0.0 - start_angle)
    q0 = target_pre_mouth.orientation if start_orientation is None else np.asarray(start_orientation)
    poses = []
    for t, ang in zip(times, angles):
        p = center + radius * (np.cos(ang) * _UP + np.sin(ang) * u)
        frac = t / duration
        poses.append(Pose(p, interpolate_pose(
            Pose(p, q0), Pose(p, target_pre_mouth.orientation), frac).orientation))
    return TrajectoryPlan(times, poses, [Segment("arc", 0.0, duration)])


def linear_segment(start: Pose, end: Pose, duration: float, sample_rate: float = 100.0,
                   label: str = "linear-entry") -> TrajectoryPlan:
    if duration <= 0:
        raise ValueError("segment duration must be > 0")
    times = _waypoint_times(duration, sample_rate)
    poses = [interpolate_pose(start, end, t / duration) for t in times]
    # pin the endpoints so terminal positions are exact
    poses[0] = start
    poses[-1] = end
    return TrajectoryPlan(times, poses, [Segment(label, 0.0, duration)])


def dwell_segment(pose: Pose, duration: float, sample_rate: float = 100.0) -> TrajectoryPlan:
    times = _waypoint_times(duration, sample_rate)
    return TrajectoryPlan(times, [pose] * len(times), [Segment("dwell", 0.0, duration)])


def entry_segment(pre_mouth: Pose, mouth_frame: Pose,
                  entry_depth: float = DEFAULT_ENTRY_DEPTH,
                  lowering: float = DEFAULT_LOWERING,
                  duration: float = 2.0, sample_rate: float = 100.0) -> TrajectoryPlan:
    """Straight entry along -z of the mouth frame, then a small drop.

    Orientation is held. With zero depth and lowering this degenerates
    to a dwell at the pre-mouth pose.
    """
    if entry_depth < 0 or lowering < 0:
        raise ValueError("entry depth and lowering must be >= 0")
    z_hat = mouth_frame.z_axis
    y_hat = mouth_frame.y_axis
    p0 = pre_mouth.position
    p_in = p0 - entry_depth * z_hat
    p_end = p0 - entry_depth * z_hat - lowering * y_hat
    total = entry_depth + lowering
    if total == 0.0:
        return dwell_segment(pre_mouth, duration, sample_rate)

    times = _waypoint_times(duration, sample_rate)
    split = duration * (entry_depth / total)
    q = pre_mouth.orientation
    poses = []
    for t in times:
        if t <= split or entry_depth == 0.0:
            frac = t / split if split > 0 else 1.0
            p = p0 + frac * (p_in - p0)
        else:
            frac = (t - split) / (duration - split)
            p = p_in + frac * (p_end - p_in)
        poses.append(Pose(p, q))
    poses[-1] = Pose(p_end, q)
    return TrajectoryPlan(times, poses, [Segment("linear-entry", 0.0, duration)])


def transfer_orientation(mouth_frame: Pose, pitch: float = DEFAULT_FORK_PITCH) -> np.ndarray:
    """Fork orientation for in-mouth transfer.

    A fixed flip (half turn about the mouth-frame vertical plane normal)
    points the fork tines-up into the mouth, then the long axis is
    pitched upward by ``pitch``.
    """
    flip = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi)
    tilt = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), -pitch)
    return quat_mul(mouth_frame.orientation, quat_mul(flip, tilt))


@dataclass(frozen=True)
class BiteDetector:
    """Threshold detector on the mouth-frame y force with a timeout."""

    threshold: float = DEFAULT_BITE_THRESHOLD
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    timeout: float = DEFAULT_BITE_TIMEOUT
    elapsed: float = 0.0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("bite threshold must be > 0")
        if self.timeout <= 0:
            raise ValueError("bite timeout must be > 0")
        a = np.asarray(self.axis, dtype=float).reshape(3).copy()
        a.setflags(write=False)
        object.__setattr__(self, "axis", a)


def detect_bite(det: BiteDetector, f_m: Wrench, dt: float) -> tuple[str, BiteDetector]:
    """One detector tick: 'bitten', 'waiting', or 'timed_out'."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    f_y = float(np.dot(f_m.force, det.axis))
    if abs(f_y) > det.threshold:
        return "bitten", det
    elapsed = det.elapsed + dt
    det = replace(det, elapsed=elapsed)
    # tolerate float accumulation so N ticks of dt = timeout fire on tick N
    if elapsed >= det.timeout - 1e-9:
        return "timed_out", det
    return "waiting", det


@dataclass(frozen=True)
class FsmState:
    """Transfer state machine state; advanced by pure calls to step()."""

    plan: TrajectoryPlan
    detector: BiteDetector
    phase: TransferPhase = TransferPhase.SCAN
    t_phase_start: float = 0.0
    scan_duration: float = 0.0
    face_duration: float = 0.0
    retract_duration: float = 6.0
    hold_pose: Pose | None = None
    wait_started_at: float | None = None
    bite_time: float | None = None


def _segment_or_none(plan: TrajectoryPlan, label: str) -> Segment | None:
    try:
        return plan.segment(label)
    except KeyError:
        return None


def step(state: FsmState, f_m: Wrench, clock: float, dt: float,
         abort: bool = False) -> tuple[FsmState, Pose, list[dict]]:
    """Advance the FSM one tick.

    Returns the new state, the motion setpoint for this tick, and any
    transition/event records {t, phase_from, phase_to, event, f_y}.
    Zero-duration phases are chained within the tick so motion phases
    start on time.
    """
    events: list[dict] = []
    f_y = float(np.dot(f_m.force, state.detector.axis))

    def log(prev, new, event=None):
        events.append({"t": clock, "phase_from": prev.name, "phase_to": new.name,
                       "event": event, "f_y": f_y})

    plan = state.plan
    arc = _segment_or_none(plan, "arc")
    entry = _segment_or_none(plan, "linear-entry") or _segment_or_none(plan, "dwell")
    exit_seg = _segment_or_none(plan, "linear-exit") or _segment_or_none(plan, "arc-return")

    if abort and state.phase != TransferPhase.ABORTED:
        setpoint = _phase_setpoint(state, plan, arc, entry, exit_seg, clock)
        log(state.phase, TransferPhase.ABORTED, "safety_abort")
        state = replace(state, phase=TransferPhase.ABORTED, t_phase_start=clock,
                        hold_pose=setpoint)
        return state, setpoint, events

    # chain through any zero/elapsed phases so motion starts on schedule
    for _ in range(len(TransferPhase)):
        phase = state.phase
        t_in = clock - state.t_phase_start

        if phase == TransferPhase.SCAN:
            if t_in >= state.scan_duration:
                log(phase, TransferPhase.FACE_DETECT)
                over = t_in - state.scan_duration
                state = replace(state, phase=TransferPhase.FACE_DETECT,
                                t_phase_start=clock - over)
                continue
            return state, plan.start_pose, events

        if phase == TransferPhase.FACE_DETECT:
            if t_in >= state.face_duration:
                log(phase, TransferPhase.APPROACH_ARC)
                over = t_in - state.face_duration
                state = replace(state, phase=TransferPhase.APPROACH_ARC,
                                t_phase_start=clock - over)
                continue
            return state, plan.start_pose, events

        if phase == TransferPhase.APPROACH_ARC:
            seg = arc if arc is not None else entry
            if t_in >= seg.t_end - seg.t_start:
                log(phase, TransferPhase.ENTRY)
                over = t_in - (seg.t_end - seg.t_start)
                state = replace(state, phase=TransferPhase.ENTRY, t_phase_start=clock - over)
                continue
            return state, interpolate(plan, seg.t_start + t_in), events

        if phase == TransferPhase.ENTRY:
            seg = entry
            if t_in >= seg.t_end - seg.t_start:
                hold = interpolate(plan, seg.t_end)
                log(phase, TransferPhase.BITE_WAIT)
                over = t_in - (seg.t_end - seg.t_start)
                state = replace(state, phase=TransferPhase.BITE_WAIT,
                                t_phase_start=clock - over, hold_pose=hold,
                                wait_started_at=clock - over)
                continue
            return state, interpolate(plan, seg.t_start + t_in), events

        if phase == TransferPhase.BITE_WAIT:
            status, det = detect_bite(state.detector, f_m, dt)
            state = replace(state, detector=det)
            if status != "waiting":
                log(phase, TransferPhase.EXIT, "bite" if status == "bitten" else "timeout")
                state = replace(state, phase=TransferPhase.EXIT, t_phase_start=clock,
                                bite_time=clock if status == "bitten" else None)
            return state, state.hold_pose, events

        if phase == TransferPhase.EXIT:
            seg = exit_seg
            if t_in >= seg.t_end - seg.t_start:
                log(phase, TransferPhase.RETRACT_ARC)
                over = t_in - (seg.t_end - seg.t_start)
                state = replace(state, phase=TransferPhase.RETRACT_ARC,
                                t_phase_start=clock - over)
                continue
            return state, interpolate(plan, seg.t_start + t_in), events

        if phase == TransferPhase.RETRACT_ARC:
            if arc is None or state.retract_duration <= 0:
                log(phase, TransferPhase.DONE)
                state = replace(state, phase=TransferPhase.DONE, t_phase_start=clock,
                                hold_pose=plan.start_pose if arc is None else interpolate(plan, arc.t_start))
                continue
            if t_in >= state.retract_duration:
                hold = interpolate(plan, arc.t_start)
                log(phase, TransferPhase.DONE)
                state = replace(state, phase=TransferPhase.DONE, t_phase_start=clock,
                                hold_pose=hold)
                continue
            frac = t_in / state.retract_duration
            arc_t = arc.t_end - frac * (arc.t_end - arc.t_start)
            return state, interpolate(plan, arc_t), events

        # DONE / ABORTED hold position
        return state, state.hold_pose if state.hold_pose is not None else plan.end_pose, events

    raise RuntimeError("FSM failed to settle within one tick")  # pragma: no cover


def _phase_setpoint(state: FsmState, plan, arc, entry, exit_seg, clock) -> Pose:
    """Setpoint for the current phase without advancing (abort freeze)."""
    t_in = clock - state.t_phase_start
    if state.phase == TransferPhase.APPROACH_ARC and arc is not None:
        return interpolate(plan, min(arc.t_start + t_in, arc.t_end))
    if state.phase == TransferPhase.ENTRY and entry is not None:
        return interpolate(plan, min(entry.t_start + t_in, entry.t_end))
    if state.phase == TransferPhase.EXIT and exit_seg is not None:
        return interpolate(plan, min(exit_seg.t_start + t_in, exit_seg.t_end))
    if state.phase == TransferPhase.RETRACT_ARC and arc is not None:
        frac = min(t_in / state.retract_duration, 1.0) if state.retract_duration > 0 else 1.0
        return interpolate(plan, arc.t_end - frac * (arc.t_end - arc.t_start))
    if state.hold_pose is not None:
        return state.hold_pose
    return plan.start_pose


def build_transfer_plan(mouth_frame: Pose, target_pre_mouth: Pose,
                        arc_duration: float = 6.0, entry_duration: float = 2.0,
                        exit_duration: float = 2.0, radius: float = DEFAULT_ARC_RADIUS,
                        start_angle: float = np.pi / 2,
                        entry_depth: float = DEFAULT_ENTRY_DEPTH,
                        lowering: float = DEFAULT_LOWERING,
                        sample_rate: float = 100.0) -> TrajectoryPlan:
    """Full in-mouth plan: arc, linear entry, linear exit (10 s default)."""
    out_dir = mouth_frame.z_axis
    arc = plan_arc(target_pre_mouth, out_dir, radius, start_angle, arc_duration, sample_rate)
    entry = entry_segment(target_pre_mouth, mouth_frame, entry_depth, lowering,
                          entry_duration, sample_rate)
    exit_part = linear_segment(entry.end_pose, target_pre_mouth, exit_duration,
                               sample_rate, label="linear-exit")
    return concat_plans([arc, entry, exit_part])


def build_fixed_pose_plan(mouth_frame: Pose, target_pre_mouth: Pose,
                          arc_duration: float = 6.0, dwell_duration: float = 2.0,
                          return_duration: float = 2.0, radius: float = DEFAULT_ARC_RADIUS,
                          start_angle: float = np.pi / 2,
                          sample_rate: float = 100.0) -> TrajectoryPlan:
    """Out-of-mouth baseline: hold at the pre-mouth pose, then arc back."""
    out_dir = mouth_frame.z_axis
    arc = plan_arc(target_pre_mouth, out_dir, radius, start_angle, arc_duration, sample_rate)
    hold = dwell_segment(target_pre_mouth, dwell_duration, sample_rate)
    # return along the same arc, compressed into the return duration
    times = _waypoint_times(return_duration, sample_rate)
    back = [interpolate(arc, arc.duration * (1.0 - t / return_duration)) for t in times]
    ret = TrajectoryPlan(times, back, [Segment("arc-return", 0.0, return_duration)])
    return concat_plans([arc, hold, ret])

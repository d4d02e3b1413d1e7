"""Bite-transfer protocol: arced approach, linear mouth entry, bite
detection with timeout, linear exit, and arc return, encoded as an
explicit state machine driven by the 1 kHz harness tick.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (Pose, interpolate_pose, quat_from_axis_angle, quat_mul, quat_normalize,
                       quat_normalize_rows, slerp_rows)
from .controller import Wrench

DEFAULT_ARC_RADIUS = 0.45  # m
DEFAULT_ENTRY_DEPTH = 0.018  # m
DEFAULT_LOWERING = 0.003  # m
DEFAULT_BITE_THRESHOLD = 0.3  # N
DEFAULT_BITE_TIMEOUT = 1.5  # s
DEFAULT_FORK_PITCH = np.deg2rad(25.0)
WAYPOINT_RATE = 100.0  # Hz: every plan samples its waypoints at this rate

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


@dataclass(frozen=True)
class Segment:
    label: str  # arc | linear-entry | dwell | linear-exit | arc-return
    t_start: float
    t_end: float


@dataclass(frozen=True)
class TrajectoryPlan:
    """Timed waypoints with labeled segments: waypoint i is at times[i],
    at positions[i] (m) with the unit quaternion orientations[i]. The
    arrays are read-only and keep the bits the plan was built with."""

    times: np.ndarray  # (n,)
    positions: np.ndarray  # (n, 3)
    orientations: np.ndarray  # (n, 4)
    segments: tuple[Segment, ...]

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        p = np.array(self.positions, dtype=float)
        q = np.array(self.orientations, dtype=float)
        n = len(t) if t.ndim == 1 else -1
        if p.shape != (n, 3) or q.shape != (n, 4):
            raise ValueError("times (n,), positions (n, 3) and orientations (n, 4) "
                             "must hold the same n waypoints")
        if n < 1:
            raise ValueError("plan needs at least one waypoint")
        if np.any(np.diff(t) <= 0):
            raise ValueError("waypoint timestamps must be strictly increasing")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("waypoints must be finite")
        for name, a in (("times", t), ("positions", p), ("orientations", q)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def pose(self, i: int) -> Pose:
        """Waypoint i as a Pose with the stored bits."""
        return Pose.unchecked(self.positions[i], self.orientations[i])

    @property
    def poses(self) -> tuple[Pose, ...]:
        return tuple(map(Pose.unchecked, self.positions, self.orientations))

    @property
    def start_pose(self) -> Pose:
        return self.pose(0)

    @property
    def end_pose(self) -> Pose:
        return self.pose(-1)


def interpolate(plan: TrajectoryPlan, t: float) -> Pose:
    """Pose at time t: linear position, slerp orientation between waypoints."""
    times = plan.times
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError(f"t={t} outside plan span [{times[0]}, {times[-1]}]")
    t = min(max(t, times[0]), times[-1])
    i = int(np.searchsorted(times, t, side="right")) - 1
    if i >= len(times) - 1:
        return plan.end_pose
    if t == times[i]:
        return plan.pose(i)
    frac = (t - times[i]) / (times[i + 1] - times[i])
    return interpolate_pose(plan.pose(i), plan.pose(i + 1), frac)


def interpolate_rows(plan: TrajectoryPlan, ts) -> tuple[np.ndarray, np.ndarray]:
    """interpolate at each of the times ts, to the bit, as stacked
    positions (m, 3) and orientations (m, 4)."""
    times = plan.times
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < times[0] - 1e-12) or np.any(ts > times[-1] + 1e-12):
        raise ValueError(f"times outside plan span [{times[0]}, {times[-1]}]")
    ts = np.minimum(np.maximum(ts, times[0]), times[-1])
    i = np.searchsorted(times, ts, side="right") - 1
    # on a waypoint, the last one included, the plan holds its bits
    between = (i < len(times) - 1) & (ts != times[i])
    j = i[between]
    frac = (ts[between] - times[j]) / (times[j + 1] - times[j])
    positions = plan.positions[i]
    orientations = plan.orientations[i]
    positions[between] = ((1.0 - frac)[:, None] * plan.positions[j]
                          + frac[:, None] * plan.positions[j + 1])
    orientations[between] = quat_normalize_rows(
        slerp_rows(plan.orientations[j], plan.orientations[j + 1], frac))
    return positions, orientations


def concat_plans(parts: list[TrajectoryPlan]) -> TrajectoryPlan:
    """Join plans end to end, dropping duplicated boundary waypoints."""
    if not parts:
        raise ValueError("nothing to concatenate")
    times = [parts[0].times]
    positions = [parts[0].positions]
    orientations = [parts[0].orientations]
    segments = list(parts[0].segments)
    offset = float(parts[0].times[-1])
    for p in parts[1:]:
        shifted = p.times - p.times[0] + offset
        times.append(shifted[1:])
        positions.append(p.positions[1:])
        orientations.append(p.orientations[1:])
        segments.extend(Segment(s.label, s.t_start - p.times[0] + offset,
                                s.t_end - p.times[0] + offset) for s in p.segments)
        offset = float(shifted[-1])
    return TrajectoryPlan(np.concatenate(times), np.concatenate(positions),
                          np.concatenate(orientations), segments)


def _waypoint_times(duration: float) -> np.ndarray:
    n = max(1, int(round(duration * WAYPOINT_RATE)))
    return np.linspace(0.0, duration, n + 1)


def plan_arc(target_pre_mouth: Pose, out_direction, radius: float = DEFAULT_ARC_RADIUS,
             start_angle: float = np.pi / 2, duration: float = 6.0) -> TrajectoryPlan:
    """Circular approach arc ending at the pre-mouth target.

    The arc lies in the vertical plane spanned by world-up and
    ``out_direction`` (the horizontal direction pointing away from the
    mouth), centered ``radius`` straight below the target. Angle 0 is at
    the target; ``start_angle`` > 0 swings down/out along the arc, and
    every waypoint holds the target orientation.
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
    times = _waypoint_times(duration)
    angles = start_angle + (times / duration) * (0.0 - start_angle)
    positions = center + radius * (np.cos(angles)[:, None] * _UP + np.sin(angles)[:, None] * u)
    # the held orientation is the target's slerped to itself, which does not
    # depend on t, but the renormalisations of slerp and of three Poses on
    # the way can each move a last bit
    q = target_pre_mouth.orientation
    slerped = interpolate_pose(Pose(center, q), Pose(center, q), 0.0)
    held = Pose(center, slerped.orientation).orientation
    return TrajectoryPlan(times, positions, np.tile(held, (len(times), 1)),
                          [Segment("arc", 0.0, duration)])


def linear_segment(start: Pose, end: Pose, duration: float,
                   label: str = "linear-entry") -> TrajectoryPlan:
    """Linear position and slerp orientation from start to end; the end
    waypoints are start and end themselves, so terminal positions are exact."""
    if duration <= 0:
        raise ValueError("segment duration must be > 0")
    ends = TrajectoryPlan([0.0, duration], [start.position, end.position],
                          [start.orientation, end.orientation], [])
    times = _waypoint_times(duration)
    return TrajectoryPlan(times, *interpolate_rows(ends, times), [Segment(label, 0.0, duration)])


def dwell_segment(pose: Pose, duration: float) -> TrajectoryPlan:
    times = _waypoint_times(duration)
    n = len(times)
    return TrajectoryPlan(times, np.tile(pose.position, (n, 1)),
                          np.tile(pose.orientation, (n, 1)), [Segment("dwell", 0.0, duration)])


def entry_segment(pre_mouth: Pose, mouth_frame: Pose,
                  entry_depth: float = DEFAULT_ENTRY_DEPTH,
                  lowering: float = DEFAULT_LOWERING,
                  duration: float = 2.0) -> TrajectoryPlan:
    """Straight entry along -z of the mouth frame, then a small drop.

    Orientation is held. With zero depth the drop takes the whole
    duration; with zero depth and lowering this degenerates to a dwell
    at the pre-mouth pose.
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
        return dwell_segment(pre_mouth, duration)

    times = _waypoint_times(duration)
    split = duration * (entry_depth / total)
    # in along -z until split, then down; the last waypoint is the drop's end
    inward = times <= split
    frac_in = times[inward] / split if split > 0 else 1.0
    frac_down = (times[~inward] - split) / (duration - split)
    positions = np.empty((len(times), 3))
    positions[inward] = p0 + np.multiply.outer(frac_in, p_in - p0)
    positions[~inward] = p_in + frac_down[:, None] * (p_end - p_in)
    positions[-1] = p_end
    # the held orientation, as Pose renormalises it
    q = quat_normalize(pre_mouth.orientation)
    return TrajectoryPlan(times, positions, np.tile(q, (len(times), 1)),
                          [Segment("linear-entry", 0.0, duration)])


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


def phase_segments(plan: TrajectoryPlan) -> tuple[Segment | None, ...]:
    """(arc, entry, exit): the segments that time APPROACH_ARC, ENTRY and EXIT, or
    None; a fixed-pose plan's dwell is its entry and its arc return its exit."""
    def first(*labels):
        return next((s for label in labels for s in plan.segments if s.label == label), None)
    return first("arc"), first("linear-entry", "dwell"), first("linear-exit", "arc-return")


def step(state: FsmState, f_m: Wrench, clock: float, dt: float,
         abort: bool = False) -> tuple[FsmState, Pose, list[dict]]:
    """Advance the FSM one tick.

    Returns the new state, the motion setpoint for this tick, and any
    transition/event records {t, phase_from, phase_to, event, f_y}. A
    phase whose time is up hands its overshoot to the next within the
    tick, so motion phases start on time. An abort logs ``safety_abort``
    and then holds like DONE (the hold pose, else the plan's end pose);
    the caller freezes the plant and never reads that setpoint.
    """
    events: list[dict] = []
    f_y = float(np.dot(f_m.force, state.detector.axis))

    def go(phase, t_start, event=None, **changes):
        nonlocal state
        events.append({"t": clock, "phase_from": state.phase.name, "phase_to": phase.name,
                       "event": event, "f_y": f_y})
        state = replace(state, phase=phase, t_phase_start=t_start, **changes)

    plan = state.plan
    arc, entry, exit_seg = phase_segments(plan)
    # the segment that each motion phase follows
    motion = {TransferPhase.APPROACH_ARC: arc or entry, TransferPhase.ENTRY: entry,
              TransferPhase.EXIT: exit_seg}

    if abort and state.phase != TransferPhase.ABORTED:
        go(TransferPhase.ABORTED, clock, "safety_abort")

    while True:  # each pass either returns or moves to a later phase
        phase = state.phase
        t_in = clock - state.t_phase_start

        if phase in (TransferPhase.SCAN, TransferPhase.FACE_DETECT):
            dur = state.scan_duration if phase == TransferPhase.SCAN else state.face_duration
            if t_in >= dur:
                go(TransferPhase(phase + 1), clock - (t_in - dur))
                continue
            return state, plan.start_pose, events

        if phase in motion:
            seg = motion[phase]
            dur = seg.t_end - seg.t_start
            if t_in >= dur:
                start = clock - (t_in - dur)
                wait = ({"hold_pose": interpolate(plan, seg.t_end), "wait_started_at": start}
                        if phase == TransferPhase.ENTRY else {})
                go(TransferPhase(phase + 1), start, **wait)
                continue
            return state, interpolate(plan, seg.t_start + t_in), events

        if phase == TransferPhase.BITE_WAIT:
            status, det = detect_bite(state.detector, f_m, dt)
            state = replace(state, detector=det)
            if status != "waiting":
                bitten = status == "bitten"
                go(TransferPhase.EXIT, clock, "bite" if bitten else "timeout",
                   bite_time=clock if bitten else None)
            return state, state.hold_pose, events

        if phase == TransferPhase.RETRACT_ARC:
            dur = state.retract_duration
            if arc is None or dur <= 0 or t_in >= dur:
                go(TransferPhase.DONE, clock, hold_pose=(
                    plan.start_pose if arc is None else interpolate(plan, arc.t_start)))
                continue
            frac = t_in / dur
            return state, interpolate(plan, arc.t_end - frac * (arc.t_end - arc.t_start)), events

        # DONE / ABORTED hold position
        return state, state.hold_pose if state.hold_pose is not None else plan.end_pose, events


def build_transfer_plan(mouth_frame: Pose, target_pre_mouth: Pose,
                        arc_duration: float = 6.0, entry_duration: float = 2.0,
                        exit_duration: float = 2.0, radius: float = DEFAULT_ARC_RADIUS,
                        start_angle: float = np.pi / 2,
                        entry_depth: float = DEFAULT_ENTRY_DEPTH,
                        lowering: float = DEFAULT_LOWERING) -> TrajectoryPlan:
    """Full in-mouth plan: arc, linear entry, linear exit (10 s default)."""
    out_dir = mouth_frame.z_axis
    arc = plan_arc(target_pre_mouth, out_dir, radius, start_angle, arc_duration)
    entry = entry_segment(target_pre_mouth, mouth_frame, entry_depth, lowering,
                          entry_duration)
    exit_part = linear_segment(entry.end_pose, target_pre_mouth, exit_duration,
                               label="linear-exit")
    return concat_plans([arc, entry, exit_part])


def build_fixed_pose_plan(mouth_frame: Pose, target_pre_mouth: Pose,
                          arc_duration: float = 6.0, dwell_duration: float = 2.0,
                          return_duration: float = 2.0, radius: float = DEFAULT_ARC_RADIUS,
                          start_angle: float = np.pi / 2) -> TrajectoryPlan:
    """Out-of-mouth baseline: hold at the pre-mouth pose, then arc back."""
    out_dir = mouth_frame.z_axis
    arc = plan_arc(target_pre_mouth, out_dir, radius, start_angle, arc_duration)
    hold = dwell_segment(target_pre_mouth, dwell_duration)
    # return along the same arc, compressed into the return duration
    times = _waypoint_times(return_duration)
    back = interpolate_rows(arc, arc.duration * (1.0 - times / return_duration))
    ret = TrajectoryPlan(times, *back, [Segment("arc-return", 0.0, return_duration)])
    return concat_plans([arc, hold, ret])

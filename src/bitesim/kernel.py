"""The trial's 1 kHz tick kernel: what it reads, its setpoint tables and
what it writes.

harness._prepare_trial builds a TrialSetup from a scenario: exactly the
values _tick_kernel reads, with no state object per tick. _tick_kernel
runs the trial's ticks from t = 0 as one flat loop over floats and
returns its TickLog and the food attachment; it writes nothing into the
setup, so a setup runs to the same bytes every time. tests/reference.py
holds the same tick as a pipeline of Pose, Wrench and state objects,
the oracle the kernel must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .controller import TICK_PERIOD, ImpedanceParams, ReactivityGains, SensorFault
from .geometry import (quat_conj, quat_mul, quat_normalize, quat_rotate, quat_to_matrix,
                       quat_to_rotvec_rows)
from .humansim import (CAVITY_DEPTH, LIP_MARGIN, BiteScript, FoodAttachmentState, FoodPreset,
                       MouthModel)
from .transfer import (BiteDetector, TrajectoryPlan, TransferPhase, interpolate_rows,
                       phase_segments)


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


@dataclass
class TrialSetup:
    """Everything a trial builds from its scenario before the first tick:
    what _tick_kernel reads, and the scenario and mouth error that
    _finish_trial reads."""

    cfg: dict
    n_ticks: int
    mouth_error_mm: np.ndarray
    # the FSM: the plan, and the durations of the phases it does not time
    plan: TrajectoryPlan
    scan_duration: float
    face_duration: float
    retract_duration: float
    # the world: the mouth as it sits, the bite, the food on the fork
    mouth: MouthModel
    bite: BiteScript
    food: FoodPreset
    detector: BiteDetector
    # the controller: both phase gain sets (controller.phase_gains), the
    # cap of the integral, the safety stop, and the plant's virtual mass
    impedance: ImpedanceParams
    gains_entry: ReactivityGains
    gains_exit: ReactivityGains
    integral_cap: float
    safety_limit: float
    safety_mode: str
    mass: np.ndarray  # (6,) virtual mass / inertia
    # per-tick traces, whose last row holds past their end: the head's
    # offset of the mouth (n, 3) and the wrench on the fork (n, 6)
    head_trace: np.ndarray
    disturbance_trace: np.ndarray
    lowpass_alpha: float | None


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


def _setpoint_table(setup: TrialSetup, first: int, phase: int, t_phase_start: float,
                    prev_setpoint: np.ndarray | None = None) -> _SetpointTable:
    """Run transfer.step on the setup's plan and phase durations from tick
    first on, in phase since t_phase_start, as far as no force can change
    its course: to BITE_WAIT, which holds its setpoint until the bite
    detector ends it, or to DONE.

    As in step, a phase ends on the first tick whose time in it reaches
    its duration and hands its overshoot to the next within that tick.
    Every setpoint is the plan at some time, so one interpolate_rows call
    gives them all. The feed-forward velocity of a tick is its setpoint's
    change since the tick before (prev_setpoint for the first, none at
    t = 0) over the tick period, the rotation as quat_to_rotvec of
    q[i] * conj(q[i - 1]); each row rounds as the per-tick sums do."""
    P = TransferPhase
    plan = setup.plan
    arc, entry, exit_seg = phase_segments(plan)
    approach = arc if arc is not None else entry
    t_first = float(plan.times[0])
    retract_dur = setup.retract_duration
    # each timed phase: its duration and the plan time of a time in it
    timed = {
        P.SCAN: (setup.scan_duration, lambda t_in: np.full(len(t_in), t_first)),
        P.FACE_DETECT: (setup.face_duration, lambda t_in: np.full(len(t_in), t_first)),
        P.APPROACH_ARC: (approach.t_end - approach.t_start,
                         lambda t_in: approach.t_start + t_in),
        P.ENTRY: (entry.t_end - entry.t_start, lambda t_in: entry.t_start + t_in),
        P.EXIT: (exit_seg.t_end - exit_seg.t_start, lambda t_in: exit_seg.t_start + t_in),
        # without an arc or a duration the retract ends at once
        P.RETRACT_ARC: ((retract_dur if arc is not None and retract_dur > 0 else -math.inf),
                        lambda t_in: arc.t_end - (t_in / retract_dur) * (arc.t_end - arc.t_start)),
    }
    ts = np.arange(first, setup.n_ticks) * TICK_PERIOD
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

    Tick for tick it computes, to the bit, what the reference loop of
    tests/reference.py (simulate_tick, its oracle) computes from the same
    setup, but it builds no Pose, Wrench or state object per tick: the
    plant, controller, filter and FSM state live in float locals and
    preallocated float64 arrays, and each tick writes one row of a
    preallocated record array. Plain floats
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
    of the robot Pose the reference builds.
    """
    n_ticks = setup.n_ticks
    dt = TICK_PERIOD
    tripped = False
    norm_mode = setup.safety_mode == "norm"
    limit = setup.safety_limit

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
    mouth = setup.mouth
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
    head = setup.head_trace
    if not np.all(np.isfinite(head[:n_ticks])):
        raise ValueError("pose position must be finite")
    head_moves = (head != 0.0).any(axis=1).tolist()
    last_head = len(head) - 1
    dist = setup.disturbance_trace
    dist_on = dist.any(axis=1).tolist()
    last_dist = len(dist) - 1

    script = setup.bite
    attachment = FoodAttachmentState(setup.food)
    detached = False
    alpha = setup.lowpass_alpha
    filt = [0.0] * 6

    # the two gain sets: force matrices, torque gains, clamp of the integral
    def gain_set(g):
        cap = setup.integral_cap * g._cap_per_newton
        return (g.p_force, g.i_force, g.p_torque.tolist(), g.i_torque.tolist(),
                (-cap).tolist(), cap.tolist())
    gains = {False: gain_set(setup.gains_entry), True: gain_set(setup.gains_exit)}
    exit_gains = False
    p_force, i_force, p_torque, i_torque, cap_lo, cap_hi = gains[exit_gains]
    integral = [0.0] * 6
    f_meas_force = np.empty(3)  # the BLAS operands of the force gains
    integral_force = np.empty(3)
    free_f_bar = None  # the reactive wrench of the last force-free tick
    k0, k1, k2, k3, k4, k5 = setup.impedance.stiffness.tolist()
    c0, c1, c2, c3, c4, c5 = setup.impedance.damping.tolist()
    ms0, ms1, ms2, ms3, ms4, ms5 = setup.mass.tolist()

    # FSM: integer phase, the detector's elapsed time; the phases that
    # time alone drives come from setpoint tables
    SCAN, FACE, APPROACH, ENTRY, WAIT, EXIT, RETRACT, DONE, ABORTED = range(9)
    names = [p.name for p in TransferPhase]
    table = _setpoint_table(setup, 0, SCAN, 0.0)
    phases, setpoints, velocities, transitions = table[:4]
    wait_started_at = table.wait_start
    detector = setup.detector
    axis = detector.axis
    timeout_at = detector.timeout - 1e-9
    phase, elapsed, bitten = SCAN, 0.0, False

    px, py, pz = setup.plan.start_pose.position.tolist()
    qw, qx, qy, qz = setup.plan.start_pose.orientation.tolist()
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
                    table = _setpoint_table(setup, i + 1, EXIT, t, setpoints[i])
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
                # quat_from_rotvec (tests/reference.py), then quat_mul onto the pose;
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
            # the checks of Pose and the reference's VirtualRobotState, in order
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


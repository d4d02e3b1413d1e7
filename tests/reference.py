"""The per-tick object pipeline the tick kernel must match bit for bit.

simulate_tick is one 1 kHz tick as a pipeline of Pose, Wrench and state
objects (transfer.step, controller.reactive_term, humansim.contact_force
and bite_force): the loop body trials ran before bitesim.kernel's flat
_tick_kernel. initial_states builds its robot, controller, FSM and world
at t = 0 from the kernel's own TrialSetup, so both start from the same
values. Only the tests run it.
"""

from dataclasses import dataclass, replace

import numpy as np

from bitesim.controller import (TICK_PERIOD, ControllerState, ImpedanceParams, ReactivityGains,
                                SafetyLatch, SensorFault, Wrench, desired_wrench, reactive_term)
from bitesim.geometry import (Pose, pose_error, quat_conj, quat_from_axis_angle, quat_mul,
                              quat_normalize, quat_rotate, quat_to_rotvec)
from bitesim.humansim import (LIP_MARGIN, BiteScript, FoodAttachmentState, MouthModel,
                              bite_force, contact_force)
from bitesim.kernel import TrialSetup
from bitesim.transfer import FsmState, TransferPhase, step

# the phases that run on the exit gains
EXIT_SIDE_PHASES = frozenset({TransferPhase.EXIT, TransferPhase.RETRACT_ARC})


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Exp map: the unit quaternion of rotation vector v (axis * angle)."""
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        # first-order expansion, exact enough at double precision
        q = np.empty(4)
        q[0] = 1.0 - angle * angle / 8.0
        q[1:] = 0.5 * v
        return quat_normalize(q)
    return quat_from_axis_angle(v / angle, angle)


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
                 impedance: ImpedanceParams, gains_entry: ReactivityGains,
                 gains_exit: ReactivityGains, perturb_trace: np.ndarray,
                 disturbance_trace: np.ndarray, lowpass_alpha: float | None = None):
        self.mouth = mouth
        self.bite = bite
        self.attachment = attachment
        self.safety = safety
        self.impedance = impedance
        self.perturb_trace = perturb_trace
        self.disturbance_trace = disturbance_trace
        self.lowpass_alpha = lowpass_alpha
        self.filtered = np.zeros(6)
        # the gain sets of the entry and exit sides (controller.phase_gains)
        self.gains_entry = gains_entry
        self.gains_exit = gains_exit


def simulate_tick(robot: VirtualRobotState, ctrl: ControllerState, fsm: FsmState,
                  world: WorldState, t_idx: int, prev_setpoint: Pose | None = None):
    """One 1 kHz tick; returns (robot', ctrl', fsm', record). The
    reference for bitesim.kernel._tick_kernel, which run_trial uses.

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
        center = world.mouth.center
        mouth_now = replace(world.mouth, center=Pose(center.position + off, center.orientation))

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
            on_fork = on_fork + Wrench(quat_rotate(mouth_now.center.orientation,
                                                   b_local.force))
    d = world.disturbance_trace[min(t_idx, len(world.disturbance_trace) - 1)]
    if d.any():
        on_fork = on_fork + Wrench(d[:3], d[3:])

    # the simulated sensor reports the tool-applied wrench, which must be finite
    f_m = Wrench(-on_fork.force, -on_fork.torque)
    if not f_m.is_finite():
        raise SensorFault("non-finite force measurement")

    abort = world.safety.update(f_m)
    fsm_prev_phase = fsm.phase
    fsm, setpoint, events = step(fsm, f_m, t, dt, abort=abort)

    # phase-dependent gains; integral resets when the exit side begins
    want_exit_gains = fsm.phase in EXIT_SIDE_PHASES
    have_exit_gains = ctrl.gains is world.gains_exit
    if want_exit_gains and not have_exit_gains:
        ctrl = replace(ctrl, gains=world.gains_exit, integral=np.zeros(6))
    elif not want_exit_gains and have_exit_gains:
        ctrl = replace(ctrl, gains=world.gains_entry)

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
        f_meas = Wrench(world.filtered[:3], world.filtered[3:])
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


def initial_states(setup: TrialSetup):
    """simulate_tick's robot, controller, FSM and world at t = 0 of setup."""
    world = WorldState(
        mouth=setup.mouth, bite=setup.bite, attachment=FoodAttachmentState(setup.food),
        safety=SafetyLatch(setup.safety_limit, setup.safety_mode), impedance=setup.impedance,
        gains_entry=setup.gains_entry, gains_exit=setup.gains_exit,
        perturb_trace=setup.head_trace, disturbance_trace=setup.disturbance_trace,
        lowpass_alpha=setup.lowpass_alpha)
    fsm = FsmState(plan=setup.plan, detector=setup.detector,
                   scan_duration=setup.scan_duration, face_duration=setup.face_duration,
                   retract_duration=setup.retract_duration)
    ctrl = ControllerState(gains=setup.gains_entry, integral_cap=setup.integral_cap)
    robot = VirtualRobotState(setup.plan.start_pose, np.zeros(6), setup.mass)
    return robot, ctrl, fsm, world

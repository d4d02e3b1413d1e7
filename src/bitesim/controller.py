"""Impedance controller with a phased force-reactive PI term and the
software safety stop, evaluated at a fixed 1 kHz tick.

The reactive term turns measured tool forces into a wrench correction
that is subtracted from the impedance wrench, so the tool yields to the
user. Entry-side phases run high gains on all force axes; exit-side
phases reduce the gains along the exit direction only, keeping the
orthogonal directions compliant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

TICK_PERIOD = 0.001  # s, fixed control rate

ENTRY_KP = 7.0
ENTRY_KI = 20.0  # Hz
EXIT_KP = 2.0
EXIT_KI = 1.0  # Hz

DEFAULT_SAFETY_LIMIT = 3.0  # N
DEFAULT_INTEGRAL_CAP = 10.0  # N, bound on |k_I * accumulator| per axis


class SensorFault(ValueError):
    """Raised when a force measurement contains non-finite values."""


def _ro(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Wrench:
    """Force (N) and torque (N*m) at the fork tip."""

    force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    torque: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        f = np.asarray(self.force, dtype=float).reshape(3)
        t = np.asarray(self.torque, dtype=float).reshape(3)
        object.__setattr__(self, "force", _ro(f))
        object.__setattr__(self, "torque", _ro(t))

    @classmethod
    def zero(cls) -> "Wrench":
        return cls()

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.force)) and np.all(np.isfinite(self.torque)))

    def __add__(self, other: "Wrench") -> "Wrench":
        return Wrench(self.force + other.force, self.torque + other.torque)


@dataclass(frozen=True)
class ReactivityGains:
    """PI gains on measured tool forces.

    Force gains are 3x3 matrices so an exit direction that is not axis
    aligned can carry reduced gains while the orthogonal complement
    keeps the entry values. For axis-aligned presets the matrices are
    diagonal and ``k_p``/``k_i`` expose the familiar per-axis vectors.
    Torque gains stay per-axis (zero in the shipped presets).
    """

    p_force: np.ndarray
    i_force: np.ndarray
    p_torque: np.ndarray = field(default_factory=lambda: np.zeros(3))
    i_torque: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        pf = np.asarray(self.p_force, dtype=float).reshape(3, 3)
        if_ = np.asarray(self.i_force, dtype=float).reshape(3, 3)
        pt = np.asarray(self.p_torque, dtype=float).reshape(3)
        it = np.asarray(self.i_torque, dtype=float).reshape(3)
        for m in (pf, if_):
            if np.any(np.linalg.eigvalsh(0.5 * (m + m.T)) < -1e-9):
                raise ValueError("force gain matrices must be positive semidefinite")
        if np.any(pt < 0) or np.any(it < 0):
            raise ValueError("torque gains must be >= 0")
        object.__setattr__(self, "p_force", _ro(pf))
        object.__setattr__(self, "i_force", _ro(if_))
        object.__setattr__(self, "p_torque", _ro(pt))
        object.__setattr__(self, "i_torque", _ro(it))
        # accumulator clamp per unit of cap, cached for the control loop
        ki = np.concatenate([np.diag(if_), it])
        inv = np.where(ki > 0, 1.0 / np.where(ki > 0, ki, 1.0), np.inf)
        object.__setattr__(self, "_cap_per_newton", _ro(inv))

    @classmethod
    def from_vectors(cls, k_p, k_i) -> "ReactivityGains":
        """Axis-aligned gains from 6-vectors (force triplet, torque triplet)."""
        k_p = np.asarray(k_p, dtype=float).reshape(6)
        k_i = np.asarray(k_i, dtype=float).reshape(6)
        if np.any(k_p < 0) or np.any(k_i < 0):
            raise ValueError("gains must be >= 0")
        return cls(np.diag(k_p[:3]), np.diag(k_i[:3]), k_p[3:], k_i[3:])

    @property
    def k_p(self) -> np.ndarray:
        return np.concatenate([np.diag(self.p_force), self.p_torque])

    @property
    def k_i(self) -> np.ndarray:
        return np.concatenate([np.diag(self.i_force), self.i_torque])


@dataclass(frozen=True)
class ImpedanceParams:
    """Per-axis task-space stiffness and damping."""

    stiffness: np.ndarray
    damping: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.stiffness, dtype=float).reshape(6)
        d = np.asarray(self.damping, dtype=float).reshape(6)
        if np.any(k < 0) or np.any(d < 0):
            raise ValueError("stiffness and damping must be >= 0")
        if np.any((k > 0) & (d <= 0)):
            raise ValueError("every stiff axis needs damping > 0")
        object.__setattr__(self, "stiffness", _ro(k))
        object.__setattr__(self, "damping", _ro(d))

    @classmethod
    def default(cls) -> "ImpedanceParams":
        # 200 N/m translation, 10 N*m/rad rotation; damping critical for
        # the default virtual mass (2 kg / 0.02 kg*m^2)
        k = np.array([200.0, 200.0, 200.0, 10.0, 10.0, 10.0])
        m = np.array([2.0, 2.0, 2.0, 0.02, 0.02, 0.02])
        return cls(k, 2.0 * np.sqrt(k * m))


@dataclass(frozen=True)
class ControllerState:
    """Reactive-term state carried tick to tick (pure transitions)."""

    gains: ReactivityGains
    integral: np.ndarray = field(default_factory=lambda: np.zeros(6))
    integral_cap: float = DEFAULT_INTEGRAL_CAP

    def __post_init__(self):
        if not (np.isfinite(self.integral_cap) and self.integral_cap > 0):
            raise ValueError(f"integral cap must be finite and > 0, got {self.integral_cap!r}")
        acc = np.asarray(self.integral, dtype=float).reshape(6)
        object.__setattr__(self, "integral", _ro(acc))


def desired_wrench(params: ImpedanceParams, pose_error, velocity_error) -> Wrench:
    """Elementwise spring-damper wrench from task-space errors."""
    pe = np.asarray(pose_error, dtype=float).reshape(6)
    ve = np.asarray(velocity_error, dtype=float).reshape(6)
    if not (np.all(np.isfinite(pe)) and np.all(np.isfinite(ve))):
        raise ValueError("pose/velocity errors must be finite")
    w = params.stiffness * pe + params.damping * ve
    return Wrench(w[:3], w[3:])


def reactive_term(state: ControllerState, f_m: Wrench, dt: float) -> tuple[Wrench, ControllerState]:
    """PI correction from the measured tool wrench; returns updated state.

    The integral accumulator is clamped per axis so the integral
    contribution never exceeds ``integral_cap`` (anti-windup).
    """
    if abs(dt - TICK_PERIOD) > 1e-12:
        raise ValueError(f"dt {dt} does not match the tick period {TICK_PERIOD}")
    if not f_m.is_finite():
        raise SensorFault("non-finite force measurement")

    acc = state.integral + f_m.as_vector() * dt
    # anti-windup against the diagonal of the integral gain
    cap = state.integral_cap * state.gains._cap_per_newton
    acc = np.clip(acc, -cap, cap)

    g = state.gains
    out_f = g.p_force @ f_m.force + g.i_force @ acc[:3]
    out_t = g.p_torque * f_m.torque + g.i_torque * acc[3:]
    return Wrench(out_f, out_t), replace(state, integral=acc)


def phase_gains(phase, exit_axis,
                entry: ReactivityGains | None = None,
                exit: ReactivityGains | None = None) -> ReactivityGains:
    """Gains for a transfer phase.

    Entry-side phases use the entry preset on all force axes. Exit-side
    phases reduce the gains along ``exit_axis`` to the exit preset while
    the orthogonal force subspace keeps the entry values; the split is
    realized with projector matrices so any unit exit axis works.
    Torque gains are zero in both shipped presets.
    """
    from .transfer import TransferPhase  # avoid import cycle at module load

    axis = np.asarray(exit_axis, dtype=float).reshape(3)
    if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
        raise ValueError("exit axis must be unit length")
    if entry is None:
        entry = ReactivityGains.from_vectors(
            [ENTRY_KP] * 3 + [0.0] * 3, [ENTRY_KI] * 3 + [0.0] * 3)
    if exit is None:
        exit = ReactivityGains.from_vectors(
            [EXIT_KP] * 3 + [0.0] * 3, [EXIT_KI] * 3 + [0.0] * 3)

    if TransferPhase(phase) not in (TransferPhase.EXIT, TransferPhase.RETRACT_ARC):
        return entry

    outer = np.outer(axis, axis)
    ortho = np.eye(3) - outer
    p_exit = float(axis @ exit.p_force @ axis)
    i_exit = float(axis @ exit.i_force @ axis)
    return ReactivityGains(
        p_force=ortho @ entry.p_force @ ortho + p_exit * outer,
        i_force=ortho @ entry.i_force @ ortho + i_exit * outer,
        p_torque=np.zeros(3),
        i_torque=np.zeros(3),
    )


def safety_check(f_m: Wrench, limit: float = DEFAULT_SAFETY_LIMIT,
                 mode: str = "component") -> bool:
    """True when the measured force demands an abort.

    ``component`` trips when any force component magnitude strictly
    exceeds the limit; ``norm`` compares the force vector norm instead.
    Latching is the caller's job (see SafetyLatch).
    """
    if limit <= 0:
        raise ValueError("safety limit must be > 0")
    if mode == "component":
        return bool(np.any(np.abs(f_m.force) > limit))
    if mode == "norm":
        return bool(np.linalg.norm(f_m.force) > limit)
    raise ValueError(f"unknown safety mode {mode!r}")


class SafetyLatch:
    """Latching wrapper around safety_check: once tripped, stays tripped."""

    def __init__(self, limit: float = DEFAULT_SAFETY_LIMIT, mode: str = "component"):
        self.limit = float(limit)
        self.mode = mode
        self.tripped = False

    def update(self, f_m: Wrench) -> bool:
        if not self.tripped and safety_check(f_m, self.limit, self.mode):
            self.tripped = True
        return self.tripped

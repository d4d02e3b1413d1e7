"""Rigid-body poses and quaternion utilities.

Quaternions are (w, x, y, z) unit arrays. World frame is right-handed
with z up. All positions in meters, angles in radians.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize zero or non-finite quaternion")
    return q / n


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b, both (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _cross3(a, b) -> np.ndarray:
    # np.cross has high per-call overhead for single 3-vectors
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by unit quaternion q."""
    w = q[0]
    u = q[1:]
    # v' = v + 2w (u x v) + 2 u x (u x v)
    uv = _cross3(u, v)
    return np.asarray(v, dtype=float) + 2.0 * (w * uv + _cross3(u, uv))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    q = np.empty(4)
    q[0] = np.cos(half)
    q[1:] = (np.sin(half) / n) * axis
    return q


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        # first-order expansion, exact enough at double precision
        q = np.empty(4)
        q[0] = 1.0 - angle * angle / 8.0
        q[1:] = 0.5 * v
        return quat_normalize(q)
    return quat_from_axis_angle(v / angle, angle)


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Log map: rotation vector (axis * angle) of a unit quaternion."""
    if q[0] < 0.0:
        q = -q
    s = np.linalg.norm(q[1:])
    if s < 1e-12:
        return 2.0 * q[1:]  # small-angle limit
    angle = 2.0 * np.arctan2(s, q[0])
    return (angle / s) * q[1:]


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is non-negative (double-cover pick)."""
    return -q if q[0] < 0.0 else np.asarray(q, dtype=float)


def quat_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Chordal distance after canonical sign alignment."""
    a = quat_canonical(a)
    b = quat_canonical(b)
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def quat_angle_between(a: np.ndarray, b: np.ndarray) -> float:
    """Rotation angle taking orientation a to b (radians, >= 0)."""
    return float(np.linalg.norm(quat_to_rotvec(quat_mul(b, quat_conj(a)))))


def slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Spherical interpolation along the shorter great-circle arc."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > 0.9995:
        return quat_normalize(a + t * (b - a))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    s = np.sin(theta)
    return (np.sin((1.0 - t) * theta) / s) * a + (np.sin(t * theta) / s) * b


@dataclass(frozen=True)
class Pose:
    """Rigid transform: position (m) plus unit quaternion orientation."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0, 0]))

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).reshape(3).copy()
        q = quat_normalize(np.asarray(self.orientation, dtype=float).reshape(4))
        if not np.all(np.isfinite(p)):
            raise ValueError("pose position must be finite")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation", q)

    def transform_point(self, p: np.ndarray) -> np.ndarray:
        return self.position + quat_rotate(self.orientation, np.asarray(p, dtype=float))

    def rotate(self, v: np.ndarray) -> np.ndarray:
        return quat_rotate(self.orientation, v)

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    @property
    def x_axis(self) -> np.ndarray:
        return quat_rotate(self.orientation, np.array([1.0, 0.0, 0.0]))

    @property
    def y_axis(self) -> np.ndarray:
        return quat_rotate(self.orientation, np.array([0.0, 1.0, 0.0]))

    @property
    def z_axis(self) -> np.ndarray:
        return quat_rotate(self.orientation, np.array([0.0, 0.0, 1.0]))

    def translated(self, delta: np.ndarray) -> "Pose":
        return Pose(self.position + np.asarray(delta, dtype=float), self.orientation)


def pose_error(current: Pose, target: Pose) -> np.ndarray:
    """6-vector [position error; orientation error] in the world frame.

    Orientation error is the rotation vector taking current to target.
    """
    e = np.empty(6)
    e[:3] = target.position - current.position
    e[3:] = quat_to_rotvec(quat_mul(target.orientation, quat_conj(current.orientation)))
    return e


def interpolate_pose(a: Pose, b: Pose, t: float) -> Pose:
    """Linear position / slerp orientation blend, t in [0, 1]."""
    return Pose(
        (1.0 - t) * a.position + t * b.position,
        slerp(a.orientation, b.orientation, t),
    )

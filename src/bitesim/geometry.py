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


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, both (n, k)
    with contiguous rows: a stacked matmul, which makes for each row the
    BLAS dot call that np.dot makes on two lone vectors, and so rounds
    as it does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def quat_normalize_rows(q: np.ndarray) -> np.ndarray:
    """quat_normalize on each row of q (n, 4), to the bit."""
    q = np.ascontiguousarray(q, dtype=float)
    n = np.sqrt(row_dots(q, q))
    if np.any(n == 0.0) or not np.all(np.isfinite(n)):
        raise ValueError("cannot normalize zero or non-finite quaternion")
    return q / n[:, None]


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b, both (w, x, y, z) or stacks (4, n) taken
    column by column, each column with the bits of a lone product."""
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
    """Rotate vector v, or each column of a stack (3, n) to the bit, by
    unit quaternion q."""
    w = q[0]
    u = q[1:]
    # v' = v + 2w (u x v) + 2 u x (u x v)
    uv = _cross3(u, v)
    return np.asarray(v, dtype=float) + 2.0 * (w * uv + _cross3(u, uv))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of q, or (3, 3, n) of a stack (4, n), to the bit."""
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


def quat_to_rotvec_rows(q: np.ndarray) -> np.ndarray:
    """quat_to_rotvec on each row of q (n, 4), to the bit; q is left as it is."""
    q = np.asarray(q, dtype=float)
    flip = q[:, 0] < 0.0
    if np.count_nonzero(flip):
        q = np.where(flip[:, None], -q, q)
    v = q[:, 1:]
    s = np.sqrt(row_dots(v, v))
    angle = 2.0 * np.arctan2(s, q[:, 0])
    small = s < 1e-12
    if not np.count_nonzero(small):
        return (angle / s)[:, None] * v
    # small-angle limit
    return np.where(small[:, None], 2.0 * v, (angle / np.where(small, 1.0, s))[:, None] * v)


# Shepperd's branches, one row per branch: 0 for a positive trace, else
# 1 + the index of the largest diagonal entry. A row names, for each
# quaternion slot, the column of the term table built in
# mat_to_quat_rows that fills it; column 6 holds s / 4.
_SHEPPERD_SLOTS = np.array([[6, 0, 1, 2], [0, 6, 3, 4], [1, 3, 6, 5], [2, 4, 5, 6]])
# signs of (r00, r11, r22) under the square root, by largest diagonal entry
_SHEPPERD_SIGNS = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
# the six off-diagonal terms as flat indices into a row-major 3x3:
# r21 - r12, r02 - r20, r10 - r01, r01 + r10, r02 + r20, r12 + r21
_TERM_A = np.array([7, 2, 3, 1, 2, 5])
_TERM_B = np.array([5, 6, 1, 3, 6, 7])
_TERM_SIGN = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])


def mat_to_quat_rows(r: np.ndarray) -> np.ndarray:
    """Rotation matrices (n, 3, 3) to (w, x, y, z) rows (n, 4), Shepperd's
    branch selection per row, rounding exactly as the branch-by-branch
    scalar form does: x - y is taken as x + (-1 * y), which rounds the
    same, and sums run left to right."""
    b = r.shape[0]
    rf = r.reshape(b, 9)
    d = rf[:, ::4]
    t = d[:, 0] + d[:, 1] + d[:, 2]
    positive = t > 0.0
    all_positive = np.count_nonzero(positive) == b
    arg = t + 1.0
    if not all_positive:
        i = d.argmax(axis=1)
        sd = _SHEPPERD_SIGNS[i] * d
        np.copyto(arg, 1.0 + sd[:, 0] + sd[:, 1] + sd[:, 2], where=~positive)
    s = np.sqrt(arg)
    s *= 2.0
    terms = np.empty((b, 7))
    np.divide(rf[:, _TERM_A] + _TERM_SIGN * rf[:, _TERM_B], s[:, None], out=terms[:, :6])
    np.multiply(s, 0.25, out=terms[:, 6])
    if all_positive:
        return terms[:, _SHEPPERD_SLOTS[0]]
    i += 1
    i *= ~positive
    return terms.take(_SHEPPERD_SLOTS[i] + 7 * np.arange(b)[:, None])


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


def slerp_rows(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """slerp(a[i], b[i], t[i]) for each row of a and b (n, 4), to the bit."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    t = np.asarray(t, dtype=float)
    dot = row_dots(a, b)
    flip = dot < 0.0
    b = np.where(flip[:, None], -b, b)
    dot = np.where(flip, -dot, dot)
    near = dot > 0.9995
    out = np.empty_like(a)
    out[near] = quat_normalize_rows(a[near] + t[near, None] * (b[near] - a[near]))
    far = ~near
    theta = np.arccos(np.clip(dot[far], -1.0, 1.0))
    s = np.sin(theta)
    tf = t[far]
    out[far] = ((np.sin((1.0 - tf) * theta) / s)[:, None] * a[far]
                + (np.sin(tf * theta) / s)[:, None] * b[far])
    return out


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

    @classmethod
    def unchecked(cls, position: np.ndarray, orientation: np.ndarray) -> "Pose":
        """A Pose holding these arrays as they are, without the checks and
        the renormalisation, which can move a last bit: for read-only,
        finite arrays whose orientation is already unit."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "position", position)
        object.__setattr__(pose, "orientation", orientation)
        return pose

    def rotate(self, v: np.ndarray) -> np.ndarray:
        return quat_rotate(self.orientation, v)

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

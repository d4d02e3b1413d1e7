"""Serial-chain kinematics: forward kinematics, Jacobians, damped
least-squares inverse kinematics, and joint-displacement metrics.

Chains are revolute-only and loaded from JSON files; two parameter sets
ship with the package (7-DOF arm, and the same arm with a 2-DOF
scoop/twirl wrist ahead of the fork).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .geometry import Pose, mat_to_quat_rows, quat_to_matrix, quat_to_rotvec_rows, row_dots

__all__ = [
    "JointSpec",
    "ChainModel",
    "IkParams",
    "IkResult",
    "IkBatchResult",
    "forward_kinematics",
    "fk_frames",
    "fk_frames_batch",
    "jacobian",
    "ik_damped_least_squares",
    "ik_damped_least_squares_batch",
    "joint_displacement",
    "link_points",
    "bundled_chain",
    "BUNDLED_CHAINS",
]


@dataclass(frozen=True)
class JointSpec:
    """One revolute joint: fixed parent offset, local rotation axis, limits."""

    offset: Pose
    axis: np.ndarray
    limits: tuple[float, float]

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float).reshape(3)
        n = np.linalg.norm(a)
        if n < 1e-12:
            raise ValueError("joint axis must be nonzero")
        a = a / n
        a.setflags(write=False)
        object.__setattr__(self, "axis", a)
        lo, hi = self.limits
        if lo > hi:
            raise ValueError(f"joint limits reversed: [{lo}, {hi}]")
        object.__setattr__(self, "limits", (float(lo), float(hi)))


class ChainModel:
    """Immutable serial chain with a tool-tip offset after the last joint."""

    def __init__(self, name: str, joints: list[JointSpec], tool_tip: Pose,
                 has_wrist: bool = False, home: np.ndarray | None = None):
        self.name = name
        self.joints = tuple(joints)
        self.tool_tip = tool_tip
        self.has_wrist = bool(has_wrist)
        if home is None:
            home = np.zeros(len(joints))
        self.home = np.asarray(home, dtype=float).reshape(len(joints)).copy()
        self.home.setflags(write=False)

        self.lower = np.array([j.limits[0] for j in self.joints])
        self.upper = np.array([j.limits[1] for j in self.joints])
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

        # cached per-joint arrays for the FK hot loop, shaped for the
        # (joint, sample) layout of fk_frames_batch
        self._r_off = [quat_to_matrix(j.offset.orientation) for j in self.joints]
        self._t_off = np.array([j.offset.position for j in self.joints]).reshape(-1, 3, 1)
        self._axes = np.array([j.axis for j in self.joints]).reshape(-1, 3, 1)
        skews = np.array([[[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]]
                          for a in self._axes[:, :, 0]]).reshape(-1, 1, 3, 3)
        self._skew = skews
        self._skew2 = skews @ skews
        self._r_tool = quat_to_matrix(tool_tip.orientation)
        self._t_tool = np.array(tool_tip.position)

    @property
    def dof(self) -> int:
        return len(self.joints)

    def check_config(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.shape[0] != self.dof:
            raise ValueError(f"config length {q.shape[0]} != chain DOF {self.dof}")
        return q

    def __repr__(self):
        return f"ChainModel({self.name!r}, dof={self.dof}, has_wrist={self.has_wrist})"


_EYE3 = np.eye(3)
_EYE6 = np.eye(6)
# cross product a x b = a[_ROLL1] * b[_ROLL2] - a[_ROLL2] * b[_ROLL1]
_ROLL1 = np.array([1, 2, 0])
_ROLL2 = np.array([2, 0, 1])

def fk_frames_batch(chain: ChainModel, q) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """Forward kinematics of a stack of configurations q (B, N).

    Returns world joint origins (B,N,3), world joint axes (B,N,3), tip
    positions (B,3) and tip rotations (B,3,3). Each row carries the bits
    of a lone configuration: a product with a fixed link transform runs
    as one 2-D BLAS call over all B frames stacked row-wise, and the
    per-row joint rotations as a stacked matmul; both round like the
    single 3x3 product.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != chain.dof:
        raise ValueError(f"configs of shape {q.shape} do not match chain DOF {chain.dof}")
    b, n = q.shape
    # Rodrigues about each local joint axis, all joints at once, (N,B,3,3)
    qt = q.T[..., None, None]
    rot = _EYE3 + np.sin(qt) * chain._skew + (1.0 - np.cos(qt)) * chain._skew2
    # pre[i]: world frame of joint i's parent link; post[i]: joint i's
    # frame before its own rotation; pre[n]: the last link. Each holds B
    # frames as a (3B, 3) stack of rows.
    pre = np.empty((n + 1, 3 * b, 3))
    post = np.empty((n, 3 * b, 3))
    pre3 = pre.reshape(n + 1, b, 3, 3)
    post3 = post.reshape(n, b, 3, 3)
    pre3[0] = _EYE3
    for i in range(n):
        np.dot(pre[i], chain._r_off[i], out=post[i])
        np.matmul(post3[i], rot[i], out=pre3[i + 1])
    axes = (post @ chain._axes).reshape(n, b, 3)
    # origins accumulate from the world origin, one offset at a time
    steps = np.zeros((n + 1, 3 * b, 1))
    np.matmul(pre[:n], chain._t_off, out=steps[1:])
    origins = steps.cumsum(axis=0).reshape(n + 1, b, 3)
    tip_p = origins[n] + pre[n].dot(chain._t_tool).reshape(b, 3)
    tip_r = pre[n].dot(chain._r_tool).reshape(b, 3, 3)
    return origins[1:].swapaxes(0, 1), axes.swapaxes(0, 1), tip_p, tip_r


def fk_frames(chain: ChainModel, q) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """World joint origins (N,3), world joint axes (N,3), tip position, tip rotation."""
    origins, axes, tip_p, tip_r = fk_frames_batch(chain, chain.check_config(q)[None])
    return origins[0], axes[0], tip_p[0], tip_r[0]


def forward_kinematics(chain: ChainModel, q) -> Pose:
    """Fork-tip pose in the world frame (pure function of chain and q)."""
    _, _, tip_p, tip_r = fk_frames(chain, q)
    return Pose(tip_p, mat_to_quat_rows(tip_r[None])[0])


def link_points(chain: ChainModel, q) -> np.ndarray:
    """Joint origins plus the tool tip, (N+1, 3), or (B, N+1, 3) for a
    stack of configurations (B, N); used by the comfort cost."""
    q = np.asarray(q, dtype=float)
    stack = q if q.ndim == 2 else chain.check_config(q)[None]
    origins, _, tip_p, _ = fk_frames_batch(chain, stack)
    pts = np.concatenate([origins, tip_p[:, None]], axis=1)
    return pts if q.ndim == 2 else pts[0]


def _jacobian(origins: np.ndarray, axes: np.ndarray, tip_p: np.ndarray) -> np.ndarray:
    """Geometric Jacobian (..., 6, N) from fk frames with any leading axes."""
    lever = tip_p[..., None, :] - origins
    jac = np.empty(axes.shape[:-2] + (6, axes.shape[-2]))
    # axes x lever, with the products and difference np.cross takes
    jac[..., :3, :] = (axes[..., _ROLL1] * lever[..., _ROLL2]
                       - axes[..., _ROLL2] * lever[..., _ROLL1]).swapaxes(-1, -2)
    jac[..., 3:, :] = axes.swapaxes(-1, -2)
    return jac


def jacobian(chain: ChainModel, q) -> np.ndarray:
    """Geometric Jacobian at the fork tip, 6xN (linear rows first)."""
    origins, axes, tip_p, _ = fk_frames(chain, q)
    return _jacobian(origins, axes, tip_p)


# per-iterate error clip, keeps far targets from causing wild steps
_MAX_LIN_STEP = 0.2
_MAX_ANG_STEP = 0.5
# the seed of the one re-seed stream every solve replays
_RESTART_SEED = 0x5EED


@dataclass(frozen=True)
class IkParams:
    damping: float = 0.02
    pos_tol: float = 1e-3
    rot_tol: float = 1e-2
    max_iter: int = 200
    # iterations without relative improvement before a seeded re-seed
    stall_window: int = 10

    def __post_init__(self):
        if self.damping <= 0:
            raise ValueError("damping must be > 0")
        if self.pos_tol <= 0 or self.rot_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass(frozen=True)
class IkResult:
    q: np.ndarray
    converged: bool
    iterations: int
    residual: np.ndarray
    restarts: int = 0


@dataclass(frozen=True)
class IkBatchResult:
    """IK results for a stack of targets, one row each; [i] gives row i."""

    q: np.ndarray  # (B, N)
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) int
    residual: np.ndarray  # (B, 6)
    restarts: np.ndarray  # (B,) int

    def __len__(self) -> int:
        return self.q.shape[0]

    def __getitem__(self, i: int) -> IkResult:
        return IkResult(self.q[i], bool(self.converged[i]), int(self.iterations[i]),
                        self.residual[i], int(self.restarts[i]))


@functools.lru_cache(maxsize=16)
def _restart_draws(dof: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `count` re-seed draws of the restart stream.

    Restart k (1-based) takes the uniforms in row k-1 and, on odd k, the
    base-yaw jitter yaw[k-1] (NaN on even k). Every solve replays the
    same stream, so one table serves every row of every batch.
    """
    rng = np.random.default_rng(_RESTART_SEED)
    uniforms = np.empty((count, dof))
    yaw = np.full(count, np.nan)
    for k in range(count):
        uniforms[k] = rng.random(dof)
        if k % 2 == 0:
            yaw[k] = rng.normal(0.0, 0.3)
    uniforms.setflags(write=False)
    yaw.setflags(write=False)
    return uniforms, yaw


def _dls_step(jac: np.ndarray, step: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """Damped least-squares joint steps J^T (J J^T + damping)^-1 e, per row."""
    jt = jac.swapaxes(-1, -2)
    return (jt @ np.linalg.solve(jac @ jt + damping, step[..., None]))[..., 0]


def _tip_error(target_p: np.ndarray, target_r: np.ndarray, tip_p: np.ndarray,
               tip_r: np.ndarray) -> np.ndarray:
    """Position error and rotation vector to the targets, (B, 6)."""
    e = np.empty((tip_p.shape[0], 6))
    np.subtract(target_p, tip_p, out=e[:, :3])
    e[:, 3:] = quat_to_rotvec_rows(mat_to_quat_rows(target_r @ tip_r.swapaxes(1, 2)))
    return e


def ik_damped_least_squares_batch(chain: ChainModel, targets, seeds,
                                  params: IkParams = IkParams()) -> IkBatchResult:
    """ik_damped_least_squares for B target poses, in lock step.

    ``targets`` holds one pose per row, (B, 7) as [x, y, z, qw, qx, qy,
    qz] with a unit quaternion. ``seeds`` is one configuration (N,)
    shared by every target, or one per target (B, N). All rows advance
    through the same iterations as one array program: per iteration one
    stacked FK, Jacobian and linear solve, with per-row masks for
    convergence, stall restarts and pinned joints. A row leaves the stack
    when it converges; a row that restarts takes the step with the rest
    and is re-seeded over it. Each row gets exactly the bits a lone solve
    of it gets.
    """
    n = chain.dof
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != 7:
        raise ValueError(f"targets of shape {targets.shape} are not rows of 7")
    b = targets.shape[0]
    target_p = np.ascontiguousarray(targets[:, :3])
    if b == 1:  # a lone solve: the (4,) form gives the same bits at a fifth of the cost
        target_r = quat_to_matrix(targets[0, 3:])[None]
    else:
        target_r = np.ascontiguousarray(quat_to_matrix(targets[:, 3:].T).transpose(2, 0, 1))
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim not in (1, 2) or seeds.shape[-1] != n:
        raise ValueError(f"seeds of shape {seeds.shape} do not match chain DOF {n}")
    lower, upper = chain.lower, chain.upper
    q = np.empty((b, n))
    np.minimum(np.maximum(seeds, lower), upper, out=q)

    out_q = np.empty((b, n))
    out_err = np.empty((b, 6))
    converged = np.zeros(b, dtype=bool)
    iterations = np.full(b, params.max_iter)
    restarts = np.zeros(b, dtype=int)

    damping = params.damping ** 2 * _EYE6
    near_lower = lower + 1e-9
    near_upper = upper - 1e-9

    # state of the rows still iterating; idx maps them to output rows
    idx = np.arange(b)
    azimuth = np.arctan2(target_p[:, 1], target_p[:, 0])
    best_q = q.copy()
    best_err = np.full((b, 6), np.nan)
    best_score = np.full(b, np.inf)
    attempt_best = np.full(b, np.inf)
    since_improve = np.zeros(b, dtype=int)
    n_restarts = np.zeros(b, dtype=int)

    for it in range(params.max_iter + 1 if b else 0):  # an empty stack has no work
        origins, axes, tip_p, tip_r = fk_frames_batch(chain, q)
        err = _tip_error(target_p, target_r, tip_p, tip_r)
        e3 = err.reshape(-1, 3)
        pos_n, rot_n = np.sqrt(row_dots(e3, e3)).reshape(-1, 2).T
        done = (pos_n <= params.pos_tol) & (rot_n <= params.rot_tol)
        n_done = np.count_nonzero(done)
        if n_done:
            sel = slice(None) if n_done == idx.size else done
            rows = idx[sel]
            out_q[rows] = q[sel]
            out_err[rows] = err[sel]
            converged[rows] = True
            iterations[rows] = it
            restarts[rows] = n_restarts[sel]
            if n_done == idx.size:
                break
            keep = ~done
            (idx, q, target_p, target_r, azimuth, best_q, best_err, best_score,
             attempt_best, since_improve, n_restarts, origins, axes, tip_p, err,
             pos_n, rot_n) = (
                a[keep] for a in (idx, q, target_p, target_r, azimuth, best_q, best_err,
                                  best_score, attempt_best, since_improve, n_restarts,
                                  origins, axes, tip_p, err, pos_n, rot_n))
        score = pos_n + 0.1 * rot_n
        better = score < best_score
        np.copyto(best_score, score, where=better)
        np.copyto(best_q, q, where=better[:, None])
        np.copyto(best_err, err, where=better[:, None])
        improved = score < attempt_best * 0.99 - 1e-12
        np.copyto(attempt_best, score, where=improved)
        since_improve += 1
        np.copyto(since_improve, 0, where=improved)
        if it == params.max_iter:
            # out of budget: the rest fail with their best iterate
            out_q[idx] = best_q
            out_err[idx] = best_err
            restarts[idx] = n_restarts
            break

        far = pos_n > _MAX_LIN_STEP
        if np.count_nonzero(far):
            err[far, :3] *= (_MAX_LIN_STEP / pos_n[far])[:, None]
        far = rot_n > _MAX_ANG_STEP
        if np.count_nonzero(far):
            err[far, 3:] *= (_MAX_ANG_STEP / rot_n[far])[:, None]

        jac = _jacobian(origins, axes, tip_p)
        dq = _dls_step(jac, err, damping)
        # joints pinned at a limit that still push outward leave the step
        pinned = ((q <= near_lower) & (dq < 0)) | ((q >= near_upper) & (dq > 0))
        if np.count_nonzero(pinned):
            held = pinned.any(axis=1)
            jac_held = np.where(pinned[held][:, None, :], 0.0, jac[held])
            dq[held] = _dls_step(jac_held, err[held], damping)
        q = np.minimum(np.maximum(q + dq, lower), upper)

        restart = since_improve >= params.stall_window
        if np.count_nonzero(restart):
            # re-seed over the step, alternating a base yaw aimed at the
            # target azimuth with a plain uniform draw. The table is built
            # on a solve's first restart, which few solves reach; restarts
            # come max(stall_window, 1) or more apart
            uniforms, yaw = _restart_draws(n, params.max_iter // max(params.stall_window, 1) + 1)
            n_restarts += restart
            k = n_restarts[restart] - 1
            q_new = lower + uniforms[k] * (upper - lower)
            odd = k % 2 == 0
            q_new[odd, 0] = np.minimum(np.maximum(azimuth[restart][odd] + yaw[k[odd]],
                                                  lower[0]), upper[0])
            q[restart] = q_new
            attempt_best[restart] = np.inf
            since_improve[restart] = 0

    return IkBatchResult(out_q, converged, iterations, out_err, restarts)


def ik_damped_least_squares(chain: ChainModel, target: Pose, seed,
                            params: IkParams = IkParams()) -> IkResult:
    """Iterative damped least-squares IK with per-iterate limit clamping.

    Two stabilizers keep hard targets convergent inside the iteration
    budget: joints pinned at a limit that still push outward are masked
    out of the step, and a stalled attempt (no relative progress over
    ``stall_window`` iterates) re-seeds from an internally seeded draw,
    alternating between aiming the base yaw at the target azimuth and a
    uniform configuration. The iterate sequence is a pure function of
    the inputs. On failure the best iterate seen is returned with
    converged=False; ``restarts`` counts the re-seeds either way.

    This is the B = 1 case of ik_damped_least_squares_batch, which runs
    a stack of targets in lock step and gives each the bits of its lone
    solve. Every solve draws its re-seeds from one shared stream,
    ``default_rng(0x5EED)``: restart k takes ``random(N)``
    and then, on odd k, ``normal(0, 0.3)`` for the base yaw. Restart k
    thus draws the same numbers in every solve, and one cached table of
    them serves a whole batch.
    """
    row = np.concatenate([target.position, target.orientation])[None]
    return ik_damped_least_squares_batch(chain, row, chain.check_config(seed), params)[0]


def joint_displacement(q_a, q_b):
    """Per-joint |delta| (rad), plus the arithmetic mean.

    Either config may be a stack (B, N); the mean is then one per row.
    """
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    if q_a.shape[-1] != q_b.shape[-1]:
        raise ValueError(f"config lengths differ: {q_a.shape[-1]} vs {q_b.shape[-1]}")
    delta = np.abs(q_a - q_b)
    mean = delta.mean(axis=-1)
    return delta, float(mean) if mean.ndim == 0 else mean


def _pose_from_flat(vals) -> Pose:
    vals = list(vals)
    if len(vals) != 7:
        raise ValueError("pose record must be [x, y, z, qw, qx, qy, qz]")
    return Pose(np.array(vals[:3]), np.array(vals[3:]))


def chain_from_dict(spec: dict) -> ChainModel:
    """The chain a chain definition describes; one that is not an object
    whose 'joints' is a list of objects is a ValueError."""
    if not (isinstance(spec, dict) and isinstance(spec.get("joints"), list)
            and all(isinstance(j, dict) for j in spec["joints"])):
        raise ValueError("a chain must be an object whose 'joints' is a list of objects")
    joints = [
        JointSpec(
            offset=_pose_from_flat(j["fixed_offset"]),
            axis=np.asarray(j["axis"], dtype=float),
            limits=(float(j["limits"][0]), float(j["limits"][1])),
        )
        for j in spec["joints"]
    ]
    return ChainModel(
        name=spec.get("name", "chain"),
        joints=joints,
        tool_tip=_pose_from_flat(spec["tool_tip"]),
        has_wrist=bool(spec.get("has_wrist", False)),
        home=spec.get("home"),
    )


# the packaged chains: the tool on the stock mount, and behind the 2-DOF
# scoop/twirl wrist
BUNDLED_CHAINS = ("panda_7dof", "panda_wrist_9dof")


def bundled_chain(name: str) -> ChainModel:
    """Load one of the packaged chain definitions (BUNDLED_CHAINS) by name."""
    ref = resources.files("bitesim.data").joinpath(f"{name}.json")
    with ref.open("r", encoding="utf-8") as f:
        return chain_from_dict(json.load(f))

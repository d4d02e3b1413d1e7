"""Wrist-vs-fixed-mount study: sample fork poses near the mouth, solve
IK on both chains from a shared home, and compare arm-joint displacement
and a personal-space comfort cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import Pose, quat_mul, quat_normalize_rows, quat_rotate
from .kinematics import (ChainModel, IkBatchResult, IkParams,
                         ik_damped_least_squares_batch, joint_displacement, link_points)

ARM_JOINT_COUNT = 7


class StudyInvalidError(RuntimeError):
    """Convergence too poor for the statistics to mean anything."""


class JsonReport:
    """to_dict and to_json of a report dataclass, read from its fields:
    every field but those declared repr=False (the bulk per-tick or
    per-sample records), with arrays and tuples as lists."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.repr:
                v = getattr(self, f.name)
                out[f.name] = (v.tolist() if isinstance(v, np.ndarray)
                               else list(v) if isinstance(v, tuple) else v)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class PoseDistribution:
    """Uniform box of fork poses around a center pose.

    Translations are offsets along the center's axes; rotations are
    sampled about the center's x, y, z axes (applied in that order).
    """

    center: Pose
    translation_bounds: np.ndarray  # (3, 2) m
    rotation_bounds: np.ndarray  # (3, 2) rad
    count: int = 10000
    seed: int = 0

    def __post_init__(self):
        tb = np.asarray(self.translation_bounds, dtype=float).reshape(3, 2).copy()
        rb = np.asarray(self.rotation_bounds, dtype=float).reshape(3, 2).copy()
        if not (np.all(np.isfinite(tb)) and np.all(np.isfinite(rb))):
            raise ValueError("bounds must be finite")
        if np.any(tb[:, 0] > tb[:, 1]) or np.any(rb[:, 0] > rb[:, 1]):
            raise ValueError("bounds must satisfy lo <= hi")
        if self.count <= 0:
            raise ValueError("count must be > 0")
        tb.setflags(write=False)
        rb.setflags(write=False)
        object.__setattr__(self, "translation_bounds", tb)
        object.__setattr__(self, "rotation_bounds", rb)

    @classmethod
    def around(cls, center: Pose, translation: float = 0.10,
               rotation: float = np.deg2rad(30.0), count: int = 10000,
               seed: int = 0) -> "PoseDistribution":
        t = np.array([[-translation, translation]] * 3)
        r = np.array([[-rotation, rotation]] * 3)
        return cls(center, t, r, count, seed)


def _sample_rows(dist: PoseDistribution) -> np.ndarray:
    """The samples as read-only rows [x, y, z, qw, qx, qy, qz], (count, 7),
    from one numpy pass in which quat_mul and quat_rotate work column by
    column: each row has the bits a lone Pose of its sample would have."""
    rng = np.random.default_rng(dist.seed)
    tb = dist.translation_bounds
    rb = dist.rotation_bounds
    offsets = rng.uniform(tb[:, 0], tb[:, 1], size=(dist.count, 3))
    angles = rng.uniform(rb[:, 0], rb[:, 1], size=(dist.count, 3))
    q = dist.center.orientation
    for axis, half in zip(np.eye(3), 0.5 * angles.T):
        # quat_from_axis_angle(axis, angle) for every angle at once
        q = quat_mul(q, np.vstack([np.cos(half), np.sin(half) * axis[:, None]]))
    rows = np.column_stack([
        dist.center.position + quat_rotate(dist.center.orientation, offsets.T).T,
        quat_normalize_rows(q.T)])
    rows.setflags(write=False)
    return rows


def sample_fork_poses(dist: PoseDistribution) -> list[Pose]:
    """Deterministic uniform pose samples, exactly dist.count of them:
    read-only views of the rows run_wrist_study solves."""
    return [Pose.unchecked(row[:3], row[3:]) for row in _sample_rows(dist)]


@dataclass(frozen=True)
class ComfortParams:
    """Personal-space cone: apex at the head, axis out of the mouth."""

    head_position: np.ndarray
    axis: np.ndarray
    half_angle: float = np.deg2rad(30.0)
    length: float = 0.8
    weight: float = 1.0

    def __post_init__(self):
        hp = np.asarray(self.head_position, dtype=float).reshape(3).copy()
        ax = np.asarray(self.axis, dtype=float).reshape(3).copy()
        n = np.linalg.norm(ax)
        if n < 1e-12:
            raise ValueError("cone axis must be nonzero")
        ax /= n
        if not 0.0 < self.half_angle < np.pi / 2:
            raise ValueError("half angle must lie in (0, pi/2)")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        hp.setflags(write=False)
        ax.setflags(write=False)
        object.__setattr__(self, "head_position", hp)
        object.__setattr__(self, "axis", ax)


def comfort_cost(chain: ChainModel, q, params: ComfortParams):
    """Sum of cone-penetration depths over the arm link frames and tip.

    A point at axial distance s inside the cone contributes
    weight * max(0, s*tan(half_angle) - radial_distance); anything
    behind the apex or past the cone length contributes nothing. Only
    the arm joint origins (first 7) plus the tool tip are scored, so a
    chain with extra tool-side joints is compared on the same point set
    as the bare mount. One configuration (N,) gives a float; a stack
    (B, N) gives one cost per row, each with the bits of its lone call.
    """
    q = np.asarray(q, dtype=float)
    pts = link_points(chain, q)
    if pts.shape[-2] > ARM_JOINT_COUNT + 1:
        pts = np.concatenate([pts[..., :ARM_JOINT_COUNT, :], pts[..., -1:, :]], axis=-2)
    rel = pts - params.head_position
    s = rel @ params.axis
    radial = np.linalg.norm(rel - s[..., None] * params.axis, axis=-1)
    cone_r = s * np.tan(params.half_angle)
    inside = (s >= 0.0) & (s <= params.length)
    depth = np.where(inside, np.maximum(0.0, cone_r - radial), 0.0)
    cost = params.weight * depth.sum(axis=-1)
    return float(cost) if q.ndim == 1 else cost


@dataclass(frozen=True)
class StudyReport(JsonReport):
    """Aggregate wrist-study results plus per-sample records."""

    sample_count: int
    used_count: int
    seed: int
    convergence_rate_with: float
    convergence_rate_without: float
    per_joint_mean_with: np.ndarray  # (7,)
    per_joint_mean_without: np.ndarray
    mean_displacement_with: float
    mean_displacement_without: float
    mean_comfort_with: float
    mean_comfort_without: float
    max_comfort_with: float
    max_comfort_without: float
    p_displacement: float
    p_comfort: float
    samples: np.ndarray = field(repr=False, compare=False)
    # sorted tip position residuals (mm) of the poses each chain failed on
    failure_residuals_mm_with: np.ndarray = field(default_factory=lambda: np.zeros(0))
    failure_residuals_mm_without: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def write_samples_csv(self, path):
        """Per-sample records for external plotting."""
        header = ("idx,px,py,pz,qw,qx,qy,qz,converged_with,converged_without,"
                  "disp_with,disp_without,cost_with,cost_without")
        with open(path, "w", encoding="utf-8") as f:
            f.write(header + "\n")
            for row in self.samples:
                f.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _signed_rank_null(n: int) -> np.ndarray:
    """P(r_plus = r) for r = 0 .. n(n+1)/2 over n untied ranks, by the
    halving recursion of scipy.stats, which gives the same floats."""
    c = np.ones(1)
    for k in range(1, n + 1):
        prev = c * 0.5
        c = np.zeros(k * (k + 1) // 2 + 1)
        c[:len(prev)] = prev
        c[-len(prev):] += prev
    return c


# cephes ndtr.c, the normal cdf behind scipy.special.ndtr: erf on
# |x| <= 1 is x T(x^2) / U(x^2); erfc is exp(-x^2) P(x) / Q(x) below 8
# and exp(-x^2) R(x) / S(x) from 8. Coefficients from the highest power;
# the monic denominators carry their leading 1.0.
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843E2  # log of the largest double


def _polevl(x: float, coefs: tuple) -> float:
    """The polynomial in x with these coefficients, by Horner's rule in
    cephes' order (polevl, and p1evl for a leading 1.0)."""
    y = coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _erf(x: float) -> float:  # |x| < 1
    z = x * x
    return x * _polevl(z, _NDTR_T) / _polevl(z, _NDTR_U)


def _erfc(x: float) -> float:  # x >= 1/sqrt 2
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:  # exp(z) underflows
        return 0.0
    p, q = (_NDTR_P, _NDTR_Q) if x < 8.0 else (_NDTR_R, _NDTR_S)
    return math.exp(z) * _polevl(x, p) / _polevl(x, q)


def _ndtr(a: float) -> float:
    """The standard normal cdf at a, with the bits of scipy.special.ndtr:
    cephes ndtr.c operation for operation, in Python floats, whose
    math.exp is the libm exp that cephes calls."""
    if math.isnan(a):  # cephes returns its own NaN, whatever the payload
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _one_sided_less(diff: np.ndarray) -> float:
    """Wilcoxon signed-rank p for 'differences are negative', zeros
    dropped: the bits of scipy.stats.wilcoxon(d, alternative="less"),
    which takes the exact null without ties up to 50 values, every sign
    pattern with ties up to 13, and else the normal approximation
    without continuity correction, whose tail is _ndtr, the normal cdf
    scipy.stats calls, in Python floats."""
    d = diff[diff != 0.0]
    n = d.size
    if n == 0:
        return 1.0
    # average ranks of |d|; sums of them are half-integers, exact in any order
    a = np.abs(d)
    order = np.argsort(a, kind="stable")
    s = a[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # where each run of equal |d| starts
    counts = np.diff(first, append=n)
    ranks = np.empty(n)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    r_plus = float(np.sum((d > 0).astype(float) * ranks))
    if len(counts) == n and n <= 50:  # no ties
        c = _signed_rank_null(n)
        k = math.ceil(r_plus)
        return float(c[:k + 1].sum() if k <= n * (n + 1) / 4 else 1 - c[k + 1:].sum())
    if n <= 13:
        null = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) @ ranks
        below = np.count_nonzero(null <= r_plus + abs(100 * np.finfo(float).eps * r_plus))
        return below / (1 << n)
    m = float(n)
    # 24 times the variance of r_plus, less the ties' share
    var24 = m * (m + 1.0) * (2.0 * m + 1.0) - float(np.sum(counts.astype(float) ** 3 - counts)) / 2
    return _ndtr((r_plus - m * (m + 1.0) * 0.25) / math.sqrt(var24 / 24))


def _arm_displacement(result: IkBatchResult, home: np.ndarray):
    """Per-joint |q - home| over the arm joints and its mean, per row;
    zero for rows that did not converge."""
    delta, mean = joint_displacement(result.q[:, :ARM_JOINT_COUNT], home[:ARM_JOINT_COUNT])
    ok = result.converged
    return np.where(ok[:, None], delta, 0.0), np.where(ok, mean, 0.0)


def _failure_residuals_mm(result: IkBatchResult) -> np.ndarray:
    """Sorted tip position residuals (mm) of the rows that failed."""
    failed = result.residual[~result.converged, :3]
    return np.sort(1000.0 * np.linalg.norm(failed, axis=1))


def run_wrist_study(chain_with: ChainModel, chain_without: ChainModel,
                    dist: PoseDistribution, ik_params: IkParams,
                    comfort: ComfortParams, home) -> StudyReport:
    """Solve every sampled pose on both chains and compare them.

    Both solves start from ``home``, the wrist joints from chain_with's
    own home; displacement is measured from home over the 7 arm joints. A pose is excluded when either
    chain fails to converge, so the statistics always compare the same
    sample set. Raises StudyInvalidError below 50% convergence.
    """
    if chain_without.dof < ARM_JOINT_COUNT or chain_with.dof < ARM_JOINT_COUNT:
        raise ValueError("both chains need the 7 arm joints")
    home_without = np.asarray(home, dtype=float)
    if home_without.shape[0] != chain_without.dof:
        raise ValueError("home must match the without-wrist chain DOF")
    home_with = np.concatenate([
        home_without, chain_with.home[chain_without.dof:]])

    rows = _sample_rows(dist)
    n = len(rows)
    rw = ik_damped_least_squares_batch(chain_with, rows, home_with, ik_params)
    rwo = ik_damped_least_squares_batch(chain_without, rows, home_without, ik_params)
    conv_w, conv_wo = rw.converged, rwo.converged
    per_joint_w, disp_w = _arm_displacement(rw, home_with)
    per_joint_wo, disp_wo = _arm_displacement(rwo, home_without)
    cost_w = np.where(conv_w, comfort_cost(chain_with, rw.q, comfort), 0.0)
    cost_wo = np.where(conv_wo, comfort_cost(chain_without, rwo.q, comfort), 0.0)

    rate_w = float(conv_w.mean())
    rate_wo = float(conv_wo.mean())
    if rate_w < 0.5 or rate_wo < 0.5:
        raise StudyInvalidError(
            f"convergence too low: with={rate_w:.1%}, without={rate_wo:.1%}")

    used = conv_w & conv_wo
    m = int(used.sum())
    if m == 0:
        raise StudyInvalidError("no pose converged on both chains")

    samples = np.column_stack([
        np.arange(n),
        rows,
        conv_w.astype(float), conv_wo.astype(float),
        disp_w, disp_wo, cost_w, cost_wo,
    ])

    return StudyReport(
        sample_count=n,
        used_count=m,
        seed=dist.seed,
        convergence_rate_with=rate_w,
        convergence_rate_without=rate_wo,
        per_joint_mean_with=per_joint_w[used].mean(axis=0),
        per_joint_mean_without=per_joint_wo[used].mean(axis=0),
        mean_displacement_with=float(disp_w[used].mean()),
        mean_displacement_without=float(disp_wo[used].mean()),
        mean_comfort_with=float(cost_w[used].mean()),
        mean_comfort_without=float(cost_wo[used].mean()),
        max_comfort_with=float(cost_w[used].max()),
        max_comfort_without=float(cost_wo[used].max()),
        p_displacement=_one_sided_less(disp_w[used] - disp_wo[used]),
        p_comfort=_one_sided_less(cost_w[used] - cost_wo[used]),
        samples=samples,
        failure_residuals_mm_with=_failure_residuals_mm(rw),
        failure_residuals_mm_without=_failure_residuals_mm(rwo),
    )

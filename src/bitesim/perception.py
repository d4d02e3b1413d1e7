"""Target selection: synthetic depth scans of the food on the fork,
bounding-box offsets in the mouth frame, and the pre-mouth target pose.
The mouth pose itself is given; a trial models its detection error as
an injected offset (``mouth_error_mm``).

Clouds live in the mouth frame anchored at the fork tip, units mm:
z out of the mouth, y up toward the eyes, x along the lips to the
user's left. A failed or empty scan is always a hard error; feeding at
an unadjusted pose is never the silent default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose
from .humansim import FoodPreset, FoodGeometry
from .transfer import transfer_orientation, DEFAULT_FORK_PITCH

DEFAULT_RESOLUTION_MM = 0.1
OFFSET_SANITY_MM = 50.0


class EmptyCloudError(ValueError):
    """Scan produced no points; offsets must not silently default."""


@dataclass(frozen=True)
class PointCloud:
    """Points (N, 3) in mm, mouth frame."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3).copy()
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("cloud points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class FoodOffsets:
    """Face-plane target corrections, mm: dx along lips, dy vertical."""

    dx: float
    dy: float

    def __post_init__(self):
        if not (np.isfinite(self.dx) and np.isfinite(self.dy)):
            raise ValueError("offsets must be finite")
        if abs(self.dx) > OFFSET_SANITY_MM or abs(self.dy) > OFFSET_SANITY_MM:
            raise ValueError(
                f"offsets ({self.dx}, {self.dy}) mm exceed the {OFFSET_SANITY_MM} mm "
                "sanity bound; the scan looks degenerate")


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box, mm."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min, dtype=float).reshape(3).copy()
        hi = np.asarray(self.max, dtype=float).reshape(3).copy()
        if np.any(lo > hi):
            raise ValueError("bbox min must be <= max componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "min", lo)
        object.__setattr__(self, "max", hi)


def _grid(lo: float, hi: float, res: float) -> np.ndarray:
    n = max(1, int(round((hi - lo) / res)))
    return np.linspace(lo, hi, n + 1)


# the samplers emit a surface in blocks of whole grid rows of about this
# many points, so that a scan's bounding box never holds the whole cloud
_BLOCK_POINTS = 1 << 16


def _row_blocks(n_rows: int, row_len: int):
    """Slices of the rows of an n_rows x row_len grid, in order, each of at
    most _BLOCK_POINTS points, or of one row where a row is longer."""
    step = max(1, _BLOCK_POINTS // row_len)
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def _sample_box(g: FoodGeometry, res: float):
    cx, cy, cz = g.center
    sx, sy, sz = g.size / 2.0
    xs = _grid(cx - sx, cx + sx, res)
    ys = _grid(cy - sy, cy + sy, res)
    zs = _grid(cz - sz, cz + sz, res)
    # per face: the fixed column and its value, the column and values of
    # the grid rows, and the column and values along a row
    faces = ([(0, x, 1, ys, 2, zs) for x in (cx - sx, cx + sx)]
             + [(1, y, 0, xs, 2, zs) for y in (cy - sy, cy + sy)]
             + [(2, z, 0, xs, 1, ys) for z in (cz - sz, cz + sz)])
    for c_fix, value, c_row, rows, c_col, cols in faces:
        for s in _row_blocks(len(rows), len(cols)):
            pts = np.empty((len(rows[s]), len(cols), 3))
            pts[:, :, c_fix] = value
            pts[:, :, c_row] = rows[s, None]
            pts[:, :, c_col] = cols
            yield pts.reshape(-1, 3)


def _sample_sphere(g: FoodGeometry, res: float):
    r = float(g.radius)
    n_lat = max(2, int(round(np.pi * r / res)))
    n_lon = max(3, int(round(2.0 * np.pi * r / res)))
    phi = np.linspace(0.0, np.pi, n_lat + 1)
    theta = np.linspace(0.0, 2.0 * np.pi, n_lon, endpoint=False)
    # latitude rows of longitude points; trig on each 1-D axis once
    ring = r * np.sin(phi)[:, None]
    height = (r * np.cos(phi))[:, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    for s in _row_blocks(len(phi), len(theta)):
        pts = np.empty((len(phi[s]), len(theta), 3))
        np.multiply(ring[s], cos_t, out=pts[:, :, 0])
        np.multiply(ring[s], sin_t, out=pts[:, :, 1])
        pts[:, :, 2] = height[s]
        pts = pts.reshape(-1, 3)
        pts += g.center
        yield pts


def _sample_cylinder(g: FoodGeometry, res: float):
    r = float(g.radius)
    half = float(g.length) / 2.0
    n_ang = max(3, int(round(2.0 * np.pi * r / res)))
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    axial = _grid(-half, half, res)
    radii = _grid(0.0, r, res)
    # the columns of the axial coordinate and of the cos and sin terms
    c_ax, c_cos, c_sin = {"x": (0, 1, 2), "y": (1, 0, 2), "z": (2, 1, 0)}[g.axis]
    side_cos, side_sin = (r * cos_t)[:, None], (r * sin_t)[:, None]
    # the side: a line of axial points per angle
    for s in _row_blocks(len(theta), len(axial)):
        pts = np.empty((len(theta[s]), len(axial), 3))
        pts[:, :, c_ax] = axial
        pts[:, :, c_cos] = side_cos[s]
        pts[:, :, c_sin] = side_sin[s]
        pts = pts.reshape(-1, 3)
        pts += g.center
        yield pts
    # the end caps as radial rings
    for a in (-half, half):
        for s in _row_blocks(len(radii), len(theta)):
            pts = np.empty((len(radii[s]), len(theta), 3))
            pts[:, :, c_ax] = a
            np.multiply(radii[s, None], cos_t, out=pts[:, :, c_cos])
            np.multiply(radii[s, None], sin_t, out=pts[:, :, c_sin])
            pts = pts.reshape(-1, 3)
            pts += g.center
            yield pts


_SAMPLERS = {"box": _sample_box, "sphere": _sample_sphere, "cylinder": _sample_cylinder}


def _scan_blocks(food: FoodPreset, resolution: float, seed: int, noise_mm: float):
    """The points of the scan cloud as an iterator of (k, 3) blocks, in
    cloud order. The noise of each block is drawn from the one seeded
    stream as the block is made, which gives the draws of one call over
    the whole cloud."""
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    geometry = [g for g in food.geometry if g.kind in _SAMPLERS]
    if not geometry:
        raise EmptyCloudError(f"food {food.name!r} has no geometry to scan")
    blocks = (pts for g in geometry for pts in _SAMPLERS[g.kind](g, resolution))
    if noise_mm > 0.0:
        rng = np.random.default_rng(seed)
        blocks = (pts + rng.normal(scale=noise_mm, size=pts.shape) for pts in blocks)
    return blocks


def synth_depth_scan(food: FoodPreset, fork_pose_on_scan: Pose,
                     resolution: float = DEFAULT_RESOLUTION_MM,
                     seed: int = 0, noise_mm: float = 0.0) -> PointCloud:
    """Synthesize the scan cloud of the food on the fork.

    The sampler walks each primitive's surface on a grid at the scan
    resolution, standing in for the physical camera sweep; points are
    reported in the mouth frame anchored at the fork tip, so the fork's
    pose is not read. Optional seeded Gaussian jitter models sensor noise
    (off by default, so the scan is deterministic either way).
    """
    return PointCloud(np.concatenate(list(_scan_blocks(food, resolution, seed, noise_mm))))


def scan_bounding_box(food: FoodPreset, resolution: float = DEFAULT_RESOLUTION_MM,
                      seed: int = 0, noise_mm: float = 0.0) -> Aabb:
    """food_bounding_box(synth_depth_scan(...)) for the same arguments,
    reduced over the scan's blocks as they are made, so that the whole
    cloud is never held. Minima and maxima are exact: the box is the same
    but for the sign of a bound that is zero. A point that is not finite
    raises ValueError, as it does in the cloud."""
    lo, hi = [], []
    for pts in _scan_blocks(food, resolution, seed, noise_mm):
        cols = pts.T
        lo.append([col.min() for col in cols])
        hi.append([col.max() for col in cols])
    lo, hi = np.min(lo, axis=0), np.max(hi, axis=0)
    # a NaN carries through min and max, an infinity reaches a bound
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("cloud points must be finite")
    return Aabb(lo, hi)


def food_bounding_box(cloud: PointCloud) -> Aabb:
    """Componentwise min/max over the cloud; empty clouds are an error."""
    if len(cloud) == 0:
        raise EmptyCloudError("cannot bound an empty cloud")
    # one column at a time: a reduction along a strided column is faster
    # than one across the rows
    cols = cloud.points.T
    return Aabb([col.min() for col in cols], [col.max() for col in cols])


def compute_offsets(bbox: Aabb) -> FoodOffsets:
    """Face-plane offsets from the food bounding box.

    dx recenters the food (not the fork) on the mouth. dy drops the
    target by the food's extent above the fork-tip plane so the top
    clears the upper teeth.
    """
    dx = -(bbox.min[0] + bbox.max[0]) / 2.0
    dy = -max(0.0, float(bbox.max[1]))
    return FoodOffsets(float(dx), float(dy))


def target_pose(mouth_center: Pose, offsets: FoodOffsets,
                fork_pitch: float = DEFAULT_FORK_PITCH) -> Pose:
    """Pre-mouth target: mouth center shifted by the food offsets. The
    entry segment later takes the fork from here along -z of the mouth
    frame."""
    p = (mouth_center.position
         + (offsets.dx / 1000.0) * mouth_center.x_axis
         + (offsets.dy / 1000.0) * mouth_center.y_axis)
    return Pose(p, transfer_orientation(mouth_center, fork_pitch))


def load_cloud(path) -> PointCloud:
    """The points of a cloud CSV: a '#' header line, an optional
    x_mm,y_mm,z_mm line, then one x,y,z row per point. A row that does
    not hold three numbers is a ValueError naming its line."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        if not f.readline().strip().startswith("#"):
            raise ValueError(f"cloud {str(path)!r} lacks its '#' header line")
        for n, line in enumerate(f, start=2):
            line = line.strip()
            if not line or n == 2 and line.startswith("x_mm"):
                continue
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError:
                row = []
            if len(row) != 3:
                raise ValueError(f"cloud {str(path)!r} line {n} must hold three numbers "
                                 f"x,y,z, got {line!r}")
            rows.append(row)
    return PointCloud(np.array(rows, dtype=float).reshape(-1, 3))

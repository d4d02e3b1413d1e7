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
    """Points (N, 3) in mm, mouth frame, with the scan grid resolution."""

    points: np.ndarray
    resolution: float = DEFAULT_RESOLUTION_MM
    frame: str = "mouth"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3).copy()
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("cloud points must be finite")
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")
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


def _sample_box(g: FoodGeometry, res: float) -> np.ndarray:
    cx, cy, cz = g.center
    sx, sy, sz = g.size / 2.0
    xs = _grid(cx - sx, cx + sx, res)
    ys = _grid(cy - sy, cy + sy, res)
    zs = _grid(cz - sz, cz + sz, res)
    faces = []
    for x in (cx - sx, cx + sx):
        yy, zz = np.meshgrid(ys, zs, indexing="ij")
        faces.append(np.column_stack([np.full(yy.size, x), yy.ravel(), zz.ravel()]))
    for y in (cy - sy, cy + sy):
        xx, zz = np.meshgrid(xs, zs, indexing="ij")
        faces.append(np.column_stack([xx.ravel(), np.full(xx.size, y), zz.ravel()]))
    for z in (cz - sz, cz + sz):
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        faces.append(np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)]))
    return np.vstack(faces)


def _sample_sphere(g: FoodGeometry, res: float) -> np.ndarray:
    r = float(g.radius)
    n_lat = max(2, int(round(np.pi * r / res)))
    n_lon = max(3, int(round(2.0 * np.pi * r / res)))
    phi = np.linspace(0.0, np.pi, n_lat + 1)
    theta = np.linspace(0.0, 2.0 * np.pi, n_lon, endpoint=False)
    pp, tt = np.meshgrid(phi, theta, indexing="ij")
    pts = np.column_stack([
        r * np.sin(pp.ravel()) * np.cos(tt.ravel()),
        r * np.sin(pp.ravel()) * np.sin(tt.ravel()),
        r * np.cos(pp.ravel()),
    ])
    return pts + g.center


def _sample_cylinder(g: FoodGeometry, res: float) -> np.ndarray:
    r = float(g.radius)
    half = float(g.length) / 2.0
    n_ang = max(3, int(round(2.0 * np.pi * r / res)))
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    axial = _grid(-half, half, res)
    tt, aa = np.meshgrid(theta, axial, indexing="ij")
    side = np.column_stack([aa.ravel(), r * np.cos(tt.ravel()), r * np.sin(tt.ravel())])
    # end caps as radial rings
    caps = []
    radii = _grid(0.0, r, res)
    for a in (-half, half):
        for rr in radii:
            ring = np.column_stack([
                np.full_like(theta, a), rr * np.cos(theta), rr * np.sin(theta)])
            caps.append(ring)
    pts = np.vstack([side] + caps)
    order = {"x": (0, 1, 2), "y": (1, 0, 2), "z": (2, 1, 0)}[g.axis]
    return pts[:, order] + g.center


def synth_depth_scan(food: FoodPreset, fork_pose_on_scan: Pose,
                     resolution: float = DEFAULT_RESOLUTION_MM,
                     seed: int = 0, noise_mm: float = 0.0) -> PointCloud:
    """Synthesize the scan cloud of the food on the fork.

    The sampler walks each primitive's surface on a grid at the scan
    resolution, standing in for the physical camera sweep; points are
    reported in the mouth frame anchored at the fork tip. Optional
    seeded Gaussian jitter models sensor noise (off by default, so the
    scan is deterministic either way).
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    parts = []
    for g in food.geometry:
        if g.kind == "box":
            parts.append(_sample_box(g, resolution))
        elif g.kind == "sphere":
            parts.append(_sample_sphere(g, resolution))
        elif g.kind == "cylinder":
            parts.append(_sample_cylinder(g, resolution))
    if not parts:
        raise EmptyCloudError(f"food {food.name!r} has no geometry to scan")
    pts = np.vstack(parts)
    if pts.shape[0] == 0:
        raise EmptyCloudError(f"scan of {food.name!r} produced no points")
    if noise_mm > 0.0:
        rng = np.random.default_rng(seed)
        pts = pts + rng.normal(scale=noise_mm, size=pts.shape)
    return PointCloud(pts, resolution)


def food_bounding_box(cloud: PointCloud) -> Aabb:
    """Componentwise min/max over the cloud; empty clouds are an error."""
    if len(cloud) == 0:
        raise EmptyCloudError("cannot bound an empty cloud")
    return Aabb(cloud.points.min(axis=0), cloud.points.max(axis=0))


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
                entry_depth: float = 0.018,
                fork_pitch: float = DEFAULT_FORK_PITCH) -> Pose:
    """Pre-mouth target: mouth center shifted by the food offsets.

    The entry depth is validated here but carried by the entry segment,
    which later takes the fork that far along -z of the mouth frame.
    """
    if entry_depth <= 0:
        raise ValueError("entry depth must be > 0")
    p = (mouth_center.position
         + (offsets.dx / 1000.0) * mouth_center.x_axis
         + (offsets.dy / 1000.0) * mouth_center.y_axis)
    return Pose(p, transfer_orientation(mouth_center, fork_pitch))


def save_cloud(cloud: PointCloud, path):
    """CSV of x,y,z in mm with a one-line frame/resolution header."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# frame={cloud.frame} resolution_mm={cloud.resolution}\n")
        f.write("x_mm,y_mm,z_mm\n")
        for p in cloud.points:
            f.write(f"{p[0]:.6f},{p[1]:.6f},{p[2]:.6f}\n")


def load_cloud(path) -> PointCloud:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith("#"):
            raise ValueError("cloud file missing the frame/resolution header")
        fields = dict(item.split("=", 1) for item in header.lstrip("# ").split())
        frame = fields.get("frame", "mouth")
        resolution = float(fields.get("resolution_mm", DEFAULT_RESOLUTION_MM))
        second = f.readline().strip()
        rows = []
        if second and not second.startswith("x_mm"):
            rows.append([float(x) for x in second.split(",")])
        for line in f:
            line = line.strip()
            if line:
                rows.append([float(x) for x in line.split(",")])
    pts = np.array(rows, dtype=float).reshape(-1, 3)
    return PointCloud(pts, resolution, frame)


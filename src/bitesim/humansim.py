"""Simulated human: mouth contact forces, scripted bites, food
attachment, and head perturbations.

The mouth is a minimal penalty-contact model: two horizontal boundary
planes (upper/lower teeth) separated by the aperture plus lateral
walls, active only inside the mouth cavity region. Contact applies
force only, matching the zero torque gains of the controller.

Sign convention: contact_force and bite_force return the wrench exerted
ON the fork. The harness's simulated sensor negates this into the
tool-applied reading the controller consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cache
from importlib import resources

import numpy as np

from .geometry import Pose, quat_to_matrix
from .controller import Wrench

SHAPE_CLASSES = ("round", "cube", "cylinder", "irregular")
SIZE_CLASSES = ("small", "medium", "large")
DEFORMABILITY_CLASSES = ("fragile", "robust", "rigid")

MAX_PERTURBATION_AMPLITUDE = 0.020  # m

# the mouth contact region along the mouth-frame z axis
CAVITY_DEPTH = 0.050  # m inside the lips
LIP_MARGIN = 0.005  # m outside the lips still in contact range


@dataclass(frozen=True)
class FoodGeometry:
    """One primitive of a food item, dimensions in mm, fork-tip frame."""

    kind: str  # box | cylinder | sphere
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    size: np.ndarray | None = None  # box edge lengths (mm)
    radius: float | None = None  # sphere/cylinder (mm)
    length: float | None = None  # cylinder (mm)
    axis: str = "x"  # cylinder axis

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3).copy()
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if self.kind == "box":
            s = np.asarray(self.size, dtype=float).reshape(3).copy()
            if np.any(s <= 0):
                raise ValueError("box dimensions must be > 0")
            s.setflags(write=False)
            object.__setattr__(self, "size", s)
        elif self.kind == "sphere":
            if self.radius is None or self.radius <= 0:
                raise ValueError("sphere needs radius > 0")
        elif self.kind == "cylinder":
            if self.radius is None or self.radius <= 0 or self.length is None or self.length <= 0:
                raise ValueError("cylinder needs radius and length > 0")
            if self.axis not in ("x", "y", "z"):
                raise ValueError("cylinder axis must be x, y, or z")
        else:
            raise ValueError(f"unknown primitive {self.kind!r}")


@dataclass(frozen=True)
class FoodPreset:
    """Named food item with taxonomy classes and attachment thresholds."""

    name: str
    geometry: tuple[FoodGeometry, ...]
    shape_class: str
    size_class: str
    deformability_class: str
    detachment_force: float  # N of shear to pull food off the tines
    bite_release_force: float  # N of bite needed to take the food

    def __post_init__(self):
        if self.shape_class not in SHAPE_CLASSES:
            raise ValueError(f"shape class {self.shape_class!r} not in {SHAPE_CLASSES}")
        if self.size_class not in SIZE_CLASSES:
            raise ValueError(f"size class {self.size_class!r} not in {SIZE_CLASSES}")
        if self.deformability_class not in DEFORMABILITY_CLASSES:
            raise ValueError(
                f"deformability {self.deformability_class!r} not in {DEFORMABILITY_CLASSES}")
        if self.detachment_force < 0 or self.bite_release_force < 0:
            raise ValueError("attachment forces must be >= 0")
        object.__setattr__(self, "geometry", tuple(self.geometry))
        if not self.geometry:
            raise ValueError("food needs at least one primitive")


def _geometry_from_dict(d: dict) -> FoodGeometry:
    return FoodGeometry(
        kind=d["kind"],
        center=np.asarray(d.get("center", [0.0, 0.0, 0.0]), dtype=float),
        size=np.asarray(d["size"], dtype=float) if "size" in d else None,
        radius=d.get("radius"),
        length=d.get("length"),
        axis=d.get("axis", "x"),
    )


def preset_from_dict(d: dict) -> FoodPreset:
    return FoodPreset(
        name=d["name"],
        geometry=tuple(_geometry_from_dict(g) for g in d["geometry"]),
        shape_class=d["shape_class"],
        size_class=d["size_class"],
        deformability_class=d["deformability_class"],
        detachment_force=float(d["detachment_force"]),
        bite_release_force=float(d["bite_release_force"]),
    )


@cache
def _bundled_presets() -> dict[str, FoodPreset]:
    with resources.files("bitesim.data").joinpath("foods.json").open("r", encoding="utf-8") as f:
        raw = json.load(f)
    return {d["name"]: preset_from_dict(d) for d in raw["presets"]}


def load_food_presets() -> dict[str, FoodPreset]:
    """The bundled food presets, parsed once per process. Each call
    returns a new dict of the same immutable presets."""
    return dict(_bundled_presets())


@dataclass(frozen=True)
class MouthModel:
    """Penalty-contact mouth: teeth planes, lateral walls, cavity gate."""

    center: Pose
    aperture: float = 0.030  # m between upper and lower boundary planes
    stiffness: float = 1000.0  # N/m
    damping: float = 10.0  # N*s/m
    lateral_halfwidth: float = 0.025  # m

    def __post_init__(self):
        if self.aperture <= 0:
            raise ValueError("aperture must be > 0")
        if self.stiffness < 0 or self.damping < 0:
            raise ValueError("contact stiffness/damping must be >= 0")

    def with_center(self, center: Pose) -> "MouthModel":
        return replace(self, center=center)


def contact_force(fork_tip: Pose, fork_velocity, mouth: MouthModel) -> Wrench:
    """Penalty contact wrench ON the fork tip, world frame, zero torque.

    Each boundary plane penetrated by depth d at penetration rate v
    contributes max(0, stiffness*d + damping*v) along its inward normal.
    Force is continuous in d at d = 0 and never adhesive.
    """
    v = np.asarray(fork_velocity, dtype=float).reshape(-1)[:3]
    rot = quat_to_matrix(mouth.center.orientation)
    x_hat = rot[:, 0]
    y_hat = rot[:, 1]
    z_hat = rot[:, 2]
    r = fork_tip.position - mouth.center.position
    x_m = float(r @ x_hat)
    y_m = float(r @ y_hat)
    z_m = float(r @ z_hat)

    # contact only applies inside the mouth cavity region
    if z_m > LIP_MARGIN or z_m < -CAVITY_DEPTH:
        return Wrench.zero()

    half = mouth.aperture / 2.0
    k = mouth.stiffness
    c = mouth.damping
    v_x = float(v @ x_hat)
    v_y = float(v @ y_hat)
    force = np.zeros(3)

    if y_m < -half:  # lower teeth, pushes the fork up
        depth = -half - y_m
        mag = max(0.0, k * depth + c * (-v_y))
        force += mag * y_hat
    elif y_m > half:  # upper teeth, pushes the fork down
        depth = y_m - half
        mag = max(0.0, k * depth + c * v_y)
        force -= mag * y_hat

    if x_m > mouth.lateral_halfwidth:
        depth = x_m - mouth.lateral_halfwidth
        mag = max(0.0, k * depth + c * v_x)
        force -= mag * x_hat
    elif x_m < -mouth.lateral_halfwidth:
        depth = -mouth.lateral_halfwidth - x_m
        mag = max(0.0, k * depth + c * (-v_x))
        force += mag * x_hat

    return Wrench(force, np.zeros(3))


@dataclass(frozen=True)
class BiteScript:
    """Scripted bite profile along mouth-frame -y (jaw closing)."""

    t_bite: float = 0.5  # s after the wait phase begins
    peak_force: float = 1.0  # N
    ramp: float = 0.2  # s
    refuse: bool = False

    def __post_init__(self):
        if self.peak_force < 0:
            raise ValueError("peak force must be >= 0")
        if self.ramp < 0:
            raise ValueError("ramp must be >= 0")


def bite_force(script: BiteScript, t_in_wait: float) -> Wrench:
    """Bite wrench ON the fork in the mouth frame at wait time t.

    Zero before the scripted bite, linear ramp to the peak, held at the
    peak afterwards. A refusing script never produces force.
    """
    if t_in_wait < 0:
        raise ValueError("t_in_wait must be >= 0")
    if script.refuse or t_in_wait < script.t_bite:
        return Wrench.zero()
    if script.ramp > 0:
        frac = min(1.0, (t_in_wait - script.t_bite) / script.ramp)
    else:
        frac = 1.0
    return Wrench(np.array([0.0, -frac * script.peak_force, 0.0]), np.zeros(3))


class FoodAttachmentState:
    """Latching attachment: once the food comes off it stays off."""

    def __init__(self, food: FoodPreset):
        self.food = food
        self.detached = False
        self.detach_time: float | None = None
        self.taken_by_bite = False

    def update(self, applied_shear: float, t: float, bite_engaged: bool = False) -> bool:
        threshold = (self.food.bite_release_force if bite_engaged
                     else self.food.detachment_force)
        if not self.detached and applied_shear > threshold:
            self.detached = True
            self.detach_time = t
            self.taken_by_bite = bite_engaged
        return self.detached


# parameters and defaults of the head-motion kinds (amplitudes in m)
HEAD_MOTION_PARAMS = {
    "none": {},
    "sinusoid": {"amplitude": 0.005, "period": 2.0, "direction": [1.0, 0.0, 0.0]},
    "random-walk": {"sigma": 0.002, "amplitude": 0.010},  # sigma in m / sqrt(s)
}


def signal_trace(kind: str, n_ticks: int, dt: float, seed: int, amplitude: float,
                 period: float = 1.0, direction=(1.0, 0.0, 0.0),
                 sigma: float = 0.0) -> np.ndarray:
    """A 3-vector signal (n_ticks, 3) on the tick grid.

    ``sinusoid`` swings ``amplitude`` along ``direction`` with ``period``;
    ``random-walk`` integrates white noise of ``sigma`` per sqrt(s) from
    zero, clipped per axis to +-``amplitude``.
    """
    if kind == "sinusoid":
        d = np.asarray(direction, dtype=float)
        d = d / np.linalg.norm(d)
        t = np.arange(n_ticks) * dt
        return np.outer(amplitude * np.sin(2.0 * np.pi * t / period), d)
    if kind == "random-walk":
        rng = np.random.default_rng(seed)
        steps = rng.standard_normal((n_ticks, 3)) * sigma * np.sqrt(dt)
        steps[0] = 0.0
        return np.clip(np.cumsum(steps, axis=0), -amplitude, amplitude)
    raise ValueError(f"unknown signal kind {kind!r}")


def perturbation_trace(kind: str, params: dict, n_ticks: int, dt: float,
                       seed: int = 0) -> np.ndarray:
    """Displacement trace (n_ticks, 3) sampled on the tick grid."""
    if kind not in HEAD_MOTION_PARAMS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if kind == "none":
        return np.zeros((n_ticks, 3))
    p = {**HEAD_MOTION_PARAMS[kind], **params}
    amp = float(p["amplitude"])
    _check_amplitude(amp)
    return signal_trace(kind, n_ticks, dt, seed, amp, period=float(p.get("period", 1.0)),
                        direction=p.get("direction", (1.0, 0.0, 0.0)),
                        sigma=float(p.get("sigma", 0.0)))


def _check_amplitude(amp: float):
    if not 0.0 <= amp <= MAX_PERTURBATION_AMPLITUDE:
        raise ValueError(
            f"perturbation amplitude {amp} outside [0, {MAX_PERTURBATION_AMPLITUDE}] m")

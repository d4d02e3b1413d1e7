"""In-memory span tracer for the traced benchmark run.

The tracer replaces the names that calling modules bind (for example
``bitesim.harness.step``, which ``simulate_tick`` looks up at call time)
with timing wrappers. Each call records one span: name, start, end and
the span that was open when it began. Spans stay in flat arrays until
the run ends; then they are written out and reduced to self time per
layer, where a layer is the module that defines the wrapped function
and a span's self time is its duration minus that of its children.

A wrapped name that a later version of the package no longer has is
skipped, so its span simply reads zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (calling module, name bound there); the layer comes from the wrapped
# function's own module
WRAPPED = (
    ("bitesim.harness", "run_trial"),
    ("bitesim.harness", "simulate_tick"),
    ("bitesim.harness", "step"),
    ("bitesim.harness", "reactive_term"),
    ("bitesim.harness", "desired_wrench"),
    ("bitesim.harness", "phase_gains"),
    ("bitesim.harness", "contact_force"),
    ("bitesim.harness", "bite_force"),
    ("bitesim.harness", "perturbation_trace"),
    ("bitesim.harness", "load_food_presets"),
    ("bitesim.harness", "synth_depth_scan"),
    ("bitesim.harness", "food_bounding_box"),
    ("bitesim.harness", "compute_offsets"),
    ("bitesim.harness", "target_pose"),
    ("bitesim.harness", "build_transfer_plan"),
    ("bitesim.harness", "build_fixed_pose_plan"),
    ("bitesim.harness", "bundled_chain"),
    ("bitesim.harness", "ik_damped_least_squares"),
    ("bitesim.controller", "SafetyLatch.update"),
    ("bitesim.comfort", "sample_fork_poses"),
    ("bitesim.comfort", "ik_damped_least_squares"),
    ("bitesim.comfort", "joint_displacement"),
    ("bitesim.comfort", "comfort_cost"),
    ("bitesim.comfort", "link_points"),
    ("bitesim.comfort", "_one_sided_less"),
    ("bitesim.cli", "run_trial"),
    ("bitesim.cli", "save_log"),
    ("bitesim.cli", "export_trajectory"),
)

SHARE_LAYERS = ("harness", "transfer", "controller", "humansim", "perception",
                "kinematics", "comfort")


class Tracer:
    """Records spans while installed; restores every binding on removal."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(i)
        return wrapper

    def install(self, targets=WRAPPED):
        for module_name, dotted in targets:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, f"{layer}.{fn.__name__}"))

    def remove(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy()}

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Self time (s) per span name: duration minus the children's."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    own = dur - covered
    per_name = np.bincount(spans["name_id"], weights=own, minlength=len(spans["names"]))
    return {str(n): float(v) for n, v in zip(spans["names"], per_name)}


def layer_totals(self_by_name: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, v in self_by_name.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + v
    return out


def call_stats(spans: dict[str, np.ndarray], name: str) -> tuple[int, float]:
    """(call count, mean duration in s) of the spans with this name."""
    names = list(spans["names"])
    if name not in names:
        return 0, 0.0
    sel = spans["name_id"] == names.index(name)
    n = int(sel.sum())
    dur = spans["end"][sel] - spans["start"][sel]
    return n, float(dur.mean()) if n else 0.0

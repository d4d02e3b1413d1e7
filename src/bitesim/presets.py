"""Config schemas and the bundled gain presets.

A scenario, a suite (and each of its trials) and a wrist study each have
one schema, a nested dict of _Key leaves: each key's default and, where
its kind does not bound it, its range. resolve merges a config over the
defaults; check_keys walks it once, checking each kind, then each range.

Gain presets: ``ours`` switches from high entry gains to reduced gains
along the exit direction after the bite; ``less_reactive`` and
``more_reactive`` run one constant gain set throughout; ``non_reactive``
has every gain zero. The fixed-pose baseline (fork held outside the
mouth, the scripted user approaches) is ``transfer_mode: fixed_pose``.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

import numpy as np

from .controller import ENTRY_KI, ENTRY_KP, EXIT_KI, EXIT_KP
from .humansim import HEAD_MOTION_PARAMS, MAX_PERTURBATION_AMPLITUDE, load_food_presets
from .kinematics import BUNDLED_CHAINS


def _gains(k_p: float, k_i: float) -> dict:
    """A gain set: k_p and k_i on the three force axes, no torque gains."""
    return {"k_p": [k_p] * 3 + [0.0] * 3, "k_i": [k_i] * 3 + [0.0] * 3}


GAIN_PRESETS: dict[str, dict] = {
    "ours": {"entry_gains": _gains(ENTRY_KP, ENTRY_KI), "exit_gains": _gains(EXIT_KP, EXIT_KI)},
    "less_reactive": {"entry_gains": _gains(2.0, 2.0), "exit_gains": _gains(2.0, 2.0)},
    "more_reactive": {"entry_gains": _gains(10.0, 30.0), "exit_gains": _gains(10.0, 30.0)},
    "non_reactive": {"entry_gains": _gains(0.0, 0.0), "exit_gains": _gains(0.0, 0.0)},
}

DEFAULT_MOUTH_POSITION = [0.55, 0.0, 0.45]

# bounds of the keys that size a run's work, far beyond any preset, test
# or bundled config: a value past one is a ConfigError naming its key,
# raised before anything is allocated
MAX_HORIZON_S = 600.0  # 600,001 ticks
MAX_STUDY_COUNT = 1_000_000  # poses, each solved on both chains
MIN_SCAN_RESOLUTION_MM = 0.01  # 10^6 points on a face of a 10 mm box
# a plan is built at 100 Hz over its whole segments, whatever the
# horizon: an arc, entry or exit lasts at least a tick, and no segment
# may outlast the longest horizon, past which no tick runs
MIN_SEGMENT_S = 0.001
# the perceived mouth's offset on each axis of the mouth frame; the
# largest in any preset, test or bundled config is 34 mm
MAX_MOUTH_ERROR_MM = 1000.0
# a suite's ticks, summed over its trials: a setup holds 24 to 73 bytes
# per tick (one 600 s trial, without and with random-walk traces), so a
# suite's setups hold at most 0.24 to 0.73 GB at once
MAX_SUITE_TICKS = 10_000_000
# the ticks each trial adds to that sum for the part of its setup that
# does not grow with its horizon: a zero-horizon setup holds 69.5 to
# 70.4 KB (tracemalloc of 20 setups, scan cache warm, for the default,
# random-walk and fixed-pose scenarios), which is 2,900 ticks at 24 B.
# Most of it is the default plan's 1,001 waypoints of 64 B (time,
# position, orientation), so a trial whose plan has more waypoints than
# this adds one per waypoint instead
SUITE_SETUP_TICKS = 3_000

# parameters and defaults of the injected-disturbance kinds (forces in N)
DISTURBANCE_PARAMS = {
    "none": {},
    "sinusoid": {"amplitude_n": 0.5, "period_s": 1.0, "direction": [1.0, 0.0, 0.0]},
    "random-walk": {"sigma_n": 1.0, "amplitude_n": 0.8},  # sigma in N / sqrt(s)
    "array": {"trace": None},  # (n, 6) rows, which must be set; the last holds past its end
}


class ConfigError(ValueError):
    """Scenario/suite/study configuration cannot be resolved."""


def load_json(text: str, source: str):
    """The value of source's JSON text (a config or chain file, a log's
    events); text that does not decode, JSON nested too deep for the
    decoder included, is a ConfigError naming source."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as e:
        raise ConfigError(f"{source} cannot be decoded as JSON: {e}") from e


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _numbers(v, n: int | None = None) -> bool:
    return (isinstance(v, (list, tuple, np.ndarray)) and all(map(_is_number, v))
            and (n is None or len(v) == n))


class _Rule(NamedTuple):
    """What a config value must be: ``wanted`` says it, ``ok`` tests it."""
    wanted: str
    ok: Callable[[object], bool]


class _Key(NamedTuple):
    """A config key: its default, whose type gives the kind of its value
    (a list of numbers keeps the default's length, a tuple may have any;
    None gives no kind, and _UNSET leaves the key out of the defaults),
    and the rule its value must meet beyond its kind."""
    default: object
    rule: _Rule | None = None


class _Kinds(dict):
    """The schema of a section whose "kind" selects its parameters: one
    section schema per kind, "none" standing for a kind that is unknown."""


_UNSET = object()
# the rule of a value by the type of its default (bool before int, which
# it subclasses); NaN and infinities fail every numeric range
_VALUE_KINDS = (
    (bool, _Rule("a bool", lambda v: isinstance(v, (bool, np.bool_)))),
    (str, _Rule("a string", lambda v: isinstance(v, str))),
    (int, _Rule("a whole number", lambda v: _is_number(v) and (
        isinstance(v, (int, np.integer)) or float(v).is_integer()))),
    (float, _Rule("a number", _is_number)),
    (dict, _Rule("an object", lambda v: isinstance(v, dict))),
    (tuple, _Rule("a list of numbers", _numbers)),
)
_POSITIVE = _Rule("finite and > 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = _Rule("finite and >= 0", lambda v: 0 <= v < math.inf)
_AT_LEAST_ONE = _Rule(">= 1", lambda v: v >= 1)
_FINITE = _Rule("finite", math.isfinite)
_FINITE_EACH = _Rule("a list of finite numbers", lambda v: all(map(math.isfinite, v)))
_POSITIVE_EACH = _Rule("a list of numbers > 0", lambda v: all(0 < x < math.inf for x in v))
_NON_NEGATIVE_EACH = _Rule("a list of numbers >= 0", lambda v: all(0 <= x < math.inf for x in v))
_NULL_OR_3_FINITE = _Rule("null or a list of 3 finite numbers",
                          lambda v: v is None or _numbers(v, 3) and _FINITE_EACH.ok(v))
_CHAIN = _Rule(f"a .json path or one of {sorted(BUNDLED_CHAINS)}",
               lambda v: v.endswith(".json") or v in BUNDLED_CHAINS)

_DURATION = _Rule(f"in [0, {MAX_HORIZON_S:g}] s", lambda v: 0 <= v <= MAX_HORIZON_S)
_STUDY_COUNT = _Rule(f"in [1, {MAX_STUDY_COUNT}]", lambda v: 1 <= v <= MAX_STUDY_COUNT)
_SCAN_RESOLUTION = _Rule(f"finite and >= {MIN_SCAN_RESOLUTION_MM:g} mm",
                         lambda v: MIN_SCAN_RESOLUTION_MM <= v < math.inf)
_SEGMENT = _Rule(f"in [{MIN_SEGMENT_S:g}, {MAX_HORIZON_S:g}] s",
                 lambda v: MIN_SEGMENT_S <= v <= MAX_HORIZON_S)
_MOUTH_ERROR = _Rule(f"a list of numbers in [-{MAX_MOUTH_ERROR_MM:g}, {MAX_MOUTH_ERROR_MM:g}] mm",
                     lambda v: all(abs(x) <= MAX_MOUTH_ERROR_MM for x in v))


def _one_of(choices) -> _Rule:
    """The rule of a string that must be one of choices."""
    return _Rule(f"one of {sorted(choices)}", lambda v: v in choices)


# the range of each disturbance and head-motion parameter, by name; a
# direction is divided by its norm, whose square must not underflow to 0
# or overflow (Python floats do both without a numpy warning)
_SIGNAL_RANGES = {
    "amplitude_n": _NON_NEGATIVE, "period_s": _POSITIVE, "sigma_n": _NON_NEGATIVE,
    "amplitude": _Rule(f"in [0, {MAX_PERTURBATION_AMPLITUDE}] m",
                       lambda v: 0.0 <= v <= MAX_PERTURBATION_AMPLITUDE),
    "period": _POSITIVE, "sigma": _NON_NEGATIVE,
    "direction": _Rule("a list of numbers whose norm is finite and > 0",
                       lambda v: 0 < sum(x * x for x in map(float, v)) < math.inf),
    "trace": _Rule("a non-empty list of rows of 6 numbers", lambda v: isinstance(
        v, (list, tuple, np.ndarray)) and len(v) > 0 and all(_numbers(r, 6) for r in v)),
}


def _kinds(params: dict) -> _Kinds:
    kind = _Key("none", _one_of(params))
    return _Kinds({name: {"kind": kind, **{p: _Key(d, _SIGNAL_RANGES[p]) for p, d in ps.items()}}
                   for name, ps in params.items()})


# both gain sets come from the gain preset, which sits between the
# defaults and a scenario's own keys
_GAINS = {"k_p": _Key([0.0] * 6, _NON_NEGATIVE_EACH), "k_i": _Key([0.0] * 6, _NON_NEGATIVE_EACH)}

# the nominal in-mouth trial: pineapple cube, bite 0.5 s into the wait.
# Large foods (strawberry, broccoli) nearly fill the default 30 mm
# aperture once the food offset lowers the fork, so the tip starts in
# contact with the lower teeth; widen the aperture for those.
SCENARIO = {
    "name": _Key("nominal"), "seed": _Key(12345, _NON_NEGATIVE),
    "chain": _Key("panda_wrist_9dof", _CHAIN),
    "food": _Key("pineapple", _Rule("the name of a bundled food",
                                    lambda v: v in load_food_presets())),
    "transfer_mode": _Key("in_mouth", _one_of(("in_mouth", "fixed_pose"))),
    "gain_preset": _Key("ours", _one_of(GAIN_PRESETS)),
    "mouth": {
        "center_position": _Key(DEFAULT_MOUTH_POSITION, _FINITE_EACH),
        "aperture_m": _Key(0.030, _POSITIVE), "stiffness": _Key(1000.0, _NON_NEGATIVE),
        "damping": _Key(10.0, _NON_NEGATIVE), "lateral_halfwidth_m": _Key(0.025, _POSITIVE),
        "facing": _Key(_UNSET, _NULL_OR_3_FINITE),  # null: toward the base
    },
    "mouth_error_mm": _Key([0.0, 0.0, 0.0], _MOUTH_ERROR),
    "bite": {"t_bite_s": _Key(0.5, _NON_NEGATIVE), "peak_force_n": _Key(1.0, _NON_NEGATIVE),
             "ramp_s": _Key(0.2, _NON_NEGATIVE), "refuse": _Key(False)},
    "head_perturbation": _kinds(HEAD_MOTION_PARAMS),
    "disturbance": _kinds(DISTURBANCE_PARAMS),
    "impedance": {
        "stiffness": _Key([200.0, 200.0, 200.0, 10.0, 10.0, 10.0], _NON_NEGATIVE_EACH),
        # null: critically damped for the virtual mass
        "damping": _Key(None, _Rule("null or a list of 6 numbers >= 0", lambda v: v is None or (
            _numbers(v, 6) and _NON_NEGATIVE_EACH.ok(v)))),
    },
    "virtual_mass": _Key([2.0, 2.0, 2.0, 0.02, 0.02, 0.02], _POSITIVE_EACH),
    "safety_limit_n": _Key(3.0, _POSITIVE),
    "safety_mode": _Key("component", _one_of(("component", "norm"))),
    "integral_cap_n": _Key(10.0),  # its range is checked in ControllerState's words
    "lowpass_cutoff_hz": _Key(0.0, _NON_NEGATIVE),  # 0 turns the filter off
    "segments": {"arc_s": _Key(6.0, _SEGMENT), "entry_s": _Key(2.0, _SEGMENT),
                 "exit_s": _Key(2.0, _SEGMENT), "retract_s": _Key(6.0, _DURATION),
                 "scan_s": _Key(0.0, _DURATION), "face_detect_s": _Key(0.0, _DURATION)},
    "arc_radius_m": _Key(0.45, _POSITIVE), "arc_start_deg": _Key(90.0, _FINITE),
    "entry_depth_m": _Key(0.018, _POSITIVE), "lowering_m": _Key(0.003, _NON_NEGATIVE),
    "fork_pitch_deg": _Key(25.0, _FINITE),
    "bite_threshold_n": _Key(0.3, _POSITIVE), "bite_timeout_s": _Key(1.5, _POSITIVE),
    "horizon_s": _Key(10.0, _DURATION), "joint_log_stride": _Key(100, _NON_NEGATIVE),
    "scan": {"resolution_mm": _Key(0.1, _SCAN_RESOLUTION), "noise_mm": _Key(0.0, _NON_NEGATIVE)},
    "entry_gains": _GAINS, "exit_gains": _GAINS,
}

# the seed's default only gives its kind: a suite must set it; the
# trials are checked one by one against SUITE_TRIAL
SUITE = {"name": _Key("suite"), "seed": _Key(0, _NON_NEGATIVE),
         "repetitions": _Key(1, _AT_LEAST_ONE), "trials": _Key(None)}
SUITE_TRIAL = {"method": _Key("ours"), "scenario": _Key({})}

# the default 10,000-pose wrist study around the pre-mouth pose
STUDY = {
    "chain_with": _Key("panda_wrist_9dof", _CHAIN), "chain_without": _Key("panda_7dof", _CHAIN),
    "count": _Key(10000, _STUDY_COUNT), "seed": _Key(2024, _NON_NEGATIVE),
    "mouth_position": _Key(DEFAULT_MOUTH_POSITION, _FINITE_EACH),
    "mouth_facing": _Key(_UNSET, _NULL_OR_3_FINITE),  # null: toward the base
    "translation_halfwidth_m": _Key(0.10, _NON_NEGATIVE),
    "rotation_halfwidth_deg": _Key(30.0, _NON_NEGATIVE),
    # an elbow-low posture reaching the default pre-mouth pose; a tuple,
    # as it matches the without-wrist chain, which may be any chain
    "home": _Key((1.3015, -1.6316, -1.4904, -2.7171, 2.7021, 2.2326, 0.2429), _FINITE_EACH),
    "comfort": {
        # head sits behind the lips at eye height; the cone looks
        # out over the approaching arm
        "head_offset_back_m": _Key(0.10, _FINITE), "head_offset_up_m": _Key(0.12, _FINITE),
        "half_angle_deg": _Key(30.0, _Rule("in (0, 90)",
                                           lambda v: 0 < math.radians(v) < math.pi / 2)),
        "length_m": _Key(0.8, _POSITIVE), "weight": _Key(1.0, _NON_NEGATIVE),
    },
    "ik": {"damping": _Key(0.02, _POSITIVE), "pos_tol": _Key(1e-3, _POSITIVE),
           "rot_tol": _Key(1e-2, _POSITIVE), "max_iter": _Key(200, _NON_NEGATIVE)},
}


def _kind_rule(default) -> _Rule | None:
    if isinstance(default, list):
        n = len(default)
        return _Rule(f"a list of {n} numbers", lambda v: _numbers(v, n))
    return next((rule for cls, rule in _VALUE_KINDS if isinstance(default, cls)), None)


def check_keys(cfg: dict, schema: dict, kind: str, path: str = "") -> None:
    """Reject a cfg that is not an object, a key that schema lacks, or a
    value of another kind than its default's or outside its key's range,
    at any nesting level, naming the kind of config and the key's path."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"a {kind} must be an object, got {cfg!r}")
    for key, value in cfg.items():
        where = path + str(key)
        if key not in schema:
            raise ConfigError(f"unknown {kind} key {where!r}")
        entry = schema[key]
        if isinstance(entry, dict):  # a section: an object, walked against its schema
            entry = _Key({}, entry)
        for rule in (_kind_rule(entry.default), entry.rule):
            if isinstance(rule, _Kinds):
                rule = rule.get(str(value.get("kind")), rule["none"])
            if isinstance(rule, dict):
                check_keys(value, rule, kind, where + ".")
            elif rule is not None and not rule.ok(value):
                raise ConfigError(f"{kind} key {where!r} must be {rule.wanted}, got {value!r}")


def defaults(schema: dict) -> dict:
    """The default config of schema, with new lists."""
    out = {}
    for key, entry in schema.items():
        if isinstance(entry, dict):
            out[key] = defaults(entry["none"] if isinstance(entry, _Kinds) else entry)
        elif entry.default is not _UNSET:
            out[key] = list(entry.default) if isinstance(entry.default, list) else entry.default
    return out


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def resolve(cfg, schema: dict, kind: str) -> dict:
    """cfg over schema's defaults, checked in one walk. A scenario's gain
    preset fills its gains between the defaults and cfg."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"a {kind} must be an object, got {cfg!r}")
    base = defaults(schema)
    if "gain_preset" in base:
        base = _merge(base, GAIN_PRESETS.get(str(cfg.get("gain_preset", "ours")), {}))
    out = _merge(base, cfg)
    check_keys(out, schema, kind)
    return out

"""Workload inputs, made from the benchmark seed alone.

Every function here is a pure function of its arguments, so the same seed
always gives the same inputs; the wrist_study pose samples are fixed (see
study_configs). The program under test only sees the dicts built here.
"""

from __future__ import annotations

import numpy as np

FOODS = ("carrot", "strawberry", "blueberry", "pineapple",
         "cherry_tomato", "broccoli", "cheesecake", "tofu")
PRESETS = ("ours", "less_reactive", "more_reactive", "non_reactive")

# A wider mouth than the nominal 30 mm lets every food (strawberry and
# broccoli too) enter without starting in contact with the teeth.
MOUTH = {"aperture_m": 0.06, "lateral_halfwidth_m": 0.05}

# workload tags keep the workloads' random streams apart
_SUITE, _CLI = 1, 3

# suite_table: (condition, method) per trial index of one round
SUITE_LAYOUT = (
    ("nominal", "ours"),
    ("nominal", "less_reactive"),
    ("nominal", "more_reactive"),
    ("nominal", "non_reactive"),
    ("nominal", "fixed_pose"),
    ("refused", "ours"),
    ("mouth_error_y", "ours"),
    ("disturbance", "ours"),
    ("head_random_walk", "ours"),
)

# wrist_study: one round is a run_wrist_study of STUDY_SAMPLE_POSES poses
# for each of these pose-sample seeds
STUDY_SAMPLE_POSES = 400
STUDY_SEEDS = tuple(2024 + k for k in range(8))

# cli_trial: invocations per round, one per gain preset. Each round scans
# one fixed group of four foods (the seed only pairs them with presets), so
# the peak memory of a run, set by the largest scan (broccoli: 516k points,
# strawberry: 412k), does not depend on the seed. Two rounds cover all eight.
CLI_ROUND_OPS = len(PRESETS)
CLI_FOOD_GROUPS = (("broccoli", "blueberry", "pineapple", "tofu"),
                   ("strawberry", "cherry_tomato", "carrot", "cheesecake"))


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def suite_config(seed: int) -> dict:
    """One round of suite_table: nine trials over every preset, fixed_pose
    mode, all eight foods and the five conditions of SUITE_LAYOUT."""
    rng = _rng(seed, _SUITE)
    foods = [str(f) for f in rng.permutation(FOODS)]
    trials = []
    for i, (condition, method) in enumerate(SUITE_LAYOUT):
        sc = {"name": f"{condition}-{method}", "food": foods[i % len(foods)],
              "mouth": dict(MOUTH),
              "bite": {"t_bite_s": round(float(rng.uniform(0.3, 0.8)), 3)}}
        if method == "fixed_pose":
            sc["gain_preset"] = "ours"
            sc["transfer_mode"] = "fixed_pose"
        if condition == "refused":
            sc["bite"]["refuse"] = True
        elif condition == "mouth_error_y":
            # beyond half the 60 mm aperture, upward
            sc["mouth_error_mm"] = [0.0, round(float(rng.uniform(31.0, 34.0)), 2), 0.0]
        elif condition == "disturbance":
            axis = [0.0, 0.0, 0.0]
            axis[int(rng.integers(3))] = 1.0
            sc["disturbance"] = {"kind": "sinusoid",
                                 "amplitude_n": round(float(rng.uniform(3.5, 5.0)), 3),
                                 "period_s": 1.0, "direction": axis}
        elif condition == "head_random_walk":
            sc["head_perturbation"] = {"kind": "random-walk"}
        trials.append({"method": method, "scenario": sc})
    return {"name": "suite_table", "seed": int(rng.integers(2**31 - 1)),
            "repetitions": 1, "trials": trials}


def study_configs() -> list[dict]:
    """Study overrides for the studies of one wrist_study round: the
    default pose box, one study per pose sample of the fixed cycle.

    The samples do not depend on the benchmark seed. A sample's cost is
    set by its few poses the 7-DOF chain cannot reach (each burns the
    whole iteration budget), and between seeded samples of this size
    that count alone moves the IK work of a run by about 6 %. The seed
    picks the poses the checks re-solve.
    """
    return [{"count": STUDY_SAMPLE_POSES, "seed": s} for s in STUDY_SEEDS]


def cli_scenario(seed: int, op_index: int) -> dict:
    """Scenario for the op_index-th `bitesim trial` invocation: presets
    cycle within a round, food groups alternate between rounds, no abort."""
    r, j = divmod(op_index, CLI_ROUND_OPS)
    group = CLI_FOOD_GROUPS[r % len(CLI_FOOD_GROUPS)]
    order = _rng(seed, _CLI, 0, r).permutation(len(group))
    rng = _rng(seed, _CLI, 1, op_index)
    return {"name": f"cli{op_index:03d}",
            "seed": int(rng.integers(2**31 - 1)),
            "food": group[int(order[j])],
            "gain_preset": PRESETS[j],
            "mouth": dict(MOUTH),
            "bite": {"t_bite_s": round(float(rng.uniform(0.3, 0.8)), 3)}}

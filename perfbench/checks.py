"""Output checks, run after the timed phase.

Each check compares the program's output with a computation made here,
apart from the program (seeds, FK, statistics, CSV parsing), or with a
property the method guarantees. A check returns the indices of the
operations it rejects plus one message per rejection; a rejected
operation counts as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

OUTCOMES = ("success", "bite_failure", "drop", "imprecise", "aborted")

# expected outcomes per suite_table condition; None means any valid one
SUITE_EXPECT = {
    "nominal": {"success"},
    "refused": {"bite_failure"},
    "mouth_error_y": {"imprecise"},
    "disturbance": {"aborted", "drop"},
    "head_random_walk": None,
}

# documented trajectory CSV schema (README "File formats")
CSV_HEADER = ("t_s,px,py,pz,qw,qx,qy,qz,fx,fy,fz,tau_x,tau_y,tau_z,phase,"
              "set_px,set_py,set_pz,set_qw,set_qx,set_qy,set_qz,deviation_m")
PHASE_NAMES = ("SCAN", "FACE_DETECT", "APPROACH_ARC", "ENTRY", "BITE_WAIT",
               "EXIT", "RETRACT_ARC", "DONE", "ABORTED")
SAFETY_LIMIT_N = 3.0
TICK_S = 1e-3
ARM_JOINTS = 7


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def trial_seed(suite_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=suite_seed,
                                      spawn_key=(index,)).generate_state(1)[0])


# ---------------------------------------------------------------- suite_table

def check_suite(cfg: dict, layout, report: dict) -> tuple[set[int], list[str]]:
    """Check one run_suite report (as its to_dict()) against its config."""
    n = len(cfg["trials"])
    everything = set(range(n))
    msgs = []
    per_method = report.get("per_method", {})
    outcomes = report.get("trial_outcomes", [])
    if report.get("total") != n:
        msgs.append(f"total {report.get('total')} != {n} trials attempted")
    if sum(sum(c.values()) for c in per_method.values()) != n:
        msgs.append("per-method counts do not sum to the trials attempted")
    if len(outcomes) != n:
        msgs.append(f"{len(outcomes)} trial records for {n} trials")
    if report.get("seed") != cfg["seed"]:
        msgs.append("suite seed not echoed")
    tally: dict[str, dict[str, int]] = {}
    for o in outcomes:
        bucket = tally.setdefault(o.get("method"), {})
        bucket[o.get("outcome")] = bucket.get(o.get("outcome"), 0) + 1
    if tally != {m: {k: v for k, v in c.items() if v} for m, c in per_method.items()}:
        msgs.append("per-method counts disagree with the trial records")
    if msgs:
        return everything, msgs

    bad = set()
    for i, o in enumerate(outcomes):
        condition, method = layout[i]
        expect = SUITE_EXPECT[condition]
        problem = None
        if o.get("index") != i:
            problem = f"index {o.get('index')}"
        elif o.get("seed") != trial_seed(cfg["seed"], i):
            problem = f"seed {o.get('seed')} is not SeedSequence({cfg['seed']}, ({i},))"
        elif o.get("method") != method:
            problem = f"method {o.get('method')!r} != {method!r}"
        elif o.get("outcome") not in OUTCOMES:
            problem = f"invalid outcome {o.get('outcome')!r}"
        elif expect is not None and o["outcome"] not in expect:
            problem = f"{condition} gave {o['outcome']!r}, expected {sorted(expect)}"
        if problem:
            bad.add(i)
            msgs.append(f"trial {i} ({condition}/{method}): {problem}")
    return bad, msgs


# ---------------------------------------------------------------- wrist_study

def _quat_matrix(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def _transform(rec) -> np.ndarray:
    t = np.eye(4)
    t[:3, :3] = _quat_matrix(rec[3:7])
    t[:3, 3] = rec[:3]
    return t


def _joint_rotation(axis, angle: float) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    t = np.eye(4)
    t[:3, :3] = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    return t


def chain_fk(spec: dict, q) -> np.ndarray:
    """Tool-tip 4x4 transform from a chain JSON record."""
    t = np.eye(4)
    for joint, angle in zip(spec["joints"], q):
        t = t @ _transform(joint["fixed_offset"]) @ _joint_rotation(joint["axis"], angle)
    return t @ _transform(spec["tool_tip"])


def verify_ik(spec: dict, q, position, quat) -> str | None:
    """None when q reaches the pose within 1 mm / 0.01 rad inside limits."""
    q = np.asarray(q, dtype=float)
    if q.shape != (len(spec["joints"]),):
        return f"config has shape {q.shape}"
    for i, (joint, angle) in enumerate(zip(spec["joints"], q)):
        lo, hi = joint["limits"]
        if not lo - 1e-12 <= angle <= hi + 1e-12:
            return f"joint {i} = {angle} outside [{lo}, {hi}]"
    tip = chain_fk(spec, q)
    pos_err = float(np.linalg.norm(tip[:3, 3] - np.asarray(position)))
    r_rel = _quat_matrix(quat).T @ tip[:3, :3]
    ang_err = math.acos(max(-1.0, min(1.0, (np.trace(r_rel) - 1.0) / 2.0)))
    if pos_err > 1e-3 or ang_err > 1e-2:
        return f"FK misses the target by {pos_err * 1e3:.3f} mm / {ang_err:.4f} rad"
    return None


def _wilcoxon_less(diff: np.ndarray) -> float:
    from scipy import stats
    d = diff[diff != 0.0]
    if d.size == 0:
        return 1.0
    return float(stats.wilcoxon(d, alternative="less").pvalue)


def check_study_report(report: dict, samples: np.ndarray, count: int) -> list[str]:
    """Recompute the study statistics from its per-sample columns."""
    msgs = []
    if samples is None or samples.shape != (count, 14):
        return [f"samples shape {None if samples is None else samples.shape} "
                f"!= ({count}, 14)"]
    if not np.array_equal(samples[:, 0], np.arange(count)):
        msgs.append("sample index column is not 0..n-1")
    conv_w = samples[:, 8] == 1.0
    conv_wo = samples[:, 9] == 1.0
    disp_w, disp_wo, cost_w, cost_wo = samples[:, 10:14].T
    used = conv_w & conv_wo
    expect = {
        "sample_count": count,
        "used_count": int(used.sum()),
        "convergence_rate_with": float(conv_w.mean()),
        "convergence_rate_without": float(conv_wo.mean()),
        "mean_displacement_with": float(disp_w[used].mean()),
        "mean_displacement_without": float(disp_wo[used].mean()),
        "mean_comfort_with": float(cost_w[used].mean()),
        "mean_comfort_without": float(cost_wo[used].mean()),
        "max_comfort_with": float(cost_w[used].max()),
        "max_comfort_without": float(cost_wo[used].max()),
        "p_displacement": _wilcoxon_less(disp_w[used] - disp_wo[used]),
        "p_comfort": _wilcoxon_less(cost_w[used] - cost_wo[used]),
    }
    for key, want in expect.items():
        got = report.get(key)
        if not isinstance(got, (int, float)) or not _close(float(got), float(want)):
            msgs.append(f"{key} = {got}, recomputed {want}")
    if not report["mean_displacement_with"] < report["mean_displacement_without"]:
        msgs.append("mean arm displacement is not lower with the wrist")
    if not report["mean_comfort_with"] < report["mean_comfort_without"]:
        msgs.append("mean comfort cost is not lower with the wrist")
    for key in ("convergence_rate_with", "convergence_rate_without"):
        if not report[key] > 0.5:
            msgs.append(f"{key} = {report[key]} not above the 50 % gate")
    return msgs


def check_resolved_pose(spec: dict, home, sample_row: np.ndarray, converged_col: int,
                        disp_col: int, result) -> str | None:
    """A pose re-solved through the public IK must agree with the study."""
    if bool(result.converged) != (sample_row[converged_col] == 1.0):
        return (f"re-solve converged={result.converged}, study recorded "
                f"{sample_row[converged_col]}")
    if not result.converged:
        return None
    problem = verify_ik(spec, result.q, sample_row[1:4], sample_row[4:8])
    if problem:
        return problem
    disp = float(np.mean(np.abs(np.asarray(result.q)[:ARM_JOINTS]
                                - np.asarray(home)[:ARM_JOINTS])))
    if not _close(disp, float(sample_row[disp_col])):
        return f"displacement {sample_row[disp_col]} != recomputed {disp}"
    return None


# ---------------------------------------------------------------- cli_trial

def read_trajectory_csv(path) -> tuple[str, np.ndarray, list[str]]:
    """(header, numeric columns (n, 22), phase names) of a trajectory CSV."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        rows, phases = [], []
        for line in f:
            cells = line.rstrip("\n").split(",")
            if len(cells) != 23:
                raise ValueError(f"row {len(rows)} has {len(cells)} cells")
            phases.append(cells[14])
            rows.append([float(c) for c in cells[:14] + cells[15:]])
    return header, np.array(rows, dtype=float).reshape(-1, 22), phases


def check_cli_trial(out_dir: Path, scenario: dict, returncode: int) -> list[str]:
    """Check one `bitesim trial` invocation's exit code and three files."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    name = scenario["name"]
    paths = {k: out_dir / f"{name}_{k}" for k in ("report.json", "log.npz",
                                                  "trajectory.csv")}
    missing = [k for k, p in paths.items() if not p.is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    report = json.loads(paths["report.json"].read_text(encoding="utf-8"))
    with np.load(paths["log.npz"], allow_pickle=False) as z:
        log = {k: z[k] for k in ("t", "position", "orientation", "force", "torque",
                                 "phase", "set_position", "set_orientation")}
    header, num, phases = read_trajectory_csv(paths["trajectory.csv"])

    msgs = []
    n = num.shape[0]
    if header != CSV_HEADER:
        msgs.append("CSV header differs from the documented schema")
    if n != report["n_ticks"] or log["t"].shape[0] != n:
        return msgs + [f"{n} CSV rows, n_ticks {report['n_ticks']}, "
                       f"{log['t'].shape[0]} npz rows"]
    if not np.array_equal(num[:, 0], np.arange(n) * TICK_S):
        msgs.append("t_s is not row index x 1 ms")
    columns = {"t": num[:, 0:1], "position": num[:, 1:4], "orientation": num[:, 4:8],
               "force": num[:, 8:11], "torque": num[:, 11:14],
               "set_position": num[:, 14:17], "set_orientation": num[:, 17:21]}
    for key, cols in columns.items():
        if not np.array_equal(cols, log[key].reshape(n, -1)):
            msgs.append(f"CSV {key} columns differ from the npz")
    if phases != [PHASE_NAMES[p] for p in log["phase"]]:
        msgs.append("CSV phase column differs from the npz")

    delta = log["position"] - log["set_position"]
    deviation = np.sqrt((delta * delta).sum(axis=1))
    if not np.allclose(num[:, 21], deviation, rtol=1e-12, atol=1e-15):
        msgs.append("deviation_m differs from |position - set_position|")
    force_norm = np.sqrt((log["force"] ** 2).sum(axis=1))
    if not _close(report["peak_force_n"], float(force_norm.max())):
        msgs.append(f"peak_force_n {report['peak_force_n']} != {force_norm.max()}")
    comps = np.abs(log["force"]).max(axis=0)
    if list(report["peak_force_components"]) != [float(c) for c in comps]:
        msgs.append("peak_force_components differ from the npz")
    if not _close(report["mean_deviation_m"], float(deviation.mean())):
        msgs.append(f"mean_deviation_m {report['mean_deviation_m']} != {deviation.mean()}")
    if comps.max() > SAFETY_LIMIT_N:
        msgs.append(f"force component {comps.max():.3f} N above the safety limit")

    waits = [e["t"] for e in report["events"] if e["phase_to"] == "BITE_WAIT"]
    bites = [e["t"] for e in report["events"] if e["event"] == "bite"]
    t_bite = scenario["bite"]["t_bite_s"]
    if not waits or not bites:
        msgs.append("no bite wait or no bite event")
    elif bites[0] < waits[0] + t_bite - 1e-9:
        msgs.append(f"bite at {bites[0]} s, before wait start {waits[0]} + {t_bite} s")
    return msgs

"""The measured process of one benchmark run (started by run.py).

Imports bitesim, builds the workload's inputs from the seed and prints
``ready``; run.py times the start up to that line. Then it runs one
warm-up operation, runs whole rounds of operations until ``--seconds``
have passed, reads its peak memory, checks every output, and prints one
JSON line. With ``--probe`` it stops after ``ready``. With ``--trace 1``
it times an untraced round, traced rounds and the same untraced round
again, then the per-layer functions, and reports per-layer metrics only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs"

import numpy as np  # noqa: E402

import bitesim  # noqa: E402
from bitesim import ik_damped_least_squares, run_suite  # noqa: E402
from bitesim.comfort import run_wrist_study, sample_fork_poses  # noqa: E402
from bitesim.harness import build_study_inputs  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

STUDY_CHAINS = {"with": "panda_wrist_9dof", "without": "panda_7dof"}
RESOLVED_PER_STUDY = 2  # wrist_study poses re-solved on both chains per study


def _chain_json(name: str) -> dict:
    return json.loads((ROOT / "src" / "bitesim" / "data" / f"{name}.json")
                      .read_text(encoding="utf-8"))


class SuiteTable:
    """One run_suite per round over the nine-trial paper-style table."""

    def __init__(self, seed: int, workdir: Path):
        self.cfg = inputs.suite_config(seed)
        self.ops_per_round = len(self.cfg["trials"])

    def warmup(self):
        # the disturbance trial: full trial setup, and it aborts early
        disturbance = [c for c, _ in inputs.SUITE_LAYOUT].index("disturbance")
        run_suite({**self.cfg, "trials": [self.cfg["trials"][disturbance]]})

    def run_round(self, r: int, tracer=None):
        with tracer.span("harness.run_suite") if tracer else nullcontext():
            return run_suite(self.cfg)

    def check(self, r: int, report):
        return checks.check_suite(self.cfg, inputs.SUITE_LAYOUT, report.to_dict())


class WristStudy:
    """One round runs run_wrist_study on every pose sample of a fixed cycle."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.studies = [build_study_inputs(cfg) for cfg in inputs.study_configs()]
        self.ops_per_round = sum(args[2].count for args in self.studies)
        self.specs = {k: _chain_json(v) for k, v in STUDY_CHAINS.items()}

    def warmup(self):
        chain_with, chain_without, dist, ik_params, _, home = self.studies[0]
        home_with = np.concatenate([home, chain_with.home[chain_without.dof:]])
        ik_damped_least_squares(chain_with, dist.center, home_with, ik_params)
        ik_damped_least_squares(chain_without, dist.center, home, ik_params)

    def run_round(self, r: int, tracer=None):
        reports = []
        for args in self.studies:
            with tracer.span("comfort.run_wrist_study") if tracer else nullcontext():
                reports.append(run_wrist_study(*args))
        return reports

    def check(self, r: int, reports):
        bad, msgs, offset = set(), [], 0
        for k, (args, report) in enumerate(zip(self.studies, reports)):
            rejected, problems = self.check_study(r, k, args, report)
            bad |= {offset + i for i in rejected}
            msgs += [f"sample {k}: {p}" for p in problems]
            offset += args[2].count
        return bad, msgs

    def check_study(self, r: int, k: int, args, report):
        """Check the k-th study of round r; returns (rejected poses, messages)."""
        chain_with, chain_without, dist, ik_params, _, home = args
        msgs = checks.check_study_report(report.to_dict(), report.samples, dist.count)
        if msgs:
            return set(range(dist.count)), msgs
        homes = {"without": np.asarray(home, dtype=float),
                 "with": np.concatenate([home, self.specs["with"]["home"][len(home):]])}
        chains = {"with": chain_with, "without": chain_without}
        columns = {"with": (8, 10), "without": (9, 11)}
        poses = sample_fork_poses(dist)
        pick = np.random.default_rng([self.seed, r, k]).choice(
            dist.count, RESOLVED_PER_STUDY, replace=False)
        bad = set()
        for i in (int(j) for j in pick):
            row = report.samples[i]
            if not (np.array_equal(row[1:4], poses[i].position)
                    and np.array_equal(row[4:8], poses[i].orientation)):
                bad.add(i)
                msgs.append(f"pose {i}: samples row is not the sampled pose")
                continue
            for side in ("with", "without"):
                result = ik_damped_least_squares(chains[side], poses[i], homes[side],
                                                 ik_params)
                problem = checks.check_resolved_pose(self.specs[side], homes[side], row,
                                                     *columns[side], result)
                if problem:
                    bad.add(i)
                    msgs.append(f"pose {i} ({side} wrist): {problem}")
        return bad, msgs


class CliTrial:
    """Sequential fresh-process `bitesim trial` runs, four per round."""

    SCENARIOS = 64  # prebuilt; op k uses scenario k mod 64

    def __init__(self, seed: int, workdir: Path):
        self.ops_per_round = inputs.CLI_ROUND_OPS
        self.workdir = workdir
        self.scenarios = [inputs.cli_scenario(seed, k) for k in range(self.SCENARIOS)]
        self.paths = []
        for sc in self.scenarios:
            path = workdir / f"{sc['name']}.json"
            path.write_text(json.dumps(sc), encoding="utf-8")
            self.paths.append(path)
        self.spans_files: list[Path] = []
        self.invocations = 0

    def _invoke(self, k: int, out_dir: Path, traced: bool) -> int:
        cmd = [sys.executable, "-m", "bitesim.cli"]
        if traced:
            spans = out_dir / "spans.npz"
            self.spans_files.append(spans)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        cmd += ["trial", str(self.paths[k % self.SCENARIOS]), "--out-dir", str(out_dir)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=150)
        if proc.returncode:
            sys.stderr.write(proc.stderr[-2000:])
        return proc.returncode

    def warmup(self):
        self._invoke(0, self.workdir / "warmup", traced=False)

    def run_round(self, r: int, tracer=None):
        ops = []
        for j in range(self.ops_per_round):
            k = r * self.ops_per_round + j
            out_dir = self.workdir / f"op{self.invocations:04d}"
            self.invocations += 1
            ops.append((k, out_dir, self._invoke(k, out_dir, tracer is not None)))
        return ops

    def check(self, r: int, ops):
        bad, msgs = set(), []
        for j, (k, out_dir, returncode) in enumerate(ops):
            problems = checks.check_cli_trial(out_dir, self.scenarios[k % self.SCENARIOS],
                                              returncode)
            if problems:
                bad.add(j)
                msgs.extend(f"invocation {k}: {p}" for p in problems)
        return bad, msgs


WORKLOADS = {"suite_table": SuiteTable, "wrist_study": WristStudy, "cli_trial": CliTrial}


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_trial" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _run_rounds(w, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed: (outputs, elapsed, per-round s)."""
    outputs, per_round = [], []
    t0 = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench.round"):
                    out = w.run_round(r, tracer)
            else:
                out = w.run_round(r)
            outputs.append((r, out, None))
        except Exception:
            outputs.append((r, None, traceback.format_exc()))
        per_round.append(time.perf_counter() - t_round)
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return outputs, time.perf_counter() - t0, per_round


def _check_outputs(w, outputs):
    """(failed ops, raised ops, errors, check failures) over all rounds.

    An operation that raised is failed but says nothing about the
    correctness of outputs; a rejected output is failed and makes the
    run incorrect.
    """
    failed = raised = 0
    errors, rejected = [], []
    for r, out, error in outputs:
        if error is not None:
            failed += w.ops_per_round
            raised += w.ops_per_round
            errors.append(f"round {r} raised: {error.strip().splitlines()[-1]}")
            continue
        try:
            bad, problems = w.check(r, out)
        except Exception:
            bad = range(w.ops_per_round)
            problems = [f"round {r}: check raised {traceback.format_exc()}"]
        failed += len(set(bad))
        rejected.extend(problems)
    return failed, raised, errors, rejected


def run_info() -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "bitesim": bitesim.__version__}


def measure(w, workload: str, seconds: float) -> dict:
    w.warmup()
    outputs, elapsed, per_round = _run_rounds(w, seconds)
    peak = _peak_rss_mb(workload)
    failed, raised, errors, rejected = _check_outputs(w, outputs)
    attempted = len(outputs) * w.ops_per_round
    return {"correct": not rejected, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": {"value": (attempted - raised) / elapsed, "unit": "1/s"},
                        "peak_rss_mb": {"value": peak, "unit": "MiB"}},
            "rounds": len(outputs), "round_s": per_round,
            "messages": (errors + rejected)[:50]}


def measure_traced(w, seconds: float, env: dict, spans_path: Path) -> dict:
    import layers
    import spans

    w.warmup()
    # untraced rounds on both sides of the traced ones, so that a machine
    # drifting in speed does not pass for tracing overhead
    before, before_s, _ = _run_rounds(w, 0.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, traced_s, per_round = _run_rounds(w, seconds, tracer)
    finally:
        tracer.remove()
    after, after_s, _ = _run_rounds(w, 0.0)
    tracer.save(spans_path)
    arrays = tracer.arrays()
    self_by_name = spans.self_times(arrays)
    ticks = spans.call_stats(arrays, "harness.simulate_tick")[0]
    # cli_trial: the layers ran in the child processes, which saved their own spans
    for path in getattr(w, "spans_files", []):
        with np.load(path) as z:
            child = {k: z[k] for k in z.files}
        for name, v in spans.self_times(child).items():
            self_by_name[name] = self_by_name.get(name, 0.0) + v
        ticks += spans.call_stats(child, "harness.simulate_tick")[0]
    layer_self = spans.layer_totals(self_by_name)
    _, stats_mean = spans.call_stats(arrays, "comfort._one_sided_less")

    failed, _, errors, rejected = _check_outputs(w, before + traced + after)
    values = {f"{layer}.self_share": layer_self.get(layer, 0.0) / traced_s
              for layer in spans.SHARE_LAYERS}
    values["trace.overhead_share"] = per_round[0] / ((before_s + after_s) / 2) - 1.0
    values["harness.ticks_simulated"] = ticks / len(traced)
    values["comfort.stats_ms"] = 1e3 * stats_mean
    values.update(layers.measure_all(env, OUT))
    rounds = len(before) + len(traced) + len(after)
    return {"correct": not rejected, "attempted": rounds * w.ops_per_round,
            "failed": failed, "values": values, "rounds": len(traced),
            "messages": (errors + rejected)[:50]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    if not Path(bitesim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bitesim imported from {bitesim.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.probe:
            return 0
        if args.trace:
            result = measure_traced(w, args.seconds, dict(os.environ),
                                    OUT / f"spans-{tag}.npz")
        else:
            result = measure(w, args.workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["info"] = run_info()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

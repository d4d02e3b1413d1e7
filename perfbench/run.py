"""bitesim benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload suite_table --seed 1 --seconds 15 --trace 0

Workloads: suite_table, wrist_study, cli_trial (see perfbench/README.md).
The workload runs in a fresh process (workload.py) that imports bitesim
from this checkout's src/, with BLAS and OpenMP pinned to one thread.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
setup_s is the median over SETUP_STARTS fresh starts, each timed from
process launch to the point where the workload's inputs are built. With
--trace 1 it reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A record of the run (machine,
versions, load average, every start time, check messages) is written to
.perfbench_runs/. Exits non-zero without a result when the checkout has
no bitesim sources or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs"
WORKLOADS = ("suite_table", "wrist_study", "cli_trial")
SETUP_STARTS = 3
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def launch(cmd: list[str], env: dict, deadline: float):
    """Start a workload process; return it and the seconds until 'ready'."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"workload process did not start (exit {proc.wait()})")
        return proc, setup, watchdog
    except BaseException:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        raise


def finish(proc, watchdog) -> str:
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    declared = declared_metrics()
    env = child_env()
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    load_at_start = os.getloadavg()
    setups = []
    if not args.trace:
        for _ in range(SETUP_STARTS - 1):
            proc, setup, watchdog = launch(cmd + ["--probe"], env, deadline)
            finish(proc, watchdog)
            setups.append(setup)
    proc, setup, watchdog = launch(cmd, env, deadline)
    setups.append(setup)
    result = json.loads(finish(proc, watchdog).strip().splitlines()[-1])

    if args.trace:
        units = declared["per_layer"]
        values = result["values"]
    else:
        units = declared["end_to_end"]
        values = {"setup_s": statistics.median(setups),
                  **{k: v["value"] for k, v in result["metrics"].items()}}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"],
               "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_at_start": load_at_start,
              "setup_starts_s": setups, **result, **summary}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    info = result["info"]
    print(f"{args.workload} seed={args.seed}: nproc={info['nproc']} "
          f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']} "
          f"load={load_at_start[0]:.2f}", file=sys.stderr)
    for msg in result["messages"]:
        print(f"  {msg}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "bitesim" / "__init__.py").is_file():
        print(f"no bitesim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        summary = run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

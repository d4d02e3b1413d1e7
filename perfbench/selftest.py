"""The benchmark's own tests.

    PYTHONPATH=src python3 perfbench/selftest.py

A short run of every workload passes; every check rejects a corrupted
output and counts it as a failed operation; the same seed gives the same
inputs and the same program outputs; a directory without the sources
makes the benchmark fail. Takes about three minutes on two cores.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
from bitesim import run_suite  # noqa: E402
from bitesim.comfort import run_wrist_study  # noqa: E402
from bitesim.harness import build_study_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def scratch() -> Path:
    workload.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=workload.OUT))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class ShortRuns(unittest.TestCase):
    def _run(self, name: str, trace: int) -> dict:
        proc = bench("--workload", name, "--seed", "11", "--seconds", "0",
                     "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0, proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_each_workload_end_to_end(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self._run(w["name"], 0)["metrics"]
                self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
                self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_traced_run_reports_every_layer_metric(self):
        metrics = self._run("wrist_study", 1)["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})
        self.assertGreater(metrics["kinematics.self_share"]["value"], 0.5)

    def test_fails_without_sources(self):
        bare = scratch()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "suite_table", "--seed", "1", "--seconds", "1",
                         cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


def _suite_report(cfg: dict) -> dict:
    """A report that satisfies every suite check, built from the config."""
    outcomes, per_method = [], {}
    for i, (entry, (condition, _)) in enumerate(zip(cfg["trials"], inputs.SUITE_LAYOUT)):
        expect = checks.SUITE_EXPECT[condition]
        outcome = sorted(expect)[0] if expect else "success"
        outcomes.append({"index": i, "method": entry["method"], "outcome": outcome,
                         "seed": checks.trial_seed(cfg["seed"], i)})
        bucket = per_method.setdefault(entry["method"], dict.fromkeys(checks.OUTCOMES, 0))
        bucket[outcome] += 1
    return {"name": cfg["name"], "seed": cfg["seed"], "total": len(outcomes),
            "per_method": per_method, "trial_outcomes": outcomes}


def _set_outcome(report: dict, i: int, outcome: str):
    """Misclassify trial i consistently in its record and its method's counts."""
    record = report["trial_outcomes"][i]
    counts = report["per_method"][record["method"]]
    counts[record["outcome"]] -= 1
    counts[outcome] = counts.get(outcome, 0) + 1
    record["outcome"] = outcome


class SuiteChecks(unittest.TestCase):
    def setUp(self):
        self.cfg = inputs.suite_config(5)
        self.good = _suite_report(self.cfg)

    def bad(self, report) -> set[int]:
        return checks.check_suite(self.cfg, inputs.SUITE_LAYOUT, report)[0]

    def test_valid_report_passes(self):
        self.assertEqual(checks.check_suite(self.cfg, inputs.SUITE_LAYOUT, self.good),
                         (set(), []))

    def test_each_corruption_fails_its_trial(self):
        cases = {"nominal": "drop", "refused": "success", "disturbance": "success",
                 "mouth_error_y": "success", "head_random_walk": "lost"}
        for condition, outcome in cases.items():
            i = [c for c, _ in inputs.SUITE_LAYOUT].index(condition)
            report = copy.deepcopy(self.good)
            _set_outcome(report, i, outcome)
            with self.subTest(condition=condition):
                self.assertEqual(self.bad(report), {i})
        report = copy.deepcopy(self.good)
        report["trial_outcomes"][4]["seed"] += 1
        self.assertEqual(self.bad(report), {4})

    def test_bookkeeping_corruption_fails_every_trial(self):
        report = copy.deepcopy(self.good)
        report["total"] += 1
        self.assertEqual(self.bad(report), set(range(len(self.cfg["trials"]))))
        report = copy.deepcopy(self.good)
        report["per_method"]["ours"]["success"] += 1
        self.assertEqual(self.bad(report), set(range(len(self.cfg["trials"]))))

    def test_failed_check_counts_failed_ops(self):
        w = workload.SuiteTable(5, ROOT)
        broken = _Wrapped(copy.deepcopy(self.good))
        _set_outcome(broken.d, 5, "success")
        failed, raised, errors, rejected = workload._check_outputs(
            w, [(0, broken, None), (1, None, "Traceback\nValueError: boom")])
        self.assertEqual((failed, raised, len(errors), len(rejected)), (1 + 9, 9, 1, 1))


class _Wrapped:
    def __init__(self, d):
        self.d = d

    def to_dict(self):
        return self.d


class StudyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.args = build_study_inputs({"count": 40, "seed": 2024})
        cls.report = run_wrist_study(*cls.args)
        cls.w = workload.WristStudy(1, ROOT)

    def failed(self, report) -> int:
        return len(self.w.check_study(0, 0, self.args, report)[0])

    def test_valid_study_passes(self):
        self.assertEqual(self.w.check_study(0, 0, self.args, self.report), (set(), []))

    def test_rejected_study_counts_its_poses(self):
        broken = dataclasses.replace(self.report, used_count=0)
        reports = [self.report] * len(self.w.studies)
        reports[1] = broken
        w = workload.WristStudy(1, ROOT)
        w.studies = [self.args] * len(w.studies)
        self.assertEqual(w.check(0, reports)[0], set(range(40, 80)))

    def test_same_inputs_same_study(self):
        again = run_wrist_study(*build_study_inputs({"count": 40, "seed": 2024}))
        self.assertEqual(again.to_json(), self.report.to_json())
        self.assertTrue(np.array_equal(again.samples, self.report.samples))

    def test_corrupted_report_field_fails_every_pose(self):
        for field, value in (("mean_displacement_with", self.report.mean_displacement_with * 1.001),
                             ("p_comfort", self.report.p_comfort * 2 + 1e-300),
                             ("used_count", self.report.used_count - 1)):
            with self.subTest(field=field):
                bad = dataclasses.replace(self.report, **{field: value})
                self.assertEqual(self.failed(bad), 40)

    def test_corrupted_sample_cell_fails_every_pose(self):
        samples = self.report.samples.copy()
        samples[3, 12] += 1e-6  # one comfort cost
        self.assertEqual(self.failed(dataclasses.replace(self.report, samples=samples)), 40)

    def test_resolved_pose_checks(self):
        _, chain_without, _, ik_params, _, home = self.args
        spec = self.w.specs["without"]
        row = self.report.samples[0]
        from bitesim import Pose, ik_damped_least_squares
        target = Pose(row[1:4], row[4:8])
        result = ik_damped_least_squares(chain_without, target, home, ik_params)
        self.assertIsNone(checks.check_resolved_pose(spec, home, row, 9, 11, result))
        wrong_q = dataclasses.replace(result, q=result.q + 0.01)
        self.assertIsNotNone(checks.check_resolved_pose(spec, home, row, 9, 11, wrong_q))
        flipped = row.copy()
        flipped[9] = 1.0 - flipped[9]
        self.assertIsNotNone(checks.check_resolved_pose(spec, home, flipped, 9, 11, result))
        out = np.asarray(spec["joints"][0]["limits"][1]) + 0.1
        beyond = dataclasses.replace(result, q=np.concatenate([[out], result.q[1:]]))
        self.assertIn("outside", checks.verify_ik(spec, beyond.q, row[1:4], row[4:8]))


class CliChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = scratch()
        cls.w = workload.CliTrial(2, cls.tmp)
        out_dir = cls.tmp / "op"
        cls.ops = [(0, out_dir, cls.w._invoke(0, out_dir, traced=False))]
        cls.scenario = cls.w.scenarios[0]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def copy_op(self) -> Path:
        src = self.ops[0][1]
        dst = self.tmp / f"copy{len(list(self.tmp.glob('copy*')))}"
        shutil.copytree(src, dst)
        return dst

    def rejected(self, out_dir: Path, returncode: int = 0) -> int:
        failed = workload._check_outputs(
            self.w, [(0, [(0, out_dir, returncode)], None)])[0]
        return failed

    def test_valid_invocation_passes(self):
        self.assertEqual(self.w.check(0, self.ops), (set(), []))

    def test_same_seed_same_files(self):
        again = self.tmp / "again"
        self.assertEqual(self.w._invoke(0, again, traced=False), 0)
        for suffix in ("report.json", "trajectory.csv"):
            name = f"{self.scenario['name']}_{suffix}"
            self.assertEqual((again / name).read_bytes(), (self.ops[0][1] / name).read_bytes())

    def test_altered_csv_cell(self):
        d = self.copy_op()
        path = d / f"{self.scenario['name']}_trajectory.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[500].split(",")
        cells[2] = repr(float(cells[2]) + 1e-9)
        lines[500] = ",".join(cells)
        path.write_text("".join(lines))
        self.assertEqual(self.rejected(d), 1)

    def test_altered_header_and_rows(self):
        d = self.copy_op()
        path = d / f"{self.scenario['name']}_trajectory.csv"
        text = path.read_text()
        path.write_text(text.replace("deviation_m", "deviation", 1))
        self.assertEqual(self.rejected(d), 1)
        path.write_text("".join(text.splitlines(keepends=True)[:-1]))
        self.assertEqual(self.rejected(d), 1)

    def test_altered_report_field(self):
        for field, change in (("peak_force_n", lambda v: v * 1.01),
                              ("mean_deviation_m", lambda v: v + 1e-9),
                              ("peak_force_components", lambda v: [v[0] + 1.0] + v[1:])):
            with self.subTest(field=field):
                d = self.copy_op()
                path = d / f"{self.scenario['name']}_report.json"
                report = json.loads(path.read_text())
                report[field] = change(report[field])
                path.write_text(json.dumps(report))
                self.assertEqual(self.rejected(d), 1)

    def test_early_bite_event(self):
        d = self.copy_op()
        path = d / f"{self.scenario['name']}_report.json"
        report = json.loads(path.read_text())
        wait = next(e["t"] for e in report["events"] if e["phase_to"] == "BITE_WAIT")
        for e in report["events"]:
            if e["event"] == "bite":
                e["t"] = wait + 0.01
        path.write_text(json.dumps(report))
        self.assertEqual(self.rejected(d), 1)

    def test_missing_file_and_exit_code(self):
        d = self.copy_op()
        (d / f"{self.scenario['name']}_log.npz").unlink()
        self.assertEqual(self.rejected(d), 1)
        self.assertEqual(self.rejected(self.ops[0][1], returncode=3), 1)


class Determinism(unittest.TestCase):
    def test_inputs_follow_the_seed(self):
        self.assertEqual(inputs.suite_config(7), inputs.suite_config(7))
        self.assertNotEqual(inputs.suite_config(7), inputs.suite_config(8))
        self.assertEqual(inputs.cli_scenario(7, 3), inputs.cli_scenario(7, 3))
        self.assertNotEqual(inputs.cli_scenario(7, 3), inputs.cli_scenario(8, 3))
        foods = {t["scenario"]["food"] for t in inputs.suite_config(7)["trials"]}
        self.assertEqual(foods, set(inputs.FOODS))

    def test_same_seed_same_suite_report(self):
        cfg = inputs.suite_config(9)
        # the two cheapest trials: an abort under disturbance, and a nominal one
        small = {**cfg, "trials": [cfg["trials"][7], cfg["trials"][0]]}
        self.assertEqual(run_suite(small).to_json(), run_suite(small).to_json())


class Tracer(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        arrays = {"names": np.array(["a.f", "b.g", "a.h"]),
                  "name_id": np.array([0, 1, 2, 1]),
                  "start": np.array([0.0, 1.0, 2.0, 5.0]),
                  "end": np.array([10.0, 3.0, 2.5, 6.0]),
                  "parent": np.array([-1, 0, 1, 0])}
        own = spans.self_times(arrays)
        self.assertEqual(own, {"a.f": 7.0, "b.g": 2.5, "a.h": 0.5})
        self.assertEqual(spans.layer_totals(own), {"a": 7.5, "b": 2.5})
        self.assertEqual(spans.call_stats(arrays, "b.g"), (2, 1.5))

    def test_install_and_remove_restore_bindings(self):
        import bitesim.harness as harness
        original = harness.step
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(harness.step, original)
        tracer.remove()
        self.assertIs(harness.step, original)


if __name__ == "__main__":
    unittest.main()

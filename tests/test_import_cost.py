"""What a process loads: no run loads scipy, whose stats module takes
most of a second to import; a wrist study's signed-rank test takes its
normal tail from comfort._ndtr. A trial also runs without
multiprocessing, which only a suite's workers need, and without
numpy.random, which only an IK restart or a drawn trace needs. Each
check runs in a fresh interpreter, since this one has long loaded
everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bitesim

SRC = str(Path(bitesim.__file__).resolve().parent.parent)


def loads(module: str, code: str) -> bool:
    """Whether module is in sys.modules after a fresh interpreter runs code."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", f"{code}\nprint({module!r} in sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1] == "True"


A_TRIAL = ("import sys, bitesim, bitesim.cli\n"
           "bitesim.run_trial(bitesim.Scenario.from_dict({'horizon_s': 0.5}))")


def test_a_trial_leaves_scipy_stats_unloaded():
    assert not loads("scipy", A_TRIAL)  # nor any other part of scipy


def test_a_trial_leaves_multiprocessing_unloaded():
    # only a suite of several trials forks workers, and it imports them itself
    assert not loads("multiprocessing", A_TRIAL)


def test_a_trial_leaves_numpy_random_unloaded():
    # its warm-started joint-log solves converge without a restart, so the
    # IK's table of restart draws is never built
    assert not loads("numpy.random", A_TRIAL)


STUDY_INPUTS = "import sys\nfrom bitesim.harness import build_study_inputs\nbuild_study_inputs()"


def test_study_inputs_load_no_scipy():
    assert not loads("scipy", STUDY_INPUTS)


def test_a_study_run_leaves_scipy_stats_unloaded(tmp_path):
    # 60 poses: enough used pairs for the normal approximation's branch
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"count": 60, "seed": 3}))
    run = ("import sys\nfrom bitesim.cli import main\n"
           f"assert main(['wrist-study', {str(study)!r}, '--out-dir', {str(tmp_path)!r}]) == 0")
    assert not loads("scipy", run)
    assert (tmp_path / "study_report.json").exists()

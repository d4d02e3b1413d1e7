"""What a process loads: a trial runs without scipy.stats, which only the
wrist study's Wilcoxon test needs and which takes about a second to
import, and without multiprocessing, which only a suite's workers need.
Each check runs in a fresh interpreter, since this one has long loaded
everything."""

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
    assert not loads("scipy.stats", A_TRIAL)


def test_a_trial_leaves_multiprocessing_unloaded():
    # only a suite of several trials forks workers, and it imports them itself
    assert not loads("multiprocessing", A_TRIAL)


def test_study_inputs_load_scipy_stats():
    assert loads("scipy.stats",
                 "import sys\nfrom bitesim.harness import build_study_inputs\nbuild_study_inputs()")

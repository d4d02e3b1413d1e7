"""What a process loads: a trial runs without scipy.stats, which only the
wrist study's Wilcoxon test needs and which takes about a second to
import. Each check runs in a fresh interpreter, since this one has long
loaded everything."""

import os
import subprocess
import sys
from pathlib import Path

import bitesim

SRC = str(Path(bitesim.__file__).resolve().parent.parent)


def loads_scipy_stats(code: str) -> bool:
    """Whether scipy.stats is in sys.modules after a fresh interpreter runs code."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code + "\nprint('scipy.stats' in sys.modules)"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-1] == "True"


def test_a_trial_leaves_scipy_stats_unloaded():
    assert not loads_scipy_stats(
        "import sys, bitesim, bitesim.cli\n"
        "bitesim.run_trial(bitesim.Scenario.from_dict({'horizon_s': 0.5}))")


def test_study_inputs_load_scipy_stats():
    assert loads_scipy_stats(
        "import sys\nfrom bitesim.harness import build_study_inputs\nbuild_study_inputs()")

"""Golden digests: sha256 of outputs that must not move by a single bit.

The values were recorded before the IK kernel was batched. A change that
alters any of them changes the study or the trial log and has to be
recorded, with its reason, in CHANGES.md.
"""

import hashlib
import json

import pytest

from bitesim.comfort import run_wrist_study
from bitesim.harness import Scenario, build_study_inputs, run_trial

STUDY_SAMPLES_SHA256 = "455ed03ac9dec2551a947634b9e7433e1890d0f45a0ecb9641b06c34cf225d0d"
STUDY_DICT_SHA256 = "d6773a5f2e9b88bd653f32fc3c9a84262df0ac1ecd44f1eb7a485f2c87bcb274"
NOMINAL_JOINTS_SHA256 = "36a638aa80223c8a1d622725b53d500b3c526726890dc6ae007c3dbd41f9f4e2"

# the report keys the digest covers; keys added later are left out
STUDY_DICT_KEYS = (
    "convergence_rate_with", "convergence_rate_without",
    "max_comfort_with", "max_comfort_without",
    "mean_comfort_with", "mean_comfort_without",
    "mean_displacement_with", "mean_displacement_without",
    "p_comfort", "p_displacement",
    "per_joint_mean_with", "per_joint_mean_without",
    "sample_count", "seed", "used_count",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def study_1000():
    return run_wrist_study(*build_study_inputs({"count": 1000}))


def test_study_samples_digest(study_1000):
    assert study_1000.samples.shape == (1000, 14)
    assert sha256(study_1000.samples.tobytes()) == STUDY_SAMPLES_SHA256


def test_study_report_digest(study_1000):
    d = study_1000.to_dict()
    kept = {k: d[k] for k in STUDY_DICT_KEYS}
    assert sha256(json.dumps(kept, sort_keys=True).encode()) == STUDY_DICT_SHA256


def test_nominal_trial_joint_log_digest():
    log = run_trial(Scenario.from_dict({})).log
    assert log.joints.shape == (101, 9)
    assert sha256(log.joints.tobytes()) == NOMINAL_JOINTS_SHA256

"""Golden digests: sha256 of outputs that must not move by a single bit.

The study and joint-log values were recorded before the IK kernel was
batched; the tick, event, report and suite values were recorded before
the 1 kHz tick loop became a flat kernel; the trajectory CSV value was
recorded before the CSV writer formatted rows in chunks; the plan
values were recorded while plans were still built one Pose per
waypoint; the sample-row and mouth-frame values were recorded while
the wrist study still built one Pose per sample and kinematics kept its
own stacked rotation forms; the resolved-config value was recorded
while scenario defaults and ranges were still declared apart; the scan
values were recorded while the samplers still took sin and cos over the
whole 2-D angle grid. A change
that alters any of them changes the study, the trial log or the configs
they run and has to be recorded, with its reason, in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from bitesim import harness
from bitesim.comfort import run_wrist_study, sample_fork_poses
from bitesim.geometry import Pose
from bitesim.harness import (Scenario, _prepare_trial, build_study_inputs,
                             export_trajectory, mouth_frame_from_position, run_suite,
                             run_trial)
from bitesim.humansim import load_food_presets
from bitesim.perception import compute_offsets, food_bounding_box, synth_depth_scan
from bitesim.presets import DEFAULT_MOUTH_POSITION, GAIN_PRESETS

STUDY_SAMPLES_SHA256 = "455ed03ac9dec2551a947634b9e7433e1890d0f45a0ecb9641b06c34cf225d0d"
STUDY_DICT_SHA256 = "d6773a5f2e9b88bd653f32fc3c9a84262df0ac1ecd44f1eb7a485f2c87bcb274"
NOMINAL_JOINTS_SHA256 = "36a638aa80223c8a1d622725b53d500b3c526726890dc6ae007c3dbd41f9f4e2"
NOMINAL_CSV_SHA256 = "eee466a86000d8747ba9d59febe6391faec10f663091b6f8ec53f420c3dbdc87"
# [x, y, z, qw, qx, qy, qz] of each of the default study's 10,000 samples
SAMPLE_ROWS_SHA256 = "43d5bacb280d417cc5179746c6c2ebf22ea0e588941e81e3bfdf4a57d228b644"
# position and orientation of the default mouth, facing the base or turned
MOUTH_FACINGS = {"base": None, "turned": [-1.0, 0.3, 0.0]}
MOUTH_FRAME_SHA256 = {
    "base": "d7a1b819232916e8fd31abf90ea3a5f6ca4f9175960ddaa1ef46d9067b3f4a69",
    "turned": "6c5cc7ba3989954374704e3601a692de765b8fd4a972ff7ff1e51018884dc2be",
}
# the resolved scenario configs of RESOLVED_SCENARIOS and the default study's inputs
RESOLVED_CONFIG_SHA256 = "ae921198f8edd9d32fcf84fa15c74ae1d45e6e7e02ea6cbe9b62245fcdb56be6"

# the noiseless scan of each bundled food at two resolutions (mm): its
# points, then its bounding box and offsets
SCAN_SHA256 = {
    ("blueberry", 0.1): "6d66d27eaddfa44fd72f8d56d3ab11a9d028f77768fdf2bc618f619021497dfe",
    ("blueberry", 0.5): "1eb50995aecd4a0774b74c2dae3f0ba943ea961b3718b464b0dfdef1581f8b2e",
    ("broccoli", 0.1): "f19e7692683de9dc5e6b3ddd647683ea2cd495a270a5bdb1e11d5a279d9e6f1f",
    ("broccoli", 0.5): "e2063e130487807b26a85424d5739201c930921c64d1e9e4c81093e1dcb68f78",
    ("carrot", 0.1): "03c44ca61a053fbd567b8e3b20a5b30eedede050bc76e41707a1ae11b68c2eaa",
    ("carrot", 0.5): "a9a3f8d1b5dcf549be53ccacd8635f16b3afdbfc53cd46dac5af12c095f3ed58",
    ("cheesecake", 0.1): "d45c38f27ede46d7bbb46079609b75918d4c7a79b429ed73c7f4c1a6294ee3c7",
    ("cheesecake", 0.5): "f126fa8d97708238bf63c2fe3dff8416c410e7b2a2737cca144f605a39f57aa3",
    ("cherry_tomato", 0.1): "425c069a335e8648f0288256e48ab4ebe83100845be00772249b062b0cbc1b2d",
    ("cherry_tomato", 0.5): "32076f5909aee3fbbf64ef5f9ba298c81b3888f6e34fda1452aca297133d9002",
    ("pineapple", 0.1): "d45c38f27ede46d7bbb46079609b75918d4c7a79b429ed73c7f4c1a6294ee3c7",
    ("pineapple", 0.5): "f126fa8d97708238bf63c2fe3dff8416c410e7b2a2737cca144f605a39f57aa3",
    ("strawberry", 0.1): "af9e19ef43b94ea03903874ed0d08b7c6761ec6b9d3dfe4d09c49bdbd2d34b38",
    ("strawberry", 0.5): "7c97815021b3bee4ab8af073f9b392733817667d856fd748483d8f8526aaaf3e",
    ("tofu", 0.1): "d45c38f27ede46d7bbb46079609b75918d4c7a79b429ed73c7f4c1a6294ee3c7",
    ("tofu", 0.5): "f126fa8d97708238bf63c2fe3dff8416c410e7b2a2737cca144f605a39f57aa3",
}

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

TICK_FIELDS = ("t", "position", "orientation", "force", "torque", "phase",
               "set_position", "set_orientation")

# the trial report keys the digests cover; keys added later are left out
TRIAL_DICT_KEYS = (
    "bite_time", "events", "food_detached", "food_taken_by_bite",
    "mean_deviation_m", "n_ticks", "outcome", "peak_force_components",
    "peak_force_n", "scenario_name", "seed", "timeout_time",
)

NOMINAL_SHA256 = {
    "t": "16ef3fd62844449d28530482c3449992177d625d2c18a81bd2c67a7b2b5f3602",
    "position": "53a517cfb85ccef662801dd970cb6bdd0cba1d623405bb0d0e6ffb8f5f33783a",
    "orientation": "64bca0f6c129e87c913eb6be1a6935b9b85818bfa12ea3bbafa3d3990e2a0712",
    "force": "ceb1e1a60c50683e0fe074c0f46bbbc853e2d6be96e6467d889e32f071d7cfc1",
    "torque": "728da382392043cdb0295399d782c80ea395dd8aa7819033b8560558054ed0a5",
    "phase": "9e4109bff6b1d83d966bee5926c9b051dce2ba6d1d08451f525a342302f42f42",
    "set_position": "657ce0d7345529ee05d57fe287ef434c10d86acbda80631de3259903a9ae62b8",
    "set_orientation": "64bca0f6c129e87c913eb6be1a6935b9b85818bfa12ea3bbafa3d3990e2a0712",
    "events": "0f1d19f5eadf5f38a42fdd21b5e9b0384c58694c9d7850bc544c32ee35766bd3",
    "report": "fa182c86b185a3f682dad4f84201920efd243bd1836f16bf4f96817dd30e207e",
}

# the three trials of acceptance test_10
PRESET_SCENARIO = {
    "seed": 424242,
    "bite": {"refuse": True},
    "mouth": {"aperture_m": 0.4, "lateral_halfwidth_m": 0.4},
    "disturbance": {"kind": "sinusoid", "amplitude_n": 0.8,
                    "period_s": 1.3, "direction": [1.0, 0.0, 0.0]},
}
PRESET_SHA256 = {
    "more_reactive": "07351e97eedd3285b9aaf84587e8412ed024b5cecbe8f1e0f8faf5211791db76",
    "ours": "596e358fc5efaf1e02cc8721a715c7a0face4c59461b20b8ad8e4b01098129b9",
    "less_reactive": "0bf10148bd5bc814b61d366db0091cc86e8b8ad03dec2bcf2d3c458fc95b3353",
}

# the suite of acceptance test_11
SUITE_CFG = {
    "name": "table_scale", "seed": 66, "repetitions": 6,
    "trials": [
        {"method": "ours"},
        {"method": "ours", "scenario": {"name": "r1", "food": "tofu"}},
        {"method": "ours", "scenario": {"name": "r2", "food": "carrot"}},
        {"method": "ours", "scenario": {"name": "r3", "food": "cherry_tomato"}},
        {"method": "ours", "scenario": {"name": "r4", "food": "blueberry"}},
        {"method": "ours", "scenario": {"name": "r5", "food": "pineapple"}},
        {"method": "ours", "scenario": {"name": "refuse", "bite": {"refuse": True}}},
        {"method": "ours", "scenario": {"name": "refuse2", "food": "carrot",
                                        "bite": {"refuse": True}}},
        {"method": "ours", "scenario": {"name": "r6", "food": "tofu",
                                        "bite": {"peak_force_n": 0.6}}},
        {"method": "ours", "scenario": {"name": "r7", "food": "pineapple",
                                        "bite": {"t_bite_s": 1.0}}},
        {"method": "ours", "scenario": {"name": "r8", "food": "blueberry",
                                        "bite": {"t_bite_s": 0.2}}},
    ],
}
SUITE_SHA256 = "eee918e48c6a7c01b8cae37ff60991df1ad54deb0c366102df19217712514ef1"

# short trials that between them take every branch of the tick loop:
# arc 1 s, entry 0.5 s, the wait from 1.5 s, retract done by about 3.6 s
SHORT = {
    "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0},
    "horizon_s": 3.5,
    "joint_log_stride": 0,
}
WIDE_MOUTH = {"aperture_m": 0.2, "lateral_halfwidth_m": 0.2}


def _spike_trace():
    # a torque and a light push on the entry turn the fork, then from
    # 1.8 s (inside the wait) a 4 N push trips the stop; the trace is
    # shorter than the trial, so its last row holds to the end
    trace = np.zeros((2000, 6))
    trace[1200:1700] = [0.0, 0.1, 0.0, 0.002, 0.0, -0.004]
    trace[1800:] = [0.0, 4.0, 0.0, 0.0, 0.0, 0.0]
    return trace.tolist()


SHORT_SCENARIOS = {
    "done": {**SHORT, "horizon_s": 4.0},
    "horizon_zero": {**SHORT, "horizon_s": 0.0},
    "scan_and_face": {**SHORT, "segments": {**SHORT["segments"], "scan_s": 0.2,
                                            "face_detect_s": 0.1}},
    "fixed_pose": {**SHORT, "transfer_mode": "fixed_pose", "horizon_s": 4.0},
    "lowpass": {**SHORT, "lowpass_cutoff_hz": 5.0,
                "disturbance": {"kind": "sinusoid", "amplitude_n": 0.6,
                                "period_s": 1.0, "direction": [0.0, 1.0, 0.0]},
                "mouth": WIDE_MOUTH},
    "safety_norm": {**SHORT, "safety_mode": "norm",
                    "disturbance": {"kind": "sinusoid", "amplitude_n": 3.2,
                                    "period_s": 3.0, "direction": [1.0, 1.0, 0.0]}},
    "safety_abort": {**SHORT,
                     "disturbance": {"kind": "sinusoid", "amplitude_n": 3.5,
                                     "period_s": 3.0, "direction": [0.0, 0.0, 1.0]}},
    "refused": {**SHORT, "bite": {"refuse": True}},
    "disturbance_sinusoid": {**SHORT, "mouth": WIDE_MOUTH,
                             "disturbance": {"kind": "sinusoid", "amplitude_n": 0.8,
                                             "period_s": 1.3,
                                             "direction": [1.0, 0.0, 0.0]}},
    "disturbance_random_walk": {**SHORT, "mouth": WIDE_MOUTH,
                                "disturbance": {"kind": "random-walk", "sigma_n": 1.0,
                                                "amplitude_n": 0.8}},
    "disturbance_array": {**SHORT, "bite": {"refuse": True},
                          "disturbance": {"kind": "array", "trace": _spike_trace()}},
    "head_sinusoid": {**SHORT, "head_perturbation": {"kind": "sinusoid",
                                                     "amplitude": 0.005, "period": 1.0}},
    "head_random_walk": {**SHORT, "head_perturbation": {"kind": "random-walk"}},
    "drop": {**SHORT, "food": "cheesecake", "mouth": WIDE_MOUTH,
             "disturbance": {"kind": "sinusoid", "amplitude_n": 0.7, "period_s": 4.0,
                             "direction": [0.0, 1.0, 0.0]}},
    "bite_takeoff": {**SHORT, "food": "blueberry", "horizon_s": 4.0},
    "teeth_contact": {**SHORT, "mouth_error_mm": [3.0, 12.0, 0.0]},
    "facing": {**SHORT, "mouth": {"facing": [-1.0, 0.3, 0.0]},
               "head_perturbation": {"kind": "sinusoid", "amplitude": 0.004,
                                     "period": 0.7, "direction": [0.0, 1.0, 1.0]}},
    "joint_log": {**SHORT, "joint_log_stride": 500},
}
SHORT_SHA256 = {
    "bite_takeoff": "6c481a8d1b237418a659517abfa30aebe2151156700372021e71f51cd55fe6ef",
    "disturbance_array": "1ace01cc7492493470b97e19855789ced47b34647b82004ebd80690e65b7d8a8",
    "disturbance_random_walk": "13722f0eba8d83a08c0b15d4a121dbe6178a50356b4af91f783f681567798c90",
    "disturbance_sinusoid": "520167e69c2f124b5c1a6f6c492c17d2f67ffe838fed3ef1a053ac8a5d10c11d",
    "done": "984da90824488588dc9fa3b6bc6b7144e7e0a1474df541f26a4a16ffc7eaaa8d",
    "drop": "7d3c75bdd1e876f00caa5f3d14e52d802085306528e57d53aff3b40788174bb9",
    "facing": "9bbd949869beeda9265667150af2236f0a78797c45f597a46129eb98878fdb19",
    "fixed_pose": "68fc1600d9556c1f0a160009d9fa3abe1585549859bfe7554463bc893fd8c7d3",
    "head_random_walk": "a9cf5093127e1cc1430310105ddf7a062be61f22750a4917c5e5c00ced275d15",
    "head_sinusoid": "7dee84892752a242dc8e3c6bcedb7eb97a9ac2a9881d3e3085fb2445630bf125",
    "horizon_zero": "c89a404d24ee66e725bef23edb89c32dc7dd5b25a0e1cde3810182dedfa59339",
    "joint_log": "22dc1de75f0caf7fd957200ba15fb9c8d8a0f1f610fa9294a55f6f255dbbf16b",
    "lowpass": "31d4faae285229c3012f50df647e0f864fc7928037704fc6e1456861ab04655d",
    "refused": "03f7ab60c3d866134187ee2059612a36a55c4ba9cfa12c8d978cf1e213dc80fc",
    "safety_abort": "5222553431b2063a9f20d1dca7567c0e33ee9b390bab12d35f43b4105a8486f1",
    "safety_norm": "5dc13e2bef263732d4090bfd6e17aa6953d0dc1c44c508b3e39bdc328feb6f7d",
    "scan_and_face": "2b6cd903e06dea2d531c1517da39d76287a832a1765a6029ab738b4a32544947",
    "teeth_contact": "b27766460083194da6ef746808ff4c4f8e1b7f772059ea8b846944db6589a1c6",
}

# the plans trials build, in both transfer modes, for the nominal mouth,
# one facing off the line to the base and one mislocated by perception
PLAN_MOUTHS = {
    "nominal": {},
    "facing": {"mouth": {"facing": [-1.0, 0.3, 0.0]}},
    "mouth_error": {"mouth_error_mm": [3.0, -2.0, 5.0]},
}
PLAN_SHA256 = {
    ("fixed_pose", "facing"): "56ea12940aa92dff9492e5c9445dd5b7522ddda6f915b6e9d6718769dc3afeff",
    ("fixed_pose", "mouth_error"):
        "72c538969095b29ad0a51ac2c3f71d79f959cd64d15d726a10096e52c08aa13b",
    ("fixed_pose", "nominal"): "b58d8bc4e473846f197d720b1ffc657cb5b1d448a7cc1fd3c588d11917c98611",
    ("in_mouth", "facing"): "d20934c2981ca2611a452015288b9aeaea766ca3a00bce22f0a1edbadc74044e",
    ("in_mouth", "mouth_error"): "85418f2cd4f2fa7593cfe11af3a63dec559acc39ce48a4f4a8650523d9b2a3d9",
    ("in_mouth", "nominal"): "20dc91adc6a11c5fd690a698114b7ac94ff4e1f88d4df99c5171cc675683d1d1",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_dict_json(report) -> str:
    d = report.to_dict()
    return json.dumps({k: d[k] for k in TRIAL_DICT_KEYS}, sort_keys=True, indent=2)


def trial_digest(report) -> str:
    """One sha256 over a trial's tick arrays, joint log, events and report."""
    h = hashlib.sha256()
    for name in TICK_FIELDS:
        h.update(getattr(report.log, name).tobytes())
    if report.log.joints is not None:
        h.update(report.log.joints.tobytes())
        h.update(report.log.joint_ticks.tobytes())
    h.update(json.dumps(report.events, sort_keys=True).encode())
    h.update(report_dict_json(report).encode())
    return h.hexdigest()


def plan_digest(plan) -> str:
    """One sha256 over a plan's times, waypoint positions and orientations
    and its segments."""
    h = hashlib.sha256()
    h.update(plan.times.tobytes())
    h.update(plan.positions.tobytes())
    h.update(plan.orientations.tobytes())
    h.update(json.dumps([[s.label, s.t_start, s.t_end] for s in plan.segments]).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def study_1000():
    return run_wrist_study(*build_study_inputs({"count": 1000}))


@pytest.fixture(scope="module")
def nominal():
    return run_trial(Scenario.from_dict({}))


def test_study_samples_digest(study_1000):
    assert study_1000.samples.shape == (1000, 14)
    assert sha256(study_1000.samples.tobytes()) == STUDY_SAMPLES_SHA256


def test_study_report_digest(study_1000):
    d = study_1000.to_dict()
    kept = {k: d[k] for k in STUDY_DICT_KEYS}
    assert sha256(json.dumps(kept, sort_keys=True).encode()) == STUDY_DICT_SHA256


def test_nominal_trial_joint_log_digest(nominal):
    log = nominal.log
    assert log.joints.shape == (101, 9)
    assert sha256(log.joints.tobytes()) == NOMINAL_JOINTS_SHA256


@pytest.mark.parametrize("name", TICK_FIELDS)
def test_nominal_tick_array_digest(nominal, name):
    assert sha256(getattr(nominal.log, name).tobytes()) == NOMINAL_SHA256[name]


def test_nominal_events_digest(nominal):
    events = json.dumps(nominal.events, sort_keys=True).encode()
    assert sha256(events) == NOMINAL_SHA256["events"]


def test_nominal_report_digest(nominal):
    assert sha256(report_dict_json(nominal).encode()) == NOMINAL_SHA256["report"]


def test_nominal_trajectory_csv_digest(nominal, tmp_path):
    path = tmp_path / "nominal.csv"
    export_trajectory(nominal.log, path)
    assert sha256(path.read_bytes()) == NOMINAL_CSV_SHA256


@pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
def test_preset_trial_digest(preset):
    report = run_trial(Scenario.from_dict({**PRESET_SCENARIO, "gain_preset": preset}))
    assert trial_digest(report) == PRESET_SHA256[preset]


@pytest.mark.parametrize("name", sorted(SHORT_SCENARIOS))
def test_short_trial_digest(name):
    report = run_trial(Scenario.from_dict(SHORT_SCENARIOS[name]))
    assert trial_digest(report) == SHORT_SHA256[name]


@pytest.mark.slow
def test_suite_report_digest(monkeypatch):
    # a suite reports outcomes only, so it solves no IK for a joint log
    monkeypatch.setattr(harness, "_log_joints", lambda *a: pytest.fail("joints logged"))
    assert sha256(run_suite(SUITE_CFG).to_json().encode()) == SUITE_SHA256


@pytest.mark.parametrize("mode, mouth", sorted(PLAN_SHA256))
def test_plan_waypoint_digest(mode, mouth):
    setup = _prepare_trial(Scenario.from_dict({**PLAN_MOUTHS[mouth], "transfer_mode": mode,
                                               "joint_log_stride": 0}))
    assert plan_digest(setup.plan) == PLAN_SHA256[mode, mouth]


def test_study_sample_rows_digest():
    poses = sample_fork_poses(build_study_inputs()[2])
    rows = np.array([np.concatenate([p.position, p.orientation]) for p in poses])
    assert rows.shape == (10000, 7)
    assert sha256(rows.tobytes()) == SAMPLE_ROWS_SHA256


def test_bundled_foods_are_the_scanned_foods():
    assert {food for food, _ in SCAN_SHA256} == set(load_food_presets())


@pytest.mark.parametrize("food, resolution", sorted(SCAN_SHA256))
def test_scan_digest(food, resolution):
    # a noiseless scan reads neither the pose nor the seed
    pose = Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
    cloud = synth_depth_scan(load_food_presets()[food], pose, resolution=resolution)
    bbox = food_bounding_box(cloud)
    offsets = compute_offsets(bbox)
    h = hashlib.sha256(cloud.points.tobytes())
    h.update(bbox.min.tobytes() + bbox.max.tobytes())
    h.update(json.dumps([offsets.dx, offsets.dy]).encode())
    assert h.hexdigest() == SCAN_SHA256[food, resolution]


@pytest.mark.parametrize("facing", sorted(MOUTH_FACINGS))
def test_mouth_frame_digest(facing):
    frame = mouth_frame_from_position(DEFAULT_MOUTH_POSITION, MOUTH_FACINGS[facing])
    assert sha256(frame.position.tobytes() + frame.orientation.tobytes()) == \
        MOUTH_FRAME_SHA256[facing]


# the scenarios whose resolved configs the digest covers: the defaults,
# each gain preset, the fixed-pose mode, a sinusoid disturbance, a
# random-walk head motion and a gain override that the preset completes
RESOLVED_SCENARIOS = [
    {}, *({"gain_preset": preset} for preset in sorted(GAIN_PRESETS)),
    {"transfer_mode": "fixed_pose"},
    {"disturbance": {"kind": "sinusoid", "amplitude_n": 0.8, "direction": [0.0, 1.0, 0.0]}},
    {"head_perturbation": {"kind": "random-walk", "sigma": 0.001}},
    {"gain_preset": "less_reactive", "entry_gains": {"k_p": [5.0, 5.0, 5.0, 0.0, 0.0, 0.0]}},
]


def resolved_study_json(study_cfg) -> str:
    """The values build_study_inputs resolves study_cfg to, as JSON."""
    chain_with, chain_without, dist, ik, comfort, home = build_study_inputs(study_cfg)
    return json.dumps([
        chain_with.name, chain_without.name, dist.center.position.tolist(),
        dist.center.orientation.tolist(), dist.translation_bounds.tolist(),
        dist.rotation_bounds.tolist(), dist.count, dist.seed,
        [ik.damping, ik.pos_tol, ik.rot_tol, ik.max_iter, ik.stall_window],
        comfort.head_position.tolist(), comfort.axis.tolist(),
        [comfort.half_angle, comfort.length, comfort.weight], home.tolist()])


def test_resolved_config_digest():
    h = hashlib.sha256()
    for overrides in RESOLVED_SCENARIOS:
        h.update(json.dumps(Scenario.from_dict(overrides).raw, sort_keys=True).encode())
    h.update(resolved_study_json({}).encode())
    assert h.hexdigest() == RESOLVED_CONFIG_SHA256

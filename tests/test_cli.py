import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitesim import cli, presets
from bitesim.cli import main
from bitesim.harness import ConfigError, Scenario, _resolve_chain

SHORT_SCENARIO = {
    "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0},
    "horizon_s": 3.5,
    "joint_log_stride": 0,
}


# a JSON document nested 100,000 deep, far past the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000
TOO_DEEP = "cannot be decoded as JSON: maximum recursion depth exceeded"


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestTrialCommand:
    def test_nominal_short(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", SHORT_SCENARIO)
        code = main(["trial", scen, "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome: success" in out
        assert (tmp_path / "out" / "nominal_report.json").exists()
        assert (tmp_path / "out" / "nominal_log.npz").exists()
        assert (tmp_path / "out" / "nominal_trajectory.csv").exists()

    def test_aborted_trial_exit_code(self, tmp_path):
        scen = write_json(tmp_path / "s.json", {
            **SHORT_SCENARIO,
            "disturbance": {"kind": "sinusoid", "amplitude_n": 3.5, "period_s": 3.0,
                            "direction": [0.0, 0.0, 1.0]},
        })
        assert main(["trial", scen, "--out-dir", str(tmp_path)]) == 3

    def test_bad_config_exit_code(self, tmp_path):
        scen = write_json(tmp_path / "s.json", {"food": "pizza"})
        assert main(["trial", scen, "--out-dir", str(tmp_path)]) == 2

    def test_sensor_fault_exit_code(self, tmp_path, capsys):
        trace = np.zeros((100, 6))
        trace[50] = np.nan  # a non-finite force reading 50 ms into the trial
        scen = write_json(tmp_path / "s.json", {
            **SHORT_SCENARIO,
            "disturbance": {"kind": "array", "trace": trace.tolist()},
        })
        assert main(["trial", scen, "--out-dir", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("sensor fault: ")
        assert "config error" not in err

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", {**SHORT_SCENARIO, "horizn_s": 3})
        assert main(["trial", scen, "--out-dir", str(tmp_path)]) == 2
        assert "unknown scenario key 'horizn_s'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"horizon_s": [1]}, {"mouth": 5}, {"segments": [1, 2]}, {"scan": None},
        {"mouth_error_mm": 3}, {"horizon_s": "ten"}, {"seed": "s"}, {"horizon_s": -1},
        {"bite": {"refuse": "no"}}, {"joint_log_stride": -250}, {"joint_log_stride": 2.5},
        {"mouth": {"facing": [0, 0]}}, {"mouth": {"facing": "x"}},
        {"impedance": {"damping": "x"}}, {"impedance": {"damping": [1, 2]}},
        {"disturbance": {"trace": "abc", "kind": "array"}},
        {"mouth_error_mm": [1, 2]}, {"mouth": {"center_position": [0, 0]}},
        {"virtual_mass": [1, 2]}, {"entry_gains": {"k_p": [1, 2]}},
        {"disturbance": {"direction": [1, 0], "kind": "sinusoid"}},
        {"head_perturbation": {"amplitude": 0.5, "kind": "sinusoid"}},
        {"lowpass_cutoff_hz": -5}, {"arc_radius_m": 0}, {"bite_threshold_n": -1},
        {"bite_timeout_s": -1}, {"mouth": {"aperture_m": -0.1}},
        {"scan": {"resolution_mm": 0}}, {"entry_depth_m": 0}, {"segments": {"entry_s": 0}},
        {"food": "pizza"}, {"transfer_mode": "teleport"}, {"safety_mode": "nrom"},
        {"chain": "nochain"},
        {"disturbance": {"direction": [0, 0, 0], "kind": "sinusoid"}},
        {"disturbance": {"period_s": 0, "kind": "sinusoid"}},
        {"head_perturbation": {"period": 0, "kind": "sinusoid"}},
        {"head_perturbation": {"direction": [0, 0, 0], "kind": "sinusoid"}},
        {"disturbance": {"amplitude_n": -1, "kind": "random-walk"}},
        {"segments": {"scan_s": -1}}, {"bite": {"t_bite_s": -1}},
        {"disturbance": {"sigma_n": -1, "kind": "random-walk"}},
        {"mouth": {"lateral_halfwidth_m": -0.01}}, {"mouth": {"stiffness": -1}},
        {"bite": {"peak_force_n": -1}}, {"entry_gains": {"k_p": [-1, 7, 7, 0, 0, 0]}},
        {"fork_pitch_deg": float("nan")}, {"mouth_error_mm": [float("nan"), 0, 0]},
        {"mouth": {"center_position": [0.55, float("nan"), 0.45]}},
        {"impedance": {"stiffness": [-1, 200, 200, 10, 10, 10]}},
        {"impedance": {"damping": [-1, 40, 40, 1, 1, 1]}}, {"arc_start_deg": float("nan")},
        {"mouth": {"facing": [float("nan"), 0, 0]}},
        {"impedance": {"damping": [0, 40, 40, 1, 1, 1]}}, {"mouth": {"facing": [0, 0, 1]}},
        {"mouth": {"center_position": [0, 0, 0.4]}}, {"mouth": {"facing": [1e200, 1e200, 0]}},
        {"seed": -1}, {"horizon_s": 1e12}, {"scan": {"resolution_mm": 1e-6}}])
    def test_bad_value_exit_code(self, tmp_path, capsys, overrides):
        (key, value), = overrides.items()
        path = f"{key}.{next(iter(value))}" if isinstance(value, dict) else key
        scen = write_json(tmp_path / "s.json", overrides)
        assert main(["trial", scen, "--out-dir", str(tmp_path)]) == 2
        assert f"config error: scenario key '{path}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [0, -1, float("nan")])
    def test_bad_integral_cap_exit_code(self, tmp_path, capsys, cap):
        scen = write_json(tmp_path / "s.json", {**SHORT_SCENARIO, "integral_cap_n": cap})
        assert main(["trial", scen, "--out-dir", str(tmp_path)]) == 2
        assert "scenario key 'integral_cap_n': integral cap must be finite" in capsys.readouterr().err

    def test_out_dir_under_a_file_exit_code(self, tmp_path, capsys):
        scen = write_json(tmp_path / "s.json", SHORT_SCENARIO)
        (tmp_path / "file").write_text("")
        assert main(["trial", scen, "--out-dir", str(tmp_path / "file" / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_preset_flag(self, tmp_path):
        scen = write_json(tmp_path / "s.json", SHORT_SCENARIO)
        code = main(["trial", scen, "--preset", "less_reactive",
                     "--out-dir", str(tmp_path)])
        assert code == 0

    def test_seed_flag_changes_report(self, tmp_path):
        scen = write_json(tmp_path / "s.json", SHORT_SCENARIO)
        main(["trial", scen, "--seed", "7", "--out-dir", str(tmp_path / "a")])
        report = json.loads((tmp_path / "a" / "nominal_report.json").read_text())
        assert report["seed"] == 7


class TestSuiteCommand:
    def test_small_suite(self, tmp_path, capsys):
        suite = write_json(tmp_path / "suite.json", {
            "name": "mini", "seed": 5, "repetitions": 2,
            "trials": [
                {"method": "ours", "scenario": SHORT_SCENARIO},
                {"method": "ours", "scenario": {**SHORT_SCENARIO,
                                                "bite": {"refuse": True}}},
            ],
        })
        assert main(["suite", suite, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ours" in out
        data = json.loads((tmp_path / "mini_suite.json").read_text())
        assert data["total"] == 4
        assert data["per_method"]["ours"]["success"] == 2
        assert data["per_method"]["ours"]["bite_failure"] == 2

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        suite = write_json(tmp_path / "suite.json", {
            "name": "mini", "seed": 5, "repetitons": 2,
            "trials": [{"method": "ours", "scenario": SHORT_SCENARIO}],
        })
        assert main(["suite", suite, "--out-dir", str(tmp_path)]) == 2
        assert "unknown suite key 'repetitons'" in capsys.readouterr().err
        assert not (tmp_path / "mini_suite.json").exists()

    @pytest.mark.parametrize("reps", [0, -1, 1000])  # 1000 x 10,001 ticks: past the bound
    def test_bad_repetitions_exit_code(self, tmp_path, capsys, reps):
        suite = write_json(tmp_path / "suite.json", {
            "seed": 5, "repetitions": reps, "trials": [{"method": "ours"}]})
        assert main(["suite", suite, "--out-dir", str(tmp_path)]) == 2
        wanted = ">= 1" if reps < 1 else "few enough for the suite's trials to take at most"
        assert f"suite key 'repetitions' must be {wanted}" in capsys.readouterr().err

    def test_suite_config_error(self, tmp_path):
        suite = write_json(tmp_path / "suite.json", {"trials": []})
        assert main(["suite", suite, "--out-dir", str(tmp_path)]) == 2


class TestWristStudyCommand:
    def test_small_study(self, tmp_path, capsys):
        study = write_json(tmp_path / "study.json", {"count": 60, "seed": 3})
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "study_report.json").read_text())
        assert report["sample_count"] == 60
        samples = (tmp_path / "study_samples.csv").read_text().splitlines()
        assert len(samples) == 61

    def test_invalid_study_exit_code(self, tmp_path):
        study = write_json(tmp_path / "study.json", {
            "count": 10, "seed": 1, "mouth_position": [10.0, 0.0, 0.45],
            "ik": {"damping": 0.02, "pos_tol": 1e-3, "rot_tol": 1e-2, "max_iter": 30},
        })
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 4

    def test_home_of_another_length_exit_code(self, tmp_path, capsys):
        study = write_json(tmp_path / "study.json", {"count": 10, "home": [0, 0]})
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: home must match the without-wrist chain DOF")

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        study = write_json(tmp_path / "study.json", {"cout": 60, "seed": 3})
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 2
        assert "config error: unknown study key 'cout'" in capsys.readouterr().err

    def test_bad_value_exit_code(self, tmp_path, capsys):
        study = write_json(tmp_path / "study.json", {"count": "many"})
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 2
        assert "config error: study key 'count' must be a whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"comfort": {"length_m": -1}}, {"comfort": {"weight": float("nan")}},
        {"comfort": {"head_offset_back_m": float("nan")}}, {"ik": {"damping": float("nan")}},
        {"count": 0}, {"translation_halfwidth_m": -0.1},
        {"rotation_halfwidth_deg": float("nan")}, {"ik": {"max_iter": -1}},
        {"comfort": {"half_angle_deg": 90}}, {"mouth_position": [float("nan"), 0, 0.4]},
        {"mouth_facing": [0, 0, 1]}, {"mouth_position": [0, 0, 0.4]}, {"count": 10**12}])
    def test_value_out_of_range_exit_code(self, tmp_path, capsys, overrides):
        (key, value), = overrides.items()
        path = f"{key}.{next(iter(value))}" if isinstance(value, dict) else key
        study = write_json(tmp_path / "study.json", {"count": 60, **overrides})
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 2
        assert f"config error: study key '{path}' must be" in capsys.readouterr().err
        assert not (tmp_path / "study_report.json").exists()

    def test_unknown_nested_key_exit_code(self, tmp_path, capsys):
        study = write_json(tmp_path / "study.json", {"count": 60, "ik": {"max_itr": 5}})
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 2
        assert "config error: unknown study key 'ik.max_itr'" in capsys.readouterr().err
        assert not (tmp_path / "study_report.json").exists()


class TestOffsetsCommand:
    def test_offsets_from_cloud(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (100, 3)) + [2.0, 0.0, 0.0]
        pts[0] = [2.0, 0.0, 0.0]
        pts[1] = [8.0, 10.0, 1.0]
        pts[2] = [2.0, 10.0, 0.0]
        path = tmp_path / "cloud.csv"
        path.write_text("# frame=mouth resolution_mm=0.1\nx_mm,y_mm,z_mm\n" + "".join(
            f"{x:.6f},{y:.6f},{z:.6f}\n" for x, y, z in np.vstack([pts, [[8.0, 0.0, 0.0]]])))
        assert main(["offsets", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dx_mm: -5.0" in out
        assert "dy_mm: -10.0" in out

    def test_empty_cloud_is_config_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# frame=mouth resolution_mm=0.1\nx_mm,y_mm,z_mm\n")
        assert main(["offsets", str(path)]) == 2

    # rows of four numbers were read as triples of the numbers in order
    @pytest.mark.parametrize("rows, line", [
        ("2,0,0,1\n8,10,1,2\n2,10,0,3\n", 3), ("1,2,3\n4,5\n", 4),
        ("1,2,3\n4,5,6,\n", 4), ("1,2,x\n", 3)])
    def test_row_without_three_numbers_is_config_error(self, tmp_path, capsys, rows, line):
        path = tmp_path / "cloud.csv"
        path.write_text("# frame=mouth resolution_mm=0.1\nx_mm,y_mm,z_mm\n" + rows)
        assert main(["offsets", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"line {line} must hold three numbers" in captured.err
        assert "dx_mm" not in captured.out


class TestExportCommand:
    def test_export_roundtrip(self, tmp_path):
        scen = write_json(tmp_path / "s.json", SHORT_SCENARIO)
        main(["trial", scen, "--out-dir", str(tmp_path)])
        out_csv = tmp_path / "re_export.csv"
        assert main(["export", str(tmp_path / "nominal_log.npz"),
                     str(out_csv)]) == 0
        direct = (tmp_path / "nominal_trajectory.csv").read_bytes()
        assert out_csv.read_bytes() == direct

    def test_missing_log_config_error(self, tmp_path):
        assert main(["export", str(tmp_path / "nope.npz"),
                     str(tmp_path / "x.csv")]) == 2

    @staticmethod
    def saved_log(tmp_path) -> dict:
        """The arrays of a short trial's saved log."""
        main(["trial", write_json(tmp_path / "s.json", {**SHORT_SCENARIO, "horizon_s": 1.2}),
              "--out-dir", str(tmp_path)])
        with np.load(tmp_path / "nominal_log.npz") as z:
            return dict(z)

    @pytest.mark.parametrize("name", ["position", "phase", "events"])
    def test_log_without_an_array_config_error(self, tmp_path, capsys, name):
        arrays = self.saved_log(tmp_path)
        del arrays[name]
        np.savez(tmp_path / "bad.npz", **arrays)
        out = tmp_path / "x.csv"
        assert main(["export", str(tmp_path / "bad.npz"), str(out)]) == 2
        assert f"lacks the array(s) {name}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda b: b"PK\x03\x04garbage", "is not a readable npz archive: File is not a zip file"),
        (lambda b: b[:len(b) // 2], "is not a readable npz archive: File is not a zip file"),
        (lambda b: b[:len(b) // 2] + bytes(64) + b[len(b) // 2 + 64:],
         "is not a readable npz archive"),
        (lambda b: None, "is not an npz archive")])
    def test_corrupt_or_truncated_log_writes_no_file(self, tmp_path, capsys, damage, message):
        main(["trial", write_json(tmp_path / "s.json", {**SHORT_SCENARIO, "horizon_s": 1.2}),
              "--out-dir", str(tmp_path)])
        bad = tmp_path / "bad.npz"
        data = damage((tmp_path / "nominal_log.npz").read_bytes())
        if data is None:  # a lone array, as np.save writes it
            with open(bad, "wb") as f:
                np.save(f, np.zeros(3))
        else:
            bad.write_bytes(data)
        out = tmp_path / "x.csv"
        assert main(["export", str(bad), str(out)]) == 2
        assert f"config error: log {str(bad)!r} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_events_writes_no_file(self, tmp_path, capsys):
        arrays = self.saved_log(tmp_path)
        arrays["events"] = np.array(DEEP)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "x.csv"
        assert main(["export", str(bad), str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: log {str(bad)!r} {TOO_DEEP}")
        assert not out.exists()

    @pytest.mark.parametrize("name, value, message", [
        ("force", lambda a: a[:-1], "log array 'force' has shape (1200, 3), want (1201, 3)"),
        ("t", lambda a: a[:, None], "log array 't' has shape (1201, 1), want one value per tick"),
        ("phase", lambda a: np.where(np.arange(len(a)) == 1100, 9, a),
         "9 is not a valid TransferPhase")])
    def test_inconsistent_log_writes_no_file(self, tmp_path, capsys, name, value, message):
        arrays = self.saved_log(tmp_path)
        arrays[name] = value(arrays[name])
        np.savez(tmp_path / "bad.npz", **arrays)
        out = tmp_path / "x.csv"
        assert main(["export", str(tmp_path / "bad.npz"), str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("trial", [1, 2], "a scenario must be an object, got [1, 2]"),
    ("trial", None, "a scenario must be an object, got None"),
    ("trial", [], "a scenario must be an object, got []"),
    ("suite", [1], "a suite must be an object, got [1]"),
    ("suite", None, "a suite must be an object, got None"),
    ("suite", [], "a suite must be an object, got []"),
    ("suite", {"seed": 1, "trials": [{"scenario": 5}]},
     "suite key 'trials[0].scenario' must be an object, got 5"),
    ("suite", {"seed": 1, "trials": [{"scenario": [1]}]},
     "suite key 'trials[0].scenario' must be an object, got [1]"),
    ("wrist-study", [1], "a study must be an object, got [1]"),
    ("wrist-study", None, "a study must be an object, got None"),
    ("wrist-study", [], "a study must be an object, got []")])
def test_config_that_is_not_an_object_exit_code(tmp_path, capsys, command, config, message):
    path = write_json(tmp_path / "config.json", config)
    assert main([command, path, "--seed", "3", "--out-dir", str(tmp_path)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def schema_keys(schema: dict):
    for key, value in schema.items():
        yield key
        if isinstance(value, dict):
            yield from schema_keys(value)


# JSON values of any shape, their keys drawn from those the configs and
# chain files read as well as at random
KEYS = sorted({*schema_keys(presets.SCENARIO), *schema_keys(presets.SUITE),
               *schema_keys(presets.SUITE_TRIAL), *schema_keys(presets.STUDY),
               "joints", "fixed_offset", "axis", "limits", "tool_tip", "has_wrist"})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=16)
# chain definitions whose joints and tool tip hold values of any shape
CHAIN_SPECS = st.fixed_dictionaries({
    "joints": st.lists(st.fixed_dictionaries(
        {key: JSON_VALUES for key in ("fixed_offset", "axis", "limits")}), max_size=2),
    "tool_tip": JSON_VALUES})


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["scenario", "suite", "study", "chain"]),
       text=(JSON_VALUES | CHAIN_SPECS).map(json.dumps))
@example(kind="scenario", text=DEEP)
@example(kind="suite", text=DEEP)
@example(kind="study", text=DEEP)
@example(kind="chain", text=DEEP)
@example(kind="chain", text="[]")
@example(kind="chain", text='{"joints": 5}')
def test_any_json_file_resolves_or_is_a_config_error(tmp_path_factory, kind, text):
    # a config file goes through cli._config and its schema's walk, a
    # chain file through _resolve_chain; any JSON either passes or raises
    # ConfigError, which the command line maps to exit code 2
    path = tmp_path_factory.getbasetemp() / f"{kind}.json"
    path.write_text(text, encoding="utf-8")
    try:
        if kind == "chain":
            _resolve_chain(str(path))
        elif kind == "scenario":
            Scenario.from_dict(cli._config(str(path), kind))
        else:
            presets.resolve(cli._config(str(path), kind), getattr(presets, kind.upper()), kind)
    except ConfigError:
        pass


@pytest.mark.parametrize("command", ["trial", "wrist-study"])
@pytest.mark.parametrize("text, message", [
    (DEEP, TOO_DEEP), ("{", "cannot be decoded as JSON: Expecting property name")],
    ids=["deep", "cut"])
def test_config_that_does_not_decode_exit_code(tmp_path, capsys, command, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main([command, str(path), "--out-dir", str(tmp_path)]) == 2
    kind = "scenario" if command == "trial" else "study"
    assert capsys.readouterr().err.startswith(f"config error: {kind} file {str(path)!r} {message}")


@pytest.mark.parametrize("command, key", [("wrist-study", "chain_with"), ("trial", "chain")])
@pytest.mark.parametrize("chain, message", [
    ("[]", "a chain must be an object whose 'joints' is a list of objects"),
    ('{"joints": 5}', "a chain must be an object whose 'joints' is a list of objects"),
    ('{"joints": [5]}', "a chain must be an object whose 'joints' is a list of objects"),
    (DEEP, f"the file {TOO_DEEP}")], ids=["list", "int", "ints", "deep"])
def test_chain_file_of_another_shape_exit_code(tmp_path, capsys, command, key, chain, message):
    chain_path = tmp_path / "c.json"
    chain_path.write_text(chain)
    config = write_json(tmp_path / "config.json", {key: str(chain_path), "count": 10}
                        if command == "wrist-study" else {**SHORT_SCENARIO, key: str(chain_path),
                                                          "joint_log_stride": 100})
    assert main([command, config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot resolve chain {str(chain_path)!r}: {message}")


@pytest.mark.parametrize("command, stride", [("trial", 0), ("trial", 10), ("suite", 0)])
def test_missing_chain_file_exit_code(tmp_path, capsys, command, stride):
    # a chain that cannot be read fails whether or not joints are logged
    chain = str(tmp_path / "missing.json")
    scenario = {"chain": chain, "joint_log_stride": stride, "horizon_s": 0.5}
    config = write_json(tmp_path / "config.json", scenario if command == "trial" else
                        {"seed": 1, "trials": [{"scenario": scenario}]})
    assert main([command, config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot resolve chain {chain!r}")
    assert "Traceback" not in err

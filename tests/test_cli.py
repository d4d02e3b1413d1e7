import json

import numpy as np
import pytest

from bitesim.cli import main
from bitesim.perception import PointCloud, save_cloud

SHORT_SCENARIO = {
    "segments": {"arc_s": 1.0, "entry_s": 0.5, "exit_s": 0.5, "retract_s": 1.0},
    "horizon_s": 3.5,
    "joint_log_stride": 0,
}


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
        {"bite": {"refuse": "no"}}, {"joint_log_stride": -250}, {"joint_log_stride": 2.5}])
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

    @pytest.mark.parametrize("reps", [0, -1])
    def test_bad_repetitions_exit_code(self, tmp_path, capsys, reps):
        suite = write_json(tmp_path / "suite.json", {
            "seed": 5, "repetitions": reps, "trials": [{"method": "ours"}]})
        assert main(["suite", suite, "--out-dir", str(tmp_path)]) == 2
        assert "suite key 'repetitions' must be >= 1" in capsys.readouterr().err

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

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        study = write_json(tmp_path / "study.json", {"cout": 60, "seed": 3})
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 2
        assert "config error: unknown study key 'cout'" in capsys.readouterr().err

    def test_bad_value_exit_code(self, tmp_path, capsys):
        study = write_json(tmp_path / "study.json", {"count": "many"})
        assert main(["wrist-study", study, "--out-dir", str(tmp_path)]) == 2
        assert "config error: study key 'count' must be a whole number" in capsys.readouterr().err

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
        save_cloud(PointCloud(np.vstack([pts, [[8.0, 0.0, 0.0]]])), path)
        assert main(["offsets", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dx_mm: -5.0" in out
        assert "dy_mm: -10.0" in out

    def test_empty_cloud_is_config_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# frame=mouth resolution_mm=0.1\nx_mm,y_mm,z_mm\n")
        assert main(["offsets", str(path)]) == 2


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

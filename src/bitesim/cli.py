"""Command-line front end.

Subcommands: trial, suite, wrist-study, offsets, export. Exit codes:
0 success, 2 config error (a bad value, or an input or output file that
cannot be read or written), 3 trial aborted by the safety stop, 4 study
invalid (convergence below the statistics gate), 5 sensor fault (a
non-finite force measurement during a trial). Every error a command
raises is mapped to its code in one place, main.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .comfort import StudyInvalidError, run_wrist_study
from .controller import SensorFault
from .harness import (ConfigError, Scenario, build_study_inputs, export_trajectory,
                      run_suite, run_trial, save_log)
from .perception import compute_offsets, food_bounding_box, load_cloud
from .presets import GAIN_PRESETS, load_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORTED = 3
EXIT_STUDY_INVALID = 4
EXIT_SENSOR_FAULT = 5

# the exit code and message prefix of each error a command may raise, the
# first match winning (SensorFault, ConfigError and EmptyCloudError are
# ValueErrors)
_ERROR_EXITS = {
    SensorFault: (EXIT_SENSOR_FAULT, "sensor fault"),
    StudyInvalidError: (EXIT_STUDY_INVALID, "study invalid"),
    ValueError: (EXIT_CONFIG, "config error"),
    OSError: (EXIT_CONFIG, "config error"),
}


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config(path, kind: str, **flags):
    """The JSON config in path ({} without one) updated with the flags that
    are set; a file that holds no object is a ConfigError naming the kind."""
    cfg = {}
    if path:
        cfg = load_json(Path(path).read_text(encoding="utf-8"), f"{kind} file {str(path)!r}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"a {kind} must be an object, got {cfg!r}")
    return {**cfg, **{key: value for key, value in flags.items() if value is not None}}


def cmd_trial(args) -> int:
    scenario = Scenario.from_dict(_config(args.scenario, "scenario",
                                          gain_preset=args.preset, seed=args.seed))
    t0 = time.perf_counter()
    report = run_trial(scenario)
    wall = time.perf_counter() - t0

    out = _out_dir(args)
    name = report.scenario_name
    (out / f"{name}_report.json").write_text(report.to_json(), encoding="utf-8")
    save_log(report.log, out / f"{name}_log.npz")
    export_trajectory(report.log, out / f"{name}_trajectory.csv")

    print(f"outcome: {report.outcome}")
    print(f"ticks: {report.n_ticks}  wall: {wall:.2f}s  peak |F|: {report.peak_force_n:.3f} N")
    if report.bite_time is not None:
        print(f"bite at t={report.bite_time:.3f}s")
    if report.timeout_time is not None:
        print(f"bite wait timed out at t={report.timeout_time:.3f}s")
    print(f"wrote {name}_report.json, {name}_log.npz, {name}_trajectory.csv in {out}")
    return EXIT_ABORTED if report.outcome == "aborted" else EXIT_OK


def cmd_suite(args) -> int:
    report = run_suite(_config(args.suite, "suite", seed=args.seed))
    out = _out_dir(args)
    (out / f"{report.name}_suite.json").write_text(report.to_json(), encoding="utf-8")
    print(report.table())
    print(f"wrote {report.name}_suite.json in {out}")
    return EXIT_OK


def cmd_wrist_study(args) -> int:
    inputs = build_study_inputs(_config(args.study, "study", seed=args.seed))
    t0 = time.perf_counter()
    report = run_wrist_study(*inputs)
    wall = time.perf_counter() - t0

    out = _out_dir(args)
    (out / "study_report.json").write_text(report.to_json(), encoding="utf-8")
    report.write_samples_csv(out / "study_samples.csv")

    print(f"samples: {report.sample_count}  used: {report.used_count}  wall: {wall:.1f}s")
    print(f"convergence: with={report.convergence_rate_with:.1%} "
          f"without={report.convergence_rate_without:.1%}")
    print(f"mean arm displacement: with={report.mean_displacement_with:.4f} rad "
          f"without={report.mean_displacement_without:.4f} rad "
          f"(p={report.p_displacement:.2e})")
    print(f"mean comfort cost: with={report.mean_comfort_with:.4f} "
          f"without={report.mean_comfort_without:.4f} (p={report.p_comfort:.2e})")
    print(f"wrote study_report.json, study_samples.csv in {out}")
    return EXIT_OK


def cmd_offsets(args) -> int:
    offsets = compute_offsets(food_bounding_box(load_cloud(args.cloud)))
    print(f"dx_mm: {offsets.dx}")
    print(f"dy_mm: {offsets.dy}")
    return EXIT_OK


def cmd_export(args) -> int:
    export_trajectory(args.log, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitesim",
        description="Simulated in-mouth bite transfer: trials, suites, wrist study.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trial", help="run one transfer trial")
    p.add_argument("scenario", nargs="?", help="scenario JSON (defaults to nominal)")
    p.add_argument("--preset", choices=list(GAIN_PRESETS),
                   help="gain preset override")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("suite", help="run a batch of trials")
    p.add_argument("suite", help="suite JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("wrist-study", help="run the wrist comparison study")
    p.add_argument("study", nargs="?", help="study JSON (defaults bundled)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_wrist_study)

    p = sub.add_parser("offsets", help="food offsets from a cloud CSV")
    p.add_argument("cloud", help="point cloud CSV (mouth frame, mm)")
    p.set_defaults(func=cmd_offsets)

    p = sub.add_parser("export", help="export a saved log as CSV")
    p.add_argument("log", help="trial log .npz")
    p.add_argument("out", help="output CSV path")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_ERROR_EXITS) as e:
        code, prefix = next(v for kind, v in _ERROR_EXITS.items() if isinstance(e, kind))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:
  run       run a scenario and write track/theta/summary CSVs
  sweep     run a scenario for several values of one config key
  build-db  generate the fingerprint database CSV for a scenario
  compare   run several modes on paired seeds and tabulate the summaries
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import yaml

from .errors import EmptyInput, InvalidScenario, LocalizationError
from .harness import aggregate, run_scenario, scenario_db, write_report_files, write_summary_csv
from .scenario import load_scenario, parse_mode


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario YAML file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--trials", type=int, default=None, help="override the trial count")
    p.add_argument("--out", default="out", help="output directory")


def _items(text: str, option: str) -> list:
    """The comma-separated items of an option's value; none raises EmptyInput."""
    items = [v.strip() for v in text.split(",") if v.strip()]
    if not items:
        raise EmptyInput(f"{option} lists no items: {text!r}")
    return items


def _load(args, swept=None):
    """The --scenario file with --seed and --trials applied, then a sweep's
    own key, so that a swept seed or trials wins over the flag and is
    checked as the file's value would be."""
    overrides = {key: value for key, value in (("seed", args.seed), ("trials", args.trials))
                 if value is not None}
    overrides.update(swept or {})
    return load_scenario(args.scenario, overrides)


def _run_all(runs, out_dir, report_files: bool = False) -> int:
    """Run each (label, scenario), print its summary line and write summary.csv.

    Callers build every scenario first, so a bad one stops before any run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, s in runs:
        reports = run_scenario(s)
        if report_files:
            write_report_files(reports, out)
        summary = aggregate(reports)
        rows.append((label, summary))
        theta = ("-" if summary.theta_std_median is None
                 else f"{math.degrees(summary.theta_std_median):.2f} deg")
        print(f"{label}: trials={summary.trials} "
              f"rmse_median={summary.rmse_median:.4f} m "
              f"rmse_mean={summary.rmse_mean:.4f} m theta_std={theta} "
              f"tdoa_fallbacks={summary.tdoa_fallbacks}")
    write_summary_csv(rows, out / "summary.csv")
    return 0


def _cmd_run(args) -> int:
    s = _load(args)
    return _run_all([(s.name, s)], args.out, report_files=True)


def _cmd_sweep(args) -> int:
    runs = []
    for v in _items(args.values, "--values"):
        try:
            value = yaml.safe_load(v)  # read as a scenario file would read it
        except yaml.YAMLError:
            raise InvalidScenario(f"--values item {v!r} is not a YAML value") from None
        runs.append((f"{args.param}={v}", _load(args, {args.param: value})))
    return _run_all(runs, args.out)


def _cmd_build_db(args) -> int:
    s = _load(args)
    db = scenario_db(s)
    out = Path(args.out)
    if out.suffix != ".csv":
        out.mkdir(parents=True, exist_ok=True)
        out = out / "fingerprints.csv"
    db.to_csv(out)
    print(f"wrote {len(db)} reference points to {out}")
    return 0


def _cmd_compare(args) -> int:
    modes = [parse_mode(m) for m in _items(args.modes, "--modes")]
    base = _load(args)
    return _run_all([(mode.value, base.with_mode(mode)) for mode in modes], args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssdloc",
        description="TDOA-assisted RSSD indoor localization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario")
    _common_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="vary one scenario key")
    _common_args(p)
    p.add_argument("--param", required=True,
                   help="dotted config path, e.g. waypoint.update_rate")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("build-db", help="write the fingerprint database CSV")
    _common_args(p)
    p.set_defaults(func=_cmd_build_db)

    p = sub.add_parser("compare", help="run several modes on paired seeds")
    _common_args(p)
    p.add_argument("--modes", required=True,
                   help="comma-separated mode names, e.g. SIM_RSSD,SIM_RSSD_TDOA")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LocalizationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

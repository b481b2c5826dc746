"""Command-line interface.

One verb per pipeline plus the acceptance driver:

    moneygas analytic  -c config.json -o outdir
    moneygas simulate  -c config.json -o outdir
    moneygas transform -c config.json -o outdir
    moneygas pareto    -c config.json -o outdir
    moneygas sweep     -c config.json -o outdir
    moneygas check     -r report.json -e expectations.json

Exit codes: 0 success, 1 acceptance failure, 2 an input that cannot be run.
Relative output paths resolve under $MONEYGAS_OUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, load_config
from .ensembles import MoneygasError
from .runner import compare_report, run_experiment


def _add_run_command(subparsers, name: str, help_text: str) -> None:
    parser = subparsers.add_parser(name, help=help_text)
    parser.add_argument("-c", "--config", required=True, help="path to the JSON configuration")
    parser.add_argument("-o", "--out", default=None, help="output directory (default: config 'outputs' or ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moneygas", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_command(subparsers, "analytic", "closed-form states and identity residuals")
    _add_run_command(subparsers, "simulate", "exchange-chain runs with fits and KS checks")
    _add_run_command(subparsers, "transform", "cycles, reserve relations, identity grids")
    _add_run_command(subparsers, "pareto", "power-law income ensemble pipelines")
    _add_run_command(subparsers, "sweep", "grid of runs over parameter overrides")
    check = subparsers.add_parser("check", help="compare a report against expectations")
    check.add_argument("-r", "--report", required=True, help="path to report.json")
    check.add_argument("-e", "--expect", required=True, help="path to the expectations JSON")
    return parser


def _run_task(command: str, config_path: str, out: str | None) -> int:
    config = load_config(config_path)
    if config.task != command:
        raise ConfigError(f"configuration task {config.task!r} does not match command {command!r}")
    out_dir = out or config.outputs or "out"
    manifest = run_experiment(config, out_dir)
    files = manifest.get("files", {})
    if files:
        for name in sorted(files):
            print(f"wrote {name} ({files[name][:15]}...)")
    else:
        print(f"ran {len(manifest.get('runs', []))} sweep runs")
    return 0


def _run_check(report_path: str, expect_path: str) -> int:
    try:
        report = json.loads(open(report_path).read())
        expectations = json.loads(open(expect_path).read())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read inputs: {exc}") from exc
    failures = compare_report(report, expectations)
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    print("all expectations satisfied")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args.report, args.expect)
        return _run_task(args.command, args.config, args.out)
    except MoneygasError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

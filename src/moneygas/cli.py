"""Command-line interface.

One verb per entry of the task table (``runner.TASKS``) plus the
acceptance driver:

    moneygas VERB  -c config.json -o outdir
    moneygas check -r report.json -e expectations.json

Exit codes: 0 success, 1 acceptance failure, 2 an input that cannot be run
(invalid, or too large for the available memory).
Relative output paths resolve under $MONEYGAS_OUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError
from .ensembles import MoneygasError
from .runner import TASKS, compare_report, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moneygas", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for verb, task in TASKS.items():
        run = subparsers.add_parser(verb, help=task.help)
        run.add_argument("-c", "--config", required=True, help="path to the JSON configuration")
        run.add_argument("-o", "--out", default=None, help="output directory (default: config 'outputs' or ./out)")
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
        report = json.loads(Path(report_path).read_text())
        expectations = json.loads(Path(expect_path).read_text())
    except (OSError, ValueError) as exc:
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
    except MemoryError as exc:
        print(f"configuration error: the run does not fit in memory: {str(exc) or 'MemoryError'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME --runs 10 [--first-seed 1] [--seconds 30]

Runs ``bench/run.py --trace 0`` once per seed (first-seed, first-seed + 1,
...), one run at a time, and prints for each metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the bound in ``BENCHMARK.json`` when the checkout has one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()

    bounds = {}
    spec = Path("BENCHMARK.json")
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<40}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("nan")
        print(f"{name:<40}{mid:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{bounds.get(name, float('nan')):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's own output checks and workload generator.

    python3 bench/selftest.py

Writes small synthetic pipeline outputs under ``.bench_out/selftest`` and
asserts that the checks pass on clean outputs and catch a tampered output
byte, an ``np.float64(...)`` value row (as the known defect), a garbled row
and a value that moves the mean (as wrong results). Where the checkout has the
shipped ``configs/``, it also asserts that the default seed reproduces
``configs/cash_only_simulate.json`` and ``configs/pareto_full.json``.
Needs no moneygas import; exits 1 on the first failed assertion.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

from checks import check_ks, content_checks
from workloads import DEFAULT_SEED, income_pareto, samples_io

VALUES = [1.5796501883886407, 0.25, 12.0, 3.0000000000000004, 7.5, 0.125]


def write_outputs(out: Path, task: str, csv_values: list[str]) -> None:
    """A report, samples.csv and a manifest with correct digests, as the runner lays them out."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    floats = [float(v) for v in VALUES]
    if task == "simulate":
        report = {"task": "simulate", "model": {"kind": "cash_only"},
                  "replicas": [{"max_drift": 0.0, "mean_money_per_agent": math.fsum(floats) / len(floats)}],
                  "aggregate": {"rel_error": 0.01}}
        coord = "x"
    else:
        report = {"task": "pareto", "pareto": {"floor_j": 0.125},
                  "dynamics": {"y_drift": 0.0,
                               "theta": math.fsum(math.log(v / 0.125) for v in floats) / len(floats)}}
        coord = "income"
    rows = [f"{5000 * (1 + i // 3)},{i % 3},{coord},{v}" for i, v in enumerate(csv_values)]
    files = {"report.json": json.dumps(report).encode(),
             "samples.csv": ("step,agent,coord_name,value\n" + "\n".join(rows) + "\n").encode()}
    digests = {}
    for name, data in files.items():
        (out / name).write_bytes(data)
        digests[name] = "sha256:" + hashlib.sha256(data).hexdigest()
    (out / "manifest.json").write_text(json.dumps({"files": digests}))


def failing(out: Path) -> list[str]:
    return sorted(c.name for c in content_checks("row", out) if not c.ok)


def main() -> int:
    root = Path.cwd() / ".bench_out" / "selftest"
    clean = [repr(v) for v in VALUES]
    try:
        for task in ("simulate", "pareto"):
            write_outputs(root / task, task, clean)
            assert failing(root / task) == [], (task, failing(root / task))

            csv = root / task / "samples.csv"
            data = bytearray(csv.read_bytes())
            data[-3] = ord("9") if data[-3] != ord("9") else ord("8")
            csv.write_bytes(bytes(data))
            assert "row.digests" in failing(root / task), f"{task}: tampered byte not caught"

            wrapped = clean[:2] + [f"np.float64({clean[2]})"] + clean[3:]
            write_outputs(root / task, task, wrapped)
            assert failing(root / task) == ["row.samples_csv_literal"], (task, failing(root / task))
            assert not any(c.gates for c in content_checks("row", root / task) if not c.ok), task

            garbled = clean[:2] + [clean[2].replace(".", ",", 1)] + clean[3:]
            write_outputs(root / task, task, garbled)
            failed = [c for c in content_checks("row", root / task) if not c.ok]
            assert sorted(c.name for c in failed) == ["row.samples_csv_literal", "row.samples_csv_mean"], (
                task, failed)
            assert all(c.gates for c in failed), f"{task}: a garbled row was taken for the known defect"

            shifted = clean[:-1] + [repr(VALUES[-1] * 2)]
            write_outputs(root / task, task, shifted)
            assert failing(root / task) == ["row.samples_csv_mean"], (task, failing(root / task))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # One replica of forty missing the 1 % KS level is chance; five is not.
    assert not check_ks([False]).gates and check_ks([True] * 35 + [False] * 5).gates

    shipped = Path.cwd() / "configs"
    pairs = (("cash_only_simulate.json", samples_io), ("pareto_full.json", income_pareto))
    for name, make in pairs:
        if (shipped / name).is_file():
            assert json.loads((shipped / name).read_text()) == make(DEFAULT_SEED)[0][2], name
            print(f"default seed reproduces configs/{name}")
        else:
            print(f"configs/{name} not in this checkout; comparison skipped")
    print("selftest: tampered byte, np.float64 row, garbled row and moved mean are each caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())

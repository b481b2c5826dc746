"""Output checks: does what a pipeline wrote parse and mean what its report says?

Each check yields a ``Check``; the benchmark counts them for ``fail_rate``
and prints the names of the ones that failed. The thresholds are the
repository's acceptance gates and are not tuned to the benchmark's data.
Two kinds of failure do not make a run's ``correct`` false (``gates`` is
False):

- The program's known defect: with numpy >= 2 both sample writers format
  ``np.float64`` scalars with ``!r``, so value rows read
  ``np.float64(1.57...)`` (ROADMAP item 2). ``samples_csv_literal`` stays as
  strict as that and fails on it. ``samples_csv_mean`` still reads every
  value (bare or in that one wrapper) and requires the pooled mean to match
  the report, and any other malformed row fails it; it always gates.
- A KS shortfall that a correct program shows too often. Each replica's KS
  verdict is a test at the 1 % level, so a correct program misses it on
  some seeds (seeds 301 and 1008 of ``samples-io`` do). ``ks_pass_fraction`` gates
  only when so many replicas fail that a correct program would do so with
  a chance below ``KS_GATE_CHANCE``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from array import array
from pathlib import Path
from typing import NamedTuple

DRIFT_LIMIT = 1e-9
KS_PASS_FRACTION = 0.95
REL_ERROR_LIMIT = 0.03
MEAN_RTOL = 1e-9
KS_LEVEL = 0.01
KS_GATE_CHANCE = 1e-4

# What float repr() writes: no np.float64(...) wrapper, no underscores, no spaces.
PLAIN = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan"
PLAIN_FLOAT = re.compile(PLAIN)
# What numpy >= 2 repr() of a float64 scalar writes: the known writer defect.
WRAPPED_FLOAT = re.compile(rf"np\.float64\(({PLAIN})\)")


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    # False for a failure that is reported but does not make the run incorrect.
    gates: bool = True


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def load_manifest(out_dir: Path) -> dict | None:
    try:
        return json.loads((out_dir / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def check_digests(row: str, out_dir: Path, manifest: dict) -> Check:
    bad = [name for name, digest in sorted(manifest["files"].items())
           if not (out_dir / name).is_file() or sha256_file(out_dir / name) != digest]
    return Check(f"{row}.digests", not bad, f"mismatch: {bad}" if bad else "")


def read_samples_csv(path: Path) -> tuple[dict[str, array] | None, str, str]:
    """Values of a long-format samples.csv per coordinate.

    Returns (values, first wrapped row, why). A value may be a plain float
    literal or one ``np.float64(...)`` around one; the first row written the
    second way is returned so the literal check can name it. Any other row
    gives values None and why.
    """
    values: dict[str, array] = {}
    wrapped = ""
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
        if header != "step,agent,coord_name,value":
            return None, wrapped, f"header {header!r}"
        for number, line in enumerate(handle, start=2):
            fields = line.rstrip("\n").split(",")
            literal = fields[3] if len(fields) == 4 else ""
            if not PLAIN_FLOAT.fullmatch(literal):
                match = WRAPPED_FLOAT.fullmatch(literal)
                if match is None:
                    return None, wrapped, f"line {number} is not 'step,agent,name,<float>': {line.strip()!r}"
                literal = match.group(1)
                wrapped = wrapped or f"line {number}: {line.strip()!r}"
            values.setdefault(fields[2], array("d")).append(float(literal))
    if not values:
        return None, wrapped, "no value rows"
    return values, wrapped, ""


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= MEAN_RTOL * max(abs(want), 1e-300)


def check_samples_csv(row: str, out_dir: Path, report: dict) -> list[Check]:
    """Every value is a plain float literal; every value parses and the pooled mean matches."""
    values, wrapped, why = read_samples_csv(out_dir / "samples.csv")
    known = values is not None and bool(wrapped)
    literal = Check(f"{row}.samples_csv_literal", values is not None and not wrapped,
                    f"known defect (ROADMAP item 2), not a plain float literal, {wrapped}"
                    if known else why, gates=not known)
    name = f"{row}.samples_csv_mean"
    if values is None:
        return [literal, Check(name, False, why)]
    means = {coord: math.fsum(v) / len(v) for coord, v in values.items()}
    if report["task"] == "pareto":
        floor = report["pareto"]["floor_j"]
        logs = [math.log(x / floor) for v in values.values() for x in v]
        got, want = math.fsum(logs) / len(logs), report["dynamics"]["theta"]
    else:
        kind = report["model"]["kind"]
        pooled = math.fsum(math.fsum(v) for v in values.values()) / sum(map(len, values.values()))
        if kind in ("combined", "restricted"):
            got = sum(means.values())
        elif kind == "multi_asset":
            got = pooled * report["model"]["asset_classes"]
        else:
            got = pooled
        want = report["replicas"][0]["mean_money_per_agent"]
    return [literal, Check(name, _close(got, want), f"csv mean {got!r} vs report {want!r}")]


def content_checks(row: str, out_dir: Path) -> list[Check]:
    """Checks on what one pipeline run wrote (everything but the exit code)."""
    manifest = load_manifest(out_dir)
    if manifest is None:
        return [Check(f"{row}.manifest", False, "manifest.json missing or unreadable")]
    checks = [check_digests(row, out_dir, manifest)]
    report = json.loads((out_dir / "report.json").read_text())
    if report["task"] == "simulate":
        drifts = [r["max_drift"] for r in report["replicas"]]
        checks.append(Check(f"{row}.max_drift", max(drifts) <= DRIFT_LIMIT, f"max {max(drifts)!r}"))
        rel = report["aggregate"]["rel_error"]
        checks.append(Check(f"{row}.rel_error", rel <= REL_ERROR_LIMIT, f"{rel!r}"))
    else:
        drift = report["dynamics"]["y_drift"]
        checks.append(Check(f"{row}.max_drift", drift <= DRIFT_LIMIT, f"{drift!r}"))
    if "samples.csv" in manifest["files"]:
        checks += check_samples_csv(row, out_dir, report)
    return checks


def ks_passes(out_dir: Path) -> list[bool]:
    """Per-replica KS verdicts on the primary marginal of a simulate report."""
    report = json.loads((out_dir / "report.json").read_text())
    primary = report["aggregate"]["primary_coord"]
    return [r["fits"][primary]["ks_pass_1pct"] for r in report["replicas"]]


def chance_of_failures(replicas: int, failures: int) -> float:
    """Chance that a correct program fails at least this many KS verdicts."""
    return sum(math.comb(replicas, k) * KS_LEVEL**k * (1 - KS_LEVEL) ** (replicas - k)
               for k in range(failures, replicas + 1))


def check_ks(passes: list[bool]) -> Check:
    if not passes:
        return Check("ks_pass_fraction", False, "no KS verdicts")
    chance = chance_of_failures(len(passes), passes.count(False))
    return Check("ks_pass_fraction", sum(passes) / len(passes) >= KS_PASS_FRACTION,
                 f"{sum(passes)}/{len(passes)} replicas pass; a correct program fails "
                 f"this many or more with chance {chance:.2g}", gates=chance < KS_GATE_CHANCE)

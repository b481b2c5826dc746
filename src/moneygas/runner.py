"""Experiment runner: the task table, deterministic pipelines, reports, manifests.

``TASKS`` holds one entry per CLI verb: its help line, the schema of its
configuration document, the cross-field check run after the schema, and its
pipeline. Every run writes ``report.json`` (and task-specific CSV/TSV
companions) followed by ``manifest.json`` carrying the configuration echo,
the implementation version, the derived per-replica seeds and SHA-256
digests of every written file. Nothing in the outputs depends on wall-clock
time, so re-running a configuration reproduces the bytes exactly.

A pipeline hands each companion file over as bytes or as an iterable of
byte chunks; ``samples.csv`` is formatted a block of records at a time, in
the run's process, while it is written and hashed, so it is never held whole
in memory.

The replicas of ``simulate`` run on two cores through one forked worker
process (``worker``): the worker runs the odd replicas and sends back their
reports. Each replica is a pure function of its seed, so the outputs are the
same as from one process.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .config import (
    MAX_REPLICAS,
    ConfigError,
    boolean,
    build_model,
    build_pareto,
    check_array_size,
    check_document,
    check_window,
    get_by_path,
    integer,
    items,
    json_object,
    number,
    positive_numbers,
    set_by_path,
    string,
)
from .dynamics import KERNELS, SampleSet, run_chain
from .ensembles import (
    ModelSpec,
    MoneygasError,
    model_volume,
    temperature_closed_form,
    thermo_state,
)
from .estimation import (
    finite_diff_thermo_residuals,
    fit_shifted_exponential,
    hill_default_k,
    hill_tail_index,
    histogram,
    ks_statistic_exponential,
)
from .pareto import (
    pareto_direct_sample,
    pareto_entropy,
    pareto_log_partition,
    pareto_mean_logincome,
    pareto_mean_logincome_sampling,
    run_income_chain,
    temperature_from_log_excess,
    transition_scan,
)
from .transform import (
    carnot_cycle,
    first_law_residual,
    fractional_reserve,
    gibbs_duhem_residual,
    isothermal_base,
    path_table,
    policy_bound_check,
)
from .worker import interleaved

_MASK64 = (1 << 64) - 1
# Recorded values formatted per samples.csv chunk (about 1 MB of CSV).
CSV_BLOCK_VALUES = 1 << 15
# Relative step of the finite-difference identity checks.
FD_STEP = 1e-5

# A companion file: its bytes, or byte chunks to be written in order.
FileData = bytes | Iterable[bytes]


def derive_seed(base_seed: int, index: int) -> int:
    """Replica seed = splitmix64(base_seed + (index+1) * golden-gamma).

    A pure, documented function of (base seed, replica index); distinct
    indices give distinct streams.
    """
    x = (base_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _replica_report(spec: ModelSpec, run_block: dict, seed: int, predicted: float) -> tuple[dict, SampleSet]:
    samples = run_chain(
        spec,
        run_block["policy"],
        float(run_block["total"]),
        int(run_block["steps"]),
        run_block.get("burn_in"),
        run_block.get("thin"),
        seed=seed,
    )
    kernel = KERNELS[spec.kind]
    fits = {}
    for label, names, floor in kernel.marginals(spec):
        data = samples.pooled(names)
        fit = fit_shifted_exponential(data, floor)
        ks_d, ks_ok = ks_statistic_exponential(data, floor, predicted)
        fits[label] = {
            "t_hat": fit.t_hat,
            "stderr": fit.stderr,
            "floor": floor,
            "n": fit.n,
            "ks_d": ks_d,
            "ks_pass_1pct": ks_ok,
        }
    report = {
        "seed": seed,
        "fits": fits,
        "mean_money_per_agent": kernel.money_per_agent(spec, samples.coords),
        "max_drift": samples.meta.max_drift,
        "rejected_events": samples.meta.rejected_events,
        "events_run": samples.meta.events_run,
        "n_records": samples.n_records,
    }
    return report, samples


def _tsv(header: tuple[str, ...], rows) -> bytes:
    lines = ["\t".join(header), *("\t".join(map(repr, row)) for row in rows)]
    return ("\n".join(lines) + "\n").encode()


def _csv_chunks(samples, values_per_record: int) -> Iterator[bytes]:
    """``samples.csv_bytes`` over consecutive record ranges of about
    CSV_BLOCK_VALUES values, in file order; the chunks concatenate to
    ``csv_bytes()``."""
    block = max(1, CSV_BLOCK_VALUES // values_per_record)
    for start in range(0, max(samples.n_records, 1), block):  # no records: the header alone
        yield samples.csv_bytes(start, start + block)


def _run_simulate(raw: dict) -> tuple[dict, list[int], dict[str, FileData]]:
    spec = build_model(raw["model"])
    run_block = raw["run"]
    replicas = raw.get("replicas", 1)
    predicted = temperature_closed_form(spec, float(run_block["total"]))
    write_samples = raw.get("write_samples", True)
    seeds = [derive_seed(raw.get("seed", 0), i) for i in range(replicas)]

    def replica(index: int) -> tuple[dict, SampleSet | None]:
        report, samples = _replica_report(spec, run_block, seeds[index], predicted)
        return report, samples if index == 0 and write_samples else None

    # The even replicas run here, the odd ones in the forked worker, which
    # sends back only their reports. Only replica 0's samples are kept, and
    # only when they are written.
    results = list(interleaved(replica, range(replicas)))
    replica_reports, first_samples = [report for report, _ in results], results[0][1]

    primary, primary_names, _ = KERNELS[spec.kind].marginals(spec)[0]
    t_hats = [r["fits"][primary]["t_hat"] for r in replica_reports]
    ks_passes = [r["fits"][primary]["ks_pass_1pct"] for r in replica_reports]
    t_hat_mean = float(np.mean(t_hats))
    report = {
        "task": "simulate",
        "model": raw["model"],
        "run": {
            "policy": run_block["policy"],
            "total": run_block["total"],
            "steps": run_block["steps"],
            "burn_in": run_block.get("burn_in"),
            "thin": run_block.get("thin"),
        },
        "closed_form_temperature": predicted,
        "replicas": replica_reports,
        "aggregate": {
            "primary_coord": primary,
            "t_hat": t_hat_mean,
            "rel_error": abs(t_hat_mean - predicted) / predicted,
            "ks_pass_fraction": float(np.mean(ks_passes)),
            "replicas": replicas,
        },
    }

    files: dict[str, FileData] = {}
    if write_samples:
        files["samples.csv"] = _csv_chunks(first_samples, spec.n_slots)
        hist = histogram(first_samples.pooled(primary_names))
        files["histogram.tsv"] = _tsv(("bin_left", "bin_right", "density"), hist.tsv_rows())
    return report, seeds, files


def _run_analytic(raw: dict) -> tuple[dict, list[int], dict[str, FileData]]:
    spec = build_model(raw["model"])
    points = []
    overall = 0.0
    for temperature in raw["temperatures"]:
        state = thermo_state(spec, float(temperature))
        residuals = finite_diff_thermo_residuals(spec, float(temperature), h=FD_STEP)
        worst = max(residuals.values())
        overall = max(overall, worst)
        points.append(
            {
                "temperature": float(temperature),
                "state": asdict(state),
                "residuals": residuals,
                "max_residual": worst,
            }
        )
    return {"task": "analytic", "model": raw["model"], "points": points, "max_residual": overall}, [], {}


def _run_transform(raw: dict) -> tuple[dict, list[int], dict[str, FileData]]:
    spec = build_model(raw["model"])
    report: dict = {"task": "transform", "model": raw["model"]}
    files: dict[str, FileData] = {}
    if "cycle" in raw:
        cyc = raw["cycle"]
        t_hot, t_cold = float(cyc["t_hot"]), float(cyc["t_cold"])
        v1, v2 = float(cyc["v1"]), float(cyc["v2"])
        report["cycle"] = asdict(carnot_cycle(spec, t_hot, t_cold, v1, v2))
        rows = path_table(spec, t_hot, t_cold, v1, v2)
        files["path.tsv"] = _tsv(("volume", "temperature", "pressure", "entropy"), rows)
        if "free_expansion_factor" in raw:
            spoiled = carnot_cycle(spec, t_hot, t_cold, v1, v2, float(raw["free_expansion_factor"]))
            verdict = policy_bound_check(spoiled.credit_out_cold, spoiled.credit_in_hot, t_cold, t_hot)
            report["free_expansion_cycle"] = asdict(spoiled)
            report["policy_bound"] = {**asdict(verdict),
                                      "eta_below_carnot": spoiled.eta < spoiled.carnot_eta}
    if "fractional_reserve" in raw:
        fr = raw["fractional_reserve"]
        money, temperature = fractional_reserve(
            float(fr["reserve_ratio"]), float(fr["volume"]), int(fr["n_agents"])
        )
        entry = {"money_supply": money, "temperature": temperature}
        if "reserve_ratio_new" in fr:
            volume_new = isothermal_base(
                float(fr["reserve_ratio"]), float(fr["volume"]), float(fr["reserve_ratio_new"])
            )
            entry["volume_new"] = volume_new
            entry["identity_residual"] = abs(
                (volume_new - float(fr["volume"]))
                - (volume_new / float(fr["reserve_ratio_new"]) - float(fr["volume"]) / float(fr["reserve_ratio"]))
            )
        report["fractional_reserve"] = entry
    if "identity_grid" in raw:
        grid = raw["identity_grid"]
        h = FD_STEP
        volumes = grid.get("volumes", [None])
        worst_gd = worst_fl = worst_state = 0.0
        count = 0
        for temperature in grid["temperatures"]:
            for volume in volumes:
                v = None if volume is None else float(volume)
                for deltas in ((h, 0.0, 0.0), (0.0, 0.0, h), (h, h if v is not None else 0.0, h)):
                    worst_gd = max(worst_gd, gibbs_duhem_residual(spec, float(temperature), deltas, volume=v))
                    worst_fl = max(worst_fl, first_law_residual(spec, float(temperature), deltas, volume=v))
                worst_state = max(
                    worst_state,
                    max(finite_diff_thermo_residuals(spec, float(temperature), volume=v, h=h).values()),
                )
                count += 1
        report["identity_grid"] = {
            "points": count,
            "max_gibbs_duhem": worst_gd,
            "max_first_law": worst_fl,
            "max_state_residual": worst_state,
        }
    return report, [], files


def _mean_log_ratio(values: np.ndarray, floor: float) -> float:
    """mean(log(values / floor)) through one temporary, the log taken in place."""
    ratios = np.divide(values, floor)
    return float(np.mean(np.log(ratios, out=ratios)))


def _run_pareto(raw: dict) -> tuple[dict, list[int], dict[str, FileData]]:
    spec = build_pareto(raw["pareto"])
    temperature = float(raw["temperature"])
    exponent = spec.t_max / temperature
    seeds = [derive_seed(raw.get("seed", 0), index) for index in (0, 1)]  # direct sampler, chain
    report: dict = {
        "task": "pareto",
        "pareto": raw["pareto"],
        "temperature": temperature,
        "analytic": {
            "log_partition": pareto_log_partition(spec, temperature),
            "entropy": pareto_entropy(spec, temperature),
            "mean_logincome": pareto_mean_logincome(spec, temperature),
            "mean_logincome_sampling": pareto_mean_logincome_sampling(spec, temperature),
            "tail_exponent": exponent,
            "tail_index": exponent - 1.0,
        },
    }
    files: dict[str, FileData] = {}
    n_direct = raw.get("direct_samples", 0)
    if n_direct > 0:
        draws = pareto_direct_sample(spec, temperature, n_direct, seed=seeds[0])
        k = hill_default_k(n_direct)
        report["direct"] = {
            "n": n_direct,
            "seed": seeds[0],
            "hill": hill_tail_index(draws, k),
            "hill_k": k,
            "mean_log_excess": _mean_log_ratio(draws, spec.floor_j),
        }
    if "dynamics" in raw:
        dyn = raw["dynamics"]
        chain = run_income_chain(
            spec,
            float(dyn["mean_log_excess"]),
            int(dyn["steps"]),
            dyn.get("burn_in"),
            dyn.get("thin"),
            seed=seeds[1],
        )
        pooled = chain.pooled()
        theta = _mean_log_ratio(pooled, spec.floor_j)
        report["dynamics"] = {
            "theta": theta,
            "hill": hill_tail_index(pooled),
            "y_drift": chain.y_drift,
            "matched_temperature": temperature_from_log_excess(spec, theta),
        }
        if raw.get("write_samples", True):
            files["samples.csv"] = _csv_chunks(chain, spec.n_agents)
    if "scan" in raw:
        rows = transition_scan(spec, [float(t) for t in raw["scan"]["temperatures"]])
        files["scan.tsv"] = _tsv(("temperature", "entropy", "t_dS_dT"), rows)
        increasing = all(b[2] > a[2] for a, b in zip(rows, rows[1:]))
        report["scan"] = {
            "rows": len(rows),
            "strictly_increasing": increasing,
            "first": {"temperature": rows[0][0], "t_dS_dT": rows[0][2]},
            "last": {"temperature": rows[-1][0], "t_dS_dT": rows[-1][2]},
        }
    return report, seeds, files


# ---------------------------------------------------------------------------
# The task table: one entry per CLI verb
# ---------------------------------------------------------------------------


def _check_transform(doc: dict) -> None:
    if ("cycle" in doc or "volumes" in doc.get("identity_grid", {})) and model_volume(doc["model"]) is None:
        raise ConfigError(f"a cycle or identity_grid volumes need a model with a volume;"
                          f" {doc['model'].kind.value!r} has none")


def _check_simulate(doc: dict) -> None:
    model, run = doc["model"], doc["run"]
    if run["policy"] not in ("equal", "uniform-random"):
        raise ConfigError(f"policy must be 'equal' or 'uniform-random', got {run['policy']!r}")
    # A record holds one value per slot (ModelSpec.n_slots).
    values = check_window(run, model.n_agents, model.n_slots)
    # A recorded value is at most |total| + 2·Σd in size (Σd = N·overdraft with
    # one account per agent), and the fit's mean and the histogram's densities
    # sum or scale all of them.
    if not math.isfinite(values * (abs(run["total"]) + 2 * model.total_overdraft)):
        raise ConfigError(f"total {run['total']} is too large: the sums over {values} recorded"
                          f" values leave the floating-point range")
    if not 1 <= doc.get("replicas", 1) <= MAX_REPLICAS:
        raise ConfigError(f"replicas must lie in [1, {MAX_REPLICAS}], got {doc['replicas']}")


def _check_pareto(doc: dict) -> None:
    spec = doc["pareto"]
    for temperature in (doc["temperature"], *doc.get("scan", {}).get("temperatures", ())):
        if not 0 < temperature < spec.t_max:
            raise ConfigError(f"temperature must lie in (0, t_max), got {temperature}")
    if "dynamics" in doc:
        excess = doc["dynamics"]["mean_log_excess"]
        if not excess > 0:
            raise ConfigError(f"dynamics.mean_log_excess must be positive, got {excess}")
        check_window(doc["dynamics"], spec.n_agents, spec.n_agents)
    direct = doc.get("direct_samples", 0)
    if direct < 0 or direct == 1:  # the Hill estimator needs at least 2 draws
        raise ConfigError(f"direct_samples must be 0 or >= 2, got {direct}")
    check_array_size(direct, "direct_samples")


def _sweep_documents(raw: dict):
    """Each run document of a sweep, in run order: the base with one
    combination of grid values (paths in sorted order) and one seed."""
    base, paths = raw["base"], sorted(raw["grid"])
    for values in itertools.product(*(raw["grid"][path] for path in paths)):
        for seed in raw.get("seeds") or [base.get("seed", raw.get("seed", 0))]:
            document = copy.deepcopy(base)
            for path, value in zip(paths, values):  # copied: a deeper path may write into it
                set_by_path(document, path, copy.deepcopy(value))
            document["seed"] = seed
            yield document


def _check_sweep(doc: dict) -> None:
    """Every run document is checked before the first run."""
    if not doc["grid"] or not all(isinstance(v, list) and v for v in doc["grid"].values()):
        raise ConfigError("sweep grid must map dotted paths to non-empty value lists")
    for document in _sweep_documents(doc):
        if document.get("task") == "sweep":
            raise ConfigError("sweep runs must be non-sweep configurations")
        validate_config(document)


@dataclass(frozen=True)
class Task:
    """One CLI verb: help line, document schema, cross-field check, pipeline."""

    help: str
    schema: dict  # key -> checker; "key?" is optional, a dict is a nested block
    check: Callable[[dict], None]  # on the checked, converted fields
    # Returns (report, replica seeds, companion files); None for sweep, which
    # run_experiment runs itself.
    pipeline: Callable[[dict], tuple[dict, list[int], dict[str, FileData]]] | None


_COMMON = {"task": string, "seed?": integer, "outputs?": string}
_MODEL = {"model": lambda block, _: build_model(block)}
_WINDOW = {"steps": integer, "burn_in?": integer, "thin?": integer}

TASKS: dict[str, Task] = {
    "analytic": Task(
        "closed-form states and identity residuals",
        {**_MODEL, "temperatures": positive_numbers},
        lambda doc: None,
        _run_analytic,
    ),
    "simulate": Task(
        "exchange-chain runs with fits and KS checks",
        {**_MODEL, "run": {"policy": string, "total": number, **_WINDOW},
         "replicas?": integer, "write_samples?": boolean},
        _check_simulate,
        _run_simulate,
    ),
    "transform": Task(
        "cycles, reserve relations, identity grids",
        {**_MODEL, "cycle?": dict.fromkeys(("t_hot", "t_cold", "v1", "v2"), number),
         "free_expansion_factor?": number,
         "fractional_reserve?": {"reserve_ratio": number, "volume": number, "n_agents": integer,
                                 "reserve_ratio_new?": number},
         "identity_grid?": {"temperatures": positive_numbers, "volumes?": positive_numbers}},
        _check_transform,
        _run_transform,
    ),
    "pareto": Task(
        "power-law income ensemble pipelines",
        {"pareto": lambda block, _: build_pareto(block), "temperature": number,
         "direct_samples?": integer, "dynamics?": {"mean_log_excess": number, **_WINDOW},
         "scan?": {"temperatures": positive_numbers}, "write_samples?": boolean},
        _check_pareto,
        _run_pareto,
    ),
    "sweep": Task(
        "grid of runs over parameter overrides",
        {"base": json_object, "grid": json_object, "seeds?": items(integer)},
        _check_sweep,
        None,
    ),
}


def validate_config(raw: dict) -> None:
    """Validate the whole document; raises ConfigError on the first defect."""
    task = json_object(raw, "configuration").get("task")
    if not isinstance(task, str) or task not in TASKS:
        raise ConfigError(f"task must be one of {tuple(TASKS)}, got {task!r}")
    TASKS[task].check(check_document(raw, _COMMON | TASKS[task].schema, "configuration"))


def load_config(path) -> dict:
    """Read, parse and validate a configuration file; returns the document as read."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    validate_config(raw)
    return raw


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------


def _json_bytes(document: dict) -> bytes:
    try:
        return (json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()
    except ValueError as exc:
        raise MoneygasError(f"a result is not finite and has no JSON form ({exc})") from exc


def _write(path: Path, data: FileData) -> str:
    """Write bytes or byte chunks to ``path`` through ``<name>.tmp``, hashing
    them on the way; returns the SHA-256 digest. A failure removes the
    ``.tmp`` file and leaves ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    chunks = iter([data] if isinstance(data, bytes) else data)
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                digest.update(chunk)
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    finally:
        if hasattr(chunks, "close"):
            chunks.close()  # a chunk generator's cleanup runs now, not when collected
    return "sha256:" + digest.hexdigest()


def resolve_out_dir(out: str | os.PathLike) -> Path:
    """Resolve an output directory, honoring MONEYGAS_OUT_ROOT for relative paths."""
    path = Path(out)
    root = os.environ.get("MONEYGAS_OUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def run_experiment(config: dict, out_dir) -> dict:
    """Execute one configuration, write its outputs, return the manifest."""
    return _run_in(config, resolve_out_dir(out_dir))


def _run_in(config: dict, out_path: Path) -> dict:
    out_path.mkdir(parents=True, exist_ok=True)
    task = config["task"]
    if task == "sweep":
        return _run_sweep(config, out_path)
    report, seeds, files = TASKS[task].pipeline(config)
    outputs = {"report.json": _json_bytes(report), **files}  # encoded before anything is written
    manifest = {
        "version": __version__,
        "task": task,
        "config": config,
        "base_seed": config.get("seed", 0),
        "replica_seeds": seeds,
        "files": {name: _write(out_path / name, data) for name, data in outputs.items()},
    }
    _write(out_path / "manifest.json", _json_bytes(manifest))
    return manifest


def _run_sweep(config: dict, out_path: Path) -> dict:
    entries = []
    for index, document in enumerate(_sweep_documents(config)):
        run = f"run_{index:03d}"
        manifest = _run_in(document, out_path / run)
        entries.append(
            {
                "run": run,
                "seed": document["seed"],
                "overrides": {path: get_by_path(document, path) for path in config["grid"]},
                "files": manifest["files"],
            }
        )
    top = {
        "version": __version__,
        "task": "sweep",
        "config": config,
        "base_seed": config.get("seed", 0),
        "runs": entries,
    }
    _write(out_path / "manifest.json", _json_bytes(top))
    return top


# ---------------------------------------------------------------------------
# Acceptance comparison
# ---------------------------------------------------------------------------

_EXPECTATIONS = items(lambda item, name: check_document(
    item, {"name": string, "value": number, "tolerance": number, "absolute?": boolean}, name))


def compare_report(report: dict, document: dict) -> list[str]:
    """Match (name, value, tolerance) expectations against report fields.

    ``document`` holds the expectations as a list under "expectations".
    Tolerances are relative unless the expectation sets "absolute": true.
    Returns a list of human-readable failure lines; a malformed document,
    malformed expectations and unknown fields raise ConfigError.
    """
    expectations = check_document(document, {"expectations": _EXPECTATIONS}, "expectations document")
    failures = []
    for item in expectations["expectations"]:
        name, expected, tolerance = item["name"], item["value"], item["tolerance"]
        absolute = item.get("absolute", False)
        try:
            got = get_by_path(report, name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            raise ConfigError(f"field {name!r} is not numeric: {got!r}")
        limit = tolerance if absolute else tolerance * max(abs(expected), 1e-300)
        if not math.isfinite(got) or abs(got - expected) > limit:
            failures.append(
                f"{name}: got {got!r}, expected {expected!r} within "
                f"{'absolute' if absolute else 'relative'} tolerance {tolerance!r}"
            )
    return failures

"""Experiment runner: the task table, deterministic pipelines, reports, manifests.

``TASKS`` holds one entry per CLI verb: its help line, the schema of its
configuration document, the cross-field check run on the document once the
schema passes, and its pipeline. ``analytic`` and ``transform`` are checked
by running their pipelines, staging nothing, so that a sweep stops before
its first run on any run whose closed forms fail. Only those two pipelines
import ``transform``, so a ``simulate`` or ``pareto`` process never loads it.
Every run writes ``report.json`` (and task-specific CSV/TSV companions)
followed by ``manifest.json`` carrying the configuration echo, the
implementation version, the derived per-replica seeds and SHA-256 digests
of every written file. Nothing in the outputs depends on wall-clock time, so
re-running a configuration reproduces the bytes exactly.

Every file is staged first: written, as bytes or as byte chunks, to
``<name>.tmp`` and hashed on the way; the first one makes the directory.
``report.json`` and ``manifest.json`` are staged last. Then any old manifest
is removed and each file renamed into place, the manifest last. A failure
removes the ``.tmp`` files and the directory levels the run made, and an
OSError exits as a MoneygasError naming the file. A run killed part-way can
leave ``.tmp`` files, or new files with no manifest, but no manifest of
other files. ``samples.csv`` is staged as views of one row buffer, a block of
records each. ``simulate`` stages it right after replica 0's chain, then sorts
each pool in place; ``pareto`` reads its records only for Hill and the CSV.
So the peak is the records plus one block: the CSV, the sort and KS checks and
Hill's selection each stream over the records ``dynamics.STREAM_BLOCK`` values
at a time (``configs/cash_only_simulate.json`` peaks at 52.4 MiB and
``configs/pareto_full.json`` at 43.5 MiB, ``ru_maxrss``).

The replicas of ``simulate`` run on two cores through one forked worker
process (``worker``): the worker runs the odd replicas and sends back their
reports. Each replica is a pure function of its seed, so the outputs are the
same as from one process.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import itertools
import json
import math
import os
from collections.abc import Iterable
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
from .dynamics import KERNELS, POLICIES, run_chain
from .ensembles import (
    ModelSpec,
    MoneygasError,
    temperature_closed_form,
    thermo_state,
)
from .estimation import (
    fit_shifted_exponential,
    hill_default_k,
    hill_tail_index,
    histogram,
    ks_statistic_exponential,
)
from .pareto import (
    ParetoError,
    check_temperature,
    pareto_direct_sample,
    pareto_entropy,
    pareto_log_partition,
    pareto_mean_logincome,
    pareto_mean_logincome_sampling,
    run_income_chain,
    transition_scan,
)
from .worker import interleaved

_MASK64 = (1 << 64) - 1

# A companion file: its bytes, or byte chunks to be written in order.
FileData = bytes | bytearray | memoryview | Iterable[bytes | bytearray | memoryview]
# Stages one output file of a run, by name, to be put in place with the rest.
Stage = Callable[[str, FileData], None]


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


def _replica_report(spec: ModelSpec, run_block: dict, seed: int, predicted: float,
                    stage: Stage | None) -> dict:
    """One replica's report; with ``stage``, its samples.csv and its primary
    marginal's histogram are staged too. Each pool is sorted in place, out of
    chain order, so the fits and the CSV come first."""
    samples = run_chain(
        spec,
        run_block["policy"],
        float(run_block["total"]),
        int(run_block["steps"]),
        run_block.get("burn_in"),
        run_block.get("thin"),
        seed=seed,
    )
    marginals = KERNELS[spec.kind].marginals(spec)
    fits = [fit_shifted_exponential(samples.pooled(names), floor) for _, names, floor in marginals]
    report = {
        "seed": seed,
        "fits": {},
        # The conserved input total/N, not a measurement: max_drift audits it.
        "mean_money_per_agent": float(run_block["total"]) / spec.n_agents,
        "max_drift": samples.meta.max_drift,
        "rejected_events": samples.meta.rejected_events,
        "events_run": samples.meta.events_run,
        "n_records": samples.n_records,
    }
    if stage:
        stage("samples.csv", samples.csv_chunks())
    for (label, names, floor), fit in zip(marginals, fits):
        data = samples.pooled(names)
        data.sort()  # in place: a view of the records, or multi_asset's concatenated copy
        ks_d, ks_ok = ks_statistic_exponential(data, floor, predicted)
        if stage and not report["fits"]:  # the primary marginal, the first
            stage("histogram.tsv", _tsv(("bin_left", "bin_right", "density"), histogram(data).tsv_rows()))
        report["fits"][label] = {
            "t_hat": fit.t_hat,
            "stderr": fit.stderr,
            "floor": floor,
            "n": fit.n,
            "ks_d": ks_d,
            "ks_pass_1pct": ks_ok,
        }
    return report


def _tsv(header: tuple[str, ...], rows) -> bytes:
    lines = ["\t".join(header), *("\t".join(map(repr, row)) for row in rows)]
    return ("\n".join(lines) + "\n").encode()


def _run_simulate(raw: dict, stage: Stage) -> tuple[dict, list[int]]:
    spec = build_model(raw["model"])
    run_block = raw["run"]
    replicas = raw.get("replicas", 1)
    predicted = temperature_closed_form(spec, float(run_block["total"]))
    write_samples = raw.get("write_samples", True)
    seeds = [derive_seed(raw.get("seed", 0), i) for i in range(replicas)]

    def replica(index: int) -> dict:
        keep = index == 0 and write_samples
        return _replica_report(spec, run_block, seeds[index], predicted, stage if keep else None)

    # The even replicas run here, the odd ones in the forked worker, which
    # sends back their reports. Replica 0, run here, stages samples.csv and
    # histogram.tsv when they are written.
    replica_reports = list(interleaved(replica, range(replicas)))

    primary = KERNELS[spec.kind].marginals(spec)[0][0]
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
    return report, seeds


def _run_analytic(raw: dict, stage: Stage) -> tuple[dict, list[int]]:
    from .transform import finite_diff_thermo_residuals

    spec = build_model(raw["model"])
    points = []
    overall = 0.0
    for temperature in raw["temperatures"]:
        state = thermo_state(spec, float(temperature))
        residuals = finite_diff_thermo_residuals(spec, float(temperature))
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
    return {"task": "analytic", "model": raw["model"], "points": points, "max_residual": overall}, []


def _run_transform(raw: dict, stage: Stage) -> tuple[dict, list[int]]:
    from .transform import (
        FD_STEP,
        balance_residuals,
        carnot_cycle,
        finite_diff_thermo_residuals,
        fractional_reserve,
        isothermal_base,
        path_table,
        policy_bound_check,
    )

    spec = build_model(raw["model"])
    report: dict = {"task": "transform", "model": raw["model"]}
    if "cycle" in raw:
        cyc = raw["cycle"]
        t_hot, t_cold = float(cyc["t_hot"]), float(cyc["t_cold"])
        v1, v2 = float(cyc["v1"]), float(cyc["v2"])
        report["cycle"] = asdict(carnot_cycle(spec, t_hot, t_cold, v1, v2))
        rows = path_table(spec, t_hot, t_cold, v1, v2)
        stage("path.tsv", _tsv(("volume", "temperature", "pressure", "entropy"), rows))
        if "free_expansion_factor" in raw:
            spoiled = carnot_cycle(spec, t_hot, t_cold, v1, v2, float(raw["free_expansion_factor"]))
            verdict = policy_bound_check(spoiled.credit_out_cold, spoiled.credit_in_hot, t_cold, t_hot)
            report["free_expansion_cycle"] = asdict(spoiled)
            report["policy_bound"] = {**asdict(verdict),
                                      "eta_below_carnot": spoiled.eta < spoiled.carnot_eta}
    elif "free_expansion_factor" in raw:
        raise MoneygasError("free_expansion_factor needs a cycle")
    if "fractional_reserve" in raw:
        fr = raw["fractional_reserve"]
        ratio, volume = float(fr["reserve_ratio"]), float(fr["volume"])
        money, temperature = fractional_reserve(ratio, volume, int(fr["n_agents"]))
        entry = {"money_supply": money, "temperature": temperature}
        if "reserve_ratio_new" in fr:
            ratio_new = float(fr["reserve_ratio_new"])
            volume_new = isothermal_base(ratio, volume, ratio_new)
            entry["volume_new"] = volume_new
            entry["identity_residual"] = abs((volume_new - volume) - (volume_new / ratio_new - volume / ratio))
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
                    gibbs_duhem, first_law = balance_residuals(spec, float(temperature), deltas, volume=v)
                    worst_gd, worst_fl = max(worst_gd, gibbs_duhem), max(worst_fl, first_law)
                residuals = finite_diff_thermo_residuals(spec, float(temperature), volume=v)
                worst_state = max(worst_state, *residuals.values())
                count += 1
        report["identity_grid"] = {
            "points": count,
            "max_gibbs_duhem": worst_gd,
            "max_first_law": worst_fl,
            "max_state_residual": worst_state,
        }
    return report, []


def _run_pareto(raw: dict, stage: Stage) -> tuple[dict, list[int]]:
    spec = build_pareto(raw["pareto"])
    temperature = float(raw["temperature"])
    exponent = check_temperature(spec, temperature)
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
    n_direct = raw.get("direct_samples", 0)
    if n_direct > 0:
        draws = pareto_direct_sample(spec, temperature, n_direct, seed=seeds[0])
        k = hill_default_k(n_direct)
        report["direct"] = {
            "n": n_direct,
            "seed": seeds[0],
            "hill": hill_tail_index(draws, k),
            "hill_k": k,
            # ln(I/J) taken in place, after the Hill estimate
            "mean_log_excess": float(np.mean(np.log(np.divide(draws, spec.floor_j, out=draws), out=draws))),
        }
        del draws  # nothing below reads them; the chain and its CSV need the memory
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
        hill = hill_tail_index(chain.pooled())
        if raw.get("write_samples", True):
            stage("samples.csv", chain.csv_chunks())
        report["dynamics"] = {
            "theta": float(dyn["mean_log_excess"]),  # the conserved input, which y_drift audits
            "hill": hill,
            "y_drift": chain.meta.max_drift,
        }
    if "scan" in raw:
        rows = transition_scan(spec, [float(t) for t in raw["scan"]["temperatures"]])
        stage("scan.tsv", _tsv(("temperature", "entropy", "t_dS_dT"), rows))
        increasing = all(b[2] > a[2] for a, b in zip(rows, rows[1:]))
        report["scan"] = {
            "rows": len(rows),
            "strictly_increasing": increasing,
            "first": {"temperature": rows[0][0], "t_dS_dT": rows[0][2]},
            "last": {"temperature": rows[-1][0], "t_dS_dT": rows[-1][2]},
        }
    return report, seeds


# ---------------------------------------------------------------------------
# The task table: one entry per CLI verb
# ---------------------------------------------------------------------------


def _check_by_running(verb: str, pipeline: Callable[[dict, Stage], tuple[dict, list[int]]]):
    """The check of a closed-form verb: its own pipeline, staging nothing, and
    its report's encoding, so that no run of a sweep starts on a document that
    its closed forms reject."""
    def check(doc: dict) -> None:
        try:
            _json_bytes(pipeline(doc, lambda name, data: None)[0])
        except MoneygasError as exc:
            raise ConfigError(f"infeasible {verb}: {exc}") from exc
    return check


def _check_simulate(doc: dict) -> None:
    model, run = build_model(doc["model"]), doc["run"]
    total = float(run["total"])
    if run["policy"] not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}, got {run['policy']!r}")
    try:
        temperature_closed_form(model, total)
    except MoneygasError as exc:
        raise ConfigError(f"infeasible run: {exc}") from exc
    # A record holds one value per slot (ModelSpec.n_slots).
    values = check_window(run, model.n_agents, model.n_slots)
    # A recorded value is at most |total| + 2·Σd in size (Σd = N·overdraft with
    # one account per agent), and the fit's mean and the histogram's densities
    # sum or scale all of them.
    if not math.isfinite(values * (abs(total) + 2 * model.total_overdraft)):
        raise ConfigError(f"total {run['total']} is too large: the sums over {values} recorded"
                          f" values leave the floating-point range")
    if not 1 <= doc.get("replicas", 1) <= MAX_REPLICAS:
        raise ConfigError(f"replicas must lie in [1, {MAX_REPLICAS}], got {doc['replicas']}")


def _check_pareto(doc: dict) -> None:
    spec = build_pareto(doc["pareto"])
    for temperature in (doc["temperature"], *doc.get("scan", {}).get("temperatures", ())):
        try:
            check_temperature(spec, float(temperature))
        except ParetoError as exc:
            raise ConfigError(str(exc)) from exc
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
        for seed in raw.get("seeds", [base.get("seed", raw.get("seed", 0))]):
            document = copy.deepcopy(base)
            for path, value in zip(paths, values):  # copied: a deeper path may write into it
                set_by_path(document, path, copy.deepcopy(value))
            document["seed"] = seed
            yield document


def _check_sweep(doc: dict) -> None:
    """Every run document is checked before the first run."""
    if not doc["grid"] or not all(isinstance(v, list) and v for v in doc["grid"].values()):
        raise ConfigError("sweep grid must map dotted paths to non-empty value lists")
    if doc.get("seeds") == []:
        raise ConfigError("sweep seeds must be a non-empty list when given")
    for document in _sweep_documents(doc):
        if document.get("task") == "sweep":
            raise ConfigError("sweep runs must be non-sweep configurations")
        validate_config(document)


@dataclass(frozen=True)
class Task:
    """One CLI verb: help line, document schema, cross-field check, pipeline."""

    help: str
    schema: dict  # key -> checker; "key?" is optional, a dict is a nested block
    check: Callable[[dict], None]  # on the document as read, once its schema has passed
    # Stages its companion files through the given Stage and returns (report,
    # replica seeds); None for sweep, which run_experiment runs itself.
    pipeline: Callable[[dict, Stage], tuple[dict, list[int]]] | None


_COMMON = {"task": string, "seed?": integer, "outputs?": string}
_MODEL = {"model": lambda block, _: build_model(block)}
_WINDOW = {"steps": integer, "burn_in?": integer, "thin?": integer}

TASKS: dict[str, Task] = {
    "analytic": Task(
        "closed-form states and identity residuals",
        {**_MODEL, "temperatures": positive_numbers},
        _check_by_running("analytic", _run_analytic),
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
        _check_by_running("transform", _run_transform),
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
    check_document(raw, _COMMON | TASKS[task].schema, "configuration")
    TASKS[task].check(raw)


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
    """Write bytes or byte chunks to ``path``, hashing them on the way; returns
    the SHA-256 digest. A failure removes ``path``."""
    digest = hashlib.sha256()
    chunks = iter([data] if isinstance(data, (bytes, bytearray, memoryview)) else data)
    try:
        with open(path, "wb") as handle:
            for chunk in chunks:
                digest.update(chunk)
                handle.write(chunk)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    finally:
        if hasattr(chunks, "close"):
            chunks.close()  # a chunk generator's cleanup runs now, not when collected
    return "sha256:" + digest.hexdigest()


@contextlib.contextmanager
def _naming(path: Path):
    """``path``, for a block whose OSError becomes a one-line MoneygasError that names it."""
    try:
        yield path
    except OSError as exc:
        raise MoneygasError(f"cannot write {path}: {exc.strerror or exc}") from exc


def resolve_out_dir(out: str | os.PathLike) -> Path:
    """Resolve an output directory, honoring MONEYGAS_OUT_ROOT for relative paths."""
    path = Path(out)
    root = os.environ.get("MONEYGAS_OUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _check_out_dir(path: Path) -> None:
    """MoneygasError unless ``path`` is a directory, or its nearest existing
    ancestor is one, so that a run that cannot write fails before it runs."""
    for ancestor in (path, *path.parents):
        if os.path.exists(ancestor):
            if not os.path.isdir(ancestor):
                raise MoneygasError(f"cannot write to {path}: {ancestor} is not a directory")
            return


def run_experiment(config: dict, out_dir) -> dict:
    """Execute one configuration, write its outputs, return the manifest."""
    out_path = resolve_out_dir(out_dir)
    _check_out_dir(out_path)
    return _run_in(config, out_path)


def _run_in(config: dict, out_path: Path) -> dict:
    """Run one configuration into ``out_path``, staging its files (see the module docstring)."""
    task, digests = config["task"], {}
    made = [level for level in (out_path, *out_path.parents) if not os.path.exists(level)]  # deepest first

    def stage(name: str, data: FileData) -> None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise MoneygasError(f"cannot create the output directory {out_path}: {exc.strerror or exc}") from exc
        with _naming(out_path / f"{name}.tmp") as tmp:
            digests[name] = _write(tmp, data)

    try:
        if task == "sweep":
            with _naming(out_path / "manifest.json") as path:
                path.unlink(missing_ok=True)  # the runs replace the files that it names
            manifest = _run_sweep(config, out_path)  # its runs make the directory
        else:
            report, seeds = TASKS[task].pipeline(config, stage)
            stage("report.json", _json_bytes(report))
            manifest = {
                "version": __version__,
                "task": task,
                "config": config,
                "base_seed": config.get("seed", 0),
                "replica_seeds": seeds,
                "files": dict(digests),
            }
        stage("manifest.json", _json_bytes(manifest))
        with _naming(out_path / "manifest.json") as path:
            path.unlink(missing_ok=True)  # from here on, a failure leaves no manifest
        for name in digests:  # manifest.json, staged last, comes last
            with _naming(out_path / name) as path:
                os.replace(out_path / f"{name}.tmp", path)
    except BaseException:
        for name in digests:
            (out_path / f"{name}.tmp").unlink(missing_ok=True)
        for level in made:
            with contextlib.suppress(OSError):  # not empty, or already removed
                level.rmdir()
        raise
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
        if tolerance < 0:
            raise ConfigError(f"expectation {name!r}: tolerance must be >= 0, got {tolerance!r}")
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

"""Experiment runner: deterministic pipelines, reports, manifests.

Every run writes ``report.json`` (and task-specific CSV/TSV companions)
followed by ``manifest.json`` carrying the configuration echo, the
implementation version, the derived per-replica seeds and SHA-256 digests
of every written file. Nothing in the outputs depends on wall-clock time,
so re-running a configuration reproduces the bytes exactly.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, build_model, build_pareto, get_by_path, set_by_path
from .dynamics import KERNELS, SampleSet, run_chain
from .ensembles import ModelSpec, temperature_from_total, thermo_state
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
    ProcessPath,
    adiabatic,
    carnot_cycle,
    cycle_with_free_expansion,
    first_law_residual,
    fractional_reserve,
    gibbs_duhem_residual,
    isothermal,
    isothermal_base,
    path_table,
    policy_bound_check,
)

_MASK64 = (1 << 64) - 1


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
        "mean_money_per_agent": kernel.money_per_agent(samples.coords),
        "max_drift": samples.meta.max_drift,
        "rejected_events": samples.meta.rejected_events,
        "events_run": samples.meta.events_run,
        "n_records": samples.n_records,
    }
    return report, samples


def _replica_task(payload: tuple) -> tuple[dict, SampleSet | None]:
    model_block, run_block, seed, predicted, keep_samples = payload
    spec = build_model(model_block)
    report, samples = _replica_report(spec, run_block, seed, predicted)
    return report, samples if keep_samples else None


def _run_simulate(config: ExperimentConfig, out_dir: Path) -> tuple[dict, list[int], dict[str, bytes]]:
    raw = config.raw
    spec = build_model(raw["model"])
    run_block = raw["run"]
    predicted = temperature_from_total(spec, float(run_block["total"]))
    seeds = [derive_seed(config.seed, i) for i in range(config.replicas)]
    payloads = [
        (raw["model"], run_block, seed, predicted, index == 0)
        for index, seed in enumerate(seeds)
    ]
    if config.workers > 1 and len(payloads) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_replica_task, payloads))
    else:
        results = [_replica_task(p) for p in payloads]
    replica_reports = [r for r, _ in results]
    first_samples = results[0][1]

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
            "replicas": config.replicas,
        },
    }

    extra_files: dict[str, bytes] = {}
    if raw.get("write_samples", True) and first_samples is not None:
        extra_files["samples.csv"] = first_samples.csv_bytes()
        hist = histogram(first_samples.pooled(primary_names), rule="freedman-diaconis")
        lines = ["bin_left\tbin_right\tdensity"]
        lines += [f"{left!r}\t{right!r}\t{dens!r}" for left, right, dens in hist.tsv_rows()]
        extra_files["histogram.tsv"] = ("\n".join(lines) + "\n").encode()
    return report, seeds, extra_files


def _run_analytic(config: ExperimentConfig) -> dict:
    raw = config.raw
    spec = build_model(raw["model"])
    h = float(raw.get("fd_step", 1e-5))
    points = []
    overall = 0.0
    for temperature in raw["temperatures"]:
        state = thermo_state(spec, float(temperature))
        residuals = finite_diff_thermo_residuals(spec, float(temperature), h=h)
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
    return {"task": "analytic", "model": raw["model"], "points": points, "max_residual": overall}


def _run_transform(config: ExperimentConfig) -> tuple[dict, dict[str, bytes]]:
    raw = config.raw
    spec = build_model(raw["model"])
    report: dict = {"task": "transform", "model": raw["model"]}
    extra_files: dict[str, bytes] = {}
    if "cycle" in raw:
        cyc = raw["cycle"]
        t_hot, t_cold = float(cyc["t_hot"]), float(cyc["t_cold"])
        v1, v2 = float(cyc["v1"]), float(cyc["v2"])
        cycle = carnot_cycle(spec, t_hot, t_cold, v1, v2)
        report["cycle"] = cycle.as_dict()
        ratio = t_hot / t_cold
        path = ProcessPath(
            spec,
            (
                isothermal(t_hot, v1, v2),
                adiabatic(t_hot, v2, v2 * ratio),
                isothermal(t_cold, v2 * ratio, v1 * ratio),
                adiabatic(t_cold, v1 * ratio, v1),
            ),
        )
        rows = path_table(path)
        lines = ["volume\ttemperature\tpressure\tentropy"]
        lines += [f"{v!r}\t{t!r}\t{p!r}\t{s!r}" for v, t, p, s in rows]
        extra_files["path.tsv"] = ("\n".join(lines) + "\n").encode()
        if "free_expansion_factor" in raw:
            spoiled = cycle_with_free_expansion(
                spec, t_hot, t_cold, v1, v2, float(raw["free_expansion_factor"])
            )
            verdict = policy_bound_check(
                spoiled.credit_out_cold, spoiled.credit_in_hot, t_cold, t_hot
            )
            report["free_expansion_cycle"] = spoiled.as_dict()
            report["policy_bound"] = {
                "credit_ratio": verdict.credit_ratio,
                "temperature_ratio": verdict.temperature_ratio,
                "satisfies_temperature_bound": verdict.satisfies_temperature_bound,
                "eta_below_carnot": spoiled.eta < spoiled.carnot_eta,
            }
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
        h = float(grid.get("fd_step", 1e-5))
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
    return report, extra_files


def _run_pareto(config: ExperimentConfig) -> tuple[dict, dict[str, bytes]]:
    raw = config.raw
    spec = build_pareto(raw["pareto"])
    temperature = float(raw["temperature"])
    exponent = spec.t_max / temperature
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
    extra_files: dict[str, bytes] = {}
    n_direct = int(raw.get("direct_samples", 0))
    if n_direct > 0:
        seed = derive_seed(config.seed, 0)
        draws = pareto_direct_sample(spec, temperature, n_direct, seed=seed)
        k = hill_default_k(n_direct)
        report["direct"] = {
            "n": n_direct,
            "seed": seed,
            "hill": hill_tail_index(draws, k),
            "hill_k": k,
            "mean_log_excess": float(np.mean(np.log(draws / spec.floor_j))),
        }
    if "dynamics" in raw:
        dyn = raw["dynamics"]
        chain = run_income_chain(
            spec,
            float(dyn["mean_log_excess"]),
            int(dyn["steps"]),
            dyn.get("burn_in"),
            dyn.get("thin"),
            seed=derive_seed(config.seed, 1),
        )
        pooled = chain.pooled()
        theta = float(np.mean(np.log(pooled / spec.floor_j)))
        report["dynamics"] = {
            "theta": theta,
            "hill": hill_tail_index(pooled),
            "y_drift": chain.y_drift,
            "matched_temperature": temperature_from_log_excess(spec, theta),
        }
        if raw.get("write_samples", True):
            extra_files["samples.csv"] = chain.csv_bytes()
    if "scan" in raw:
        rows = transition_scan(spec, [float(t) for t in raw["scan"]["temperatures"]])
        lines = ["temperature\tentropy\tt_dS_dT"]
        lines += [f"{t!r}\t{s!r}\t{r!r}" for t, s, r in rows]
        extra_files["scan.tsv"] = ("\n".join(lines) + "\n").encode()
        increasing = all(b[2] > a[2] for a, b in zip(rows, rows[1:]))
        report["scan"] = {
            "rows": len(rows),
            "strictly_increasing": increasing,
            "first": {"temperature": rows[0][0], "t_dS_dT": rows[0][2]},
            "last": {"temperature": rows[-1][0], "t_dS_dT": rows[-1][2]},
        }
    return report, extra_files


def _json_bytes(document: dict) -> bytes:
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def resolve_out_dir(out: str | os.PathLike) -> Path:
    """Resolve an output directory, honoring MONEYGAS_OUT_ROOT for relative paths."""
    path = Path(out)
    root = os.environ.get("MONEYGAS_OUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Execute one configuration, write its outputs, return the manifest."""
    out_path = resolve_out_dir(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    task = config.task
    seeds: list[int] = []
    extra_files: dict[str, bytes] = {}
    if task == "simulate":
        report, seeds, extra_files = _run_simulate(config, out_path)
    elif task == "analytic":
        report = _run_analytic(config)
    elif task == "transform":
        report, extra_files = _run_transform(config)
    elif task == "pareto":
        report, extra_files = _run_pareto(config)
        seeds = [derive_seed(config.seed, 0), derive_seed(config.seed, 1)]
    elif task == "sweep":
        return _run_sweep(config, out_path)
    else:  # pragma: no cover - validation rejects other tasks
        raise ConfigError(f"unknown task {task!r}")

    files: dict[str, str] = {}
    report_bytes = _json_bytes(report)
    (out_path / "report.json").write_bytes(report_bytes)
    files["report.json"] = _digest(report_bytes)
    for name, data in sorted(extra_files.items()):
        (out_path / name).write_bytes(data)
        files[name] = _digest(data)
    manifest = {
        "version": __version__,
        "task": task,
        "config": config.raw,
        "base_seed": config.seed,
        "replica_seeds": seeds,
        "files": files,
    }
    (out_path / "manifest.json").write_bytes(_json_bytes(manifest))
    return manifest


def _run_sweep(config: ExperimentConfig, out_path: Path) -> dict:
    raw = config.raw
    base = raw["base"]
    grid = raw["grid"]
    seeds = raw.get("seeds") or [int(base.get("seed", config.seed))]
    paths = sorted(grid)
    combos: list[dict] = []
    for values in _product([grid[p] for p in paths]):
        for seed in seeds:
            document = json.loads(json.dumps(base))
            for path_name, value in zip(paths, values):
                set_by_path(document, path_name, value)
            document["seed"] = seed
            combos.append(document)

    entries = []
    for index, document in enumerate(combos):
        from .config import validate_config

        validate_config(document)
        sub_config = ExperimentConfig(
            task=document["task"], raw=document, seed=int(document.get("seed", 0)),
            outputs=document.get("outputs"),
        )
        run_dir = out_path / f"run_{index:03d}"
        manifest = run_experiment(sub_config, run_dir)
        entries.append(
            {
                "run": f"run_{index:03d}",
                "seed": sub_config.seed,
                "overrides": {p: get_by_path(document, p) for p in paths},
                "files": manifest["files"],
            }
        )
    top = {
        "version": __version__,
        "task": "sweep",
        "config": raw,
        "base_seed": config.seed,
        "runs": entries,
    }
    (out_path / "manifest.json").write_bytes(_json_bytes(top))
    return top


def _product(lists: list[list]):
    if not lists:
        yield ()
        return
    for head in lists[0]:
        for tail in _product(lists[1:]):
            yield (head, *tail)


# ---------------------------------------------------------------------------
# Acceptance comparison
# ---------------------------------------------------------------------------


def compare_report(report: dict, expectations) -> list[str]:
    """Match (name, value, tolerance) expectations against report fields.

    Tolerances are relative unless the expectation sets "absolute": true.
    Returns a list of human-readable failure lines; unknown fields raise
    ConfigError.
    """
    if isinstance(expectations, dict):
        if set(expectations) != {"expectations"}:
            raise ConfigError("expectations document must hold a single 'expectations' list")
        expectations = expectations["expectations"]
    if not isinstance(expectations, list):
        raise ConfigError("expectations must be a list")
    failures = []
    for item in expectations:
        if not isinstance(item, dict) or not {"name", "value", "tolerance"} <= set(item):
            raise ConfigError(f"malformed expectation {item!r}")
        unknown = set(item) - {"name", "value", "tolerance", "absolute"}
        if unknown:
            raise ConfigError(f"unknown expectation field(s) {sorted(unknown)} in {item['name']!r}")
        name = item["name"]
        try:
            got = get_by_path(report, name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            raise ConfigError(f"field {name!r} is not numeric: {got!r}")
        expected = float(item["value"])
        tolerance = float(item["tolerance"])
        if item.get("absolute", False):
            limit = tolerance
        else:
            limit = tolerance * max(abs(expected), 1e-300)
        if not math.isfinite(got) or abs(got - expected) > limit:
            failures.append(
                f"{name}: got {got!r}, expected {expected!r} within "
                f"{'absolute' if item.get('absolute') else 'relative'} tolerance {tolerance!r}"
            )
    return failures

"""Experiment configuration: strict JSON schema and model construction.

One JSON document drives one CLI task. Unknown keys are rejected at every
level so a typo fails loudly instead of silently running the default.
The full schema is documented in the repository README.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .dynamics import KERNELS, default_burn_in, default_thin
from .ensembles import (
    PARTITION_FUNCTIONS,
    ModelKind,
    ModelSpec,
    ModelValidationError,
    MoneygasError,
    model_volume,
)
from .pareto import ParetoError, ParetoSpec

TASKS = ("analytic", "simulate", "transform", "pareto", "sweep")


class ConfigError(MoneygasError):
    """Malformed configuration document."""


def _check_keys(block: dict, allowed: set[str], required: set[str], context: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be a JSON object, got {type(block).__name__}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {context}: {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing required field(s) in {context}: {sorted(missing)}")


_MODEL_FIELDS: dict[str, tuple[set[str], set[str]]] = {
    # kind -> (required, optional) besides kind/n_agents
    "cash_only": ({"volume_y"}, set()),
    "overdraft": ({"volume_x", "overdraft"}, {"q0"}),
    "multi_account": ({"accounts_per_agent", "account_overdrafts"}, set()),
    "combined": ({"overdraft"}, set()),
    "restricted": ({"overdraft"}, set()),
    "credit_market": ({"volume_x"}, {"q0"}),
    "multi_asset": ({"asset_classes"}, set()),
}


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be an integer in floating-point range, got {value!r}")
    return value


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _model_field(name: str, value):
    """One model field converted to its ModelSpec type after a JSON type check."""
    if name == "asset_classes":
        return _integer(value, name)
    if name == "accounts_per_agent":
        return tuple(_integer(r, name) for r in _array(value, name))
    if name == "account_overdrafts":
        return tuple(tuple(_number(d, name) for d in _array(row, name)) for row in _array(value, name))
    return _number(value, name)


def build_model(block: dict) -> ModelSpec:
    """Construct and validate a ModelSpec from its JSON block."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("model block must be an object with a 'kind' field")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise ConfigError(f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_FIELDS)}")
    required, optional = _MODEL_FIELDS[kind]
    _check_keys(block, {"kind", "n_agents"} | required | optional, {"kind", "n_agents"} | required,
                f"model ({kind})")
    fields = {name: _model_field(name, value) for name, value in block.items()
              if name not in ("kind", "n_agents")}
    n_agents = _integer(block["n_agents"], "n_agents")
    try:
        return ModelSpec(ModelKind(kind), n_agents, **fields)
    except ModelValidationError as exc:
        raise ConfigError(f"infeasible model: {exc}") from exc


def build_pareto(block: dict) -> ParetoSpec:
    _check_keys(block, {"n_agents", "floor_j", "t_max", "volume"},
                {"n_agents", "floor_j", "t_max"}, "pareto block")
    try:
        return ParetoSpec(
            n_agents=_integer(block["n_agents"], "n_agents"),
            floor_j=_number(block["floor_j"], "floor_j"),
            t_max=_number(block["t_max"], "t_max"),
            volume=_number(block.get("volume", 1.0), "volume"),
        )
    except ParetoError as exc:
        raise ConfigError(f"infeasible income model: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; ``raw`` keeps the exact document for echoing."""

    task: str
    raw: dict
    seed: int
    outputs: str | None

    @property
    def replicas(self) -> int:
        return int(self.raw.get("replicas", 1))

    @property
    def workers(self) -> int:
        return int(self.raw.get("workers", 1))


_TOP_LEVEL: dict[str, tuple[set[str], set[str]]] = {
    "analytic": ({"model", "temperatures"}, {"fd_step"}),
    "simulate": ({"model", "run"}, {"replicas", "write_samples", "workers"}),
    "transform": ({"model"}, {"cycle", "free_expansion_factor", "fractional_reserve",
                              "identity_grid"}),
    "pareto": ({"pareto", "temperature"}, {"direct_samples", "dynamics", "scan", "write_samples"}),
    "sweep": ({"base", "grid"}, {"seeds"}),
}
_COMMON_OPTIONAL = {"task", "seed", "outputs"}


def _check_window(block: dict, n_agents: int) -> None:
    """Check a chain's window: N >= 2, integer steps/burn_in/thin (burn_in and
    thin default to 100·N and N), steps > burn_in >= 0, and enough records
    that the N·records pooled values reach the 10 the KS check needs."""
    if n_agents < 2:
        raise ConfigError(f"pair exchange needs n_agents >= 2, got {n_agents}")
    steps = _integer(block["steps"], "steps")
    burn_in = _integer(block.get("burn_in", default_burn_in(n_agents)), "burn_in")
    thin = _integer(block.get("thin", default_thin(n_agents)), "thin")
    if burn_in < 0 or steps <= burn_in:
        raise ConfigError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    if thin < 1 or (steps - burn_in) // thin * n_agents < 10:
        raise ConfigError(f"thin={thin} must be >= 1 and record at least 10 values"
                          f" ((steps - burn_in) // thin records of {n_agents} agents)")


def validate_config(raw: dict) -> None:
    """Validate the whole document; raises ConfigError on the first defect."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    task = raw.get("task")
    if not isinstance(task, str) or task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    required, optional = _TOP_LEVEL[task]
    _check_keys(raw, required | optional | _COMMON_OPTIONAL, required | {"task"}, "configuration")
    if "seed" in raw:
        _integer(raw["seed"], "seed")

    if task in ("analytic", "transform"):
        model = build_model(raw["model"])
        if model.kind not in PARTITION_FUNCTIONS:
            raise ConfigError(f"{task} needs a closed-form state; {model.kind.value!r} has none")
    if task == "analytic":
        _positive_list(raw["temperatures"], "temperatures")
        _fd_step(raw)
    elif task == "simulate":
        model = build_model(raw["model"])
        if model.kind not in KERNELS:
            raise ConfigError(f"model kind {model.kind.value!r} has no exchange dynamics to simulate")
        run = raw["run"]
        _check_keys(run, {"policy", "total", "steps", "burn_in", "thin"},
                    {"policy", "total", "steps"}, "run block")
        if run["policy"] not in ("equal", "uniform-random"):
            raise ConfigError(f"policy must be 'equal' or 'uniform-random', got {run['policy']!r}")
        _number(run["total"], "total")
        _check_window(run, model.n_agents)
        if _integer(raw.get("replicas", 1), "replicas") < 1:
            raise ConfigError("replicas must be >= 1")
        _integer(raw.get("workers", 1), "workers")
    elif task == "transform":
        if "cycle" in raw:
            _check_keys(raw["cycle"], {"t_hot", "t_cold", "v1", "v2"},
                        {"t_hot", "t_cold", "v1", "v2"}, "cycle block")
        if "fractional_reserve" in raw:
            _check_keys(raw["fractional_reserve"],
                        {"reserve_ratio", "volume", "n_agents", "reserve_ratio_new"},
                        {"reserve_ratio", "volume", "n_agents"}, "fractional_reserve block")
        if "free_expansion_factor" in raw:
            _number(raw["free_expansion_factor"], "free_expansion_factor")
        for name, value in [*raw.get("cycle", {}).items(), *raw.get("fractional_reserve", {}).items()]:
            (_integer if name == "n_agents" else _number)(value, name)
        if "identity_grid" in raw:
            grid = raw["identity_grid"]
            _check_keys(grid, {"temperatures", "volumes", "fd_step"},
                        {"temperatures"}, "identity_grid block")
            _positive_list(grid["temperatures"], "identity_grid temperatures")
            if "volumes" in grid:
                _positive_list(grid["volumes"], "identity_grid volumes")
            _fd_step(grid)
        if ("cycle" in raw or "volumes" in raw.get("identity_grid", {})) and model_volume(model) is None:
            raise ConfigError(f"a cycle or identity_grid volumes need a model with a volume;"
                              f" {model.kind.value!r} has none")
    elif task == "pareto":
        spec = build_pareto(raw["pareto"])
        temperature = _number(raw["temperature"], "temperature")
        if not 0 < temperature < spec.t_max:
            raise ConfigError(f"temperature must lie in (0, t_max), got {temperature}")
        _integer(raw.get("direct_samples", 0), "direct_samples")
        if "dynamics" in raw:
            dynamics = raw["dynamics"]
            _check_keys(dynamics, {"mean_log_excess", "steps", "burn_in", "thin"},
                        {"mean_log_excess", "steps"}, "dynamics block")
            _number(dynamics["mean_log_excess"], "mean_log_excess")
            _check_window(dynamics, spec.n_agents)
        if "scan" in raw:
            _check_keys(raw["scan"], {"temperatures"}, {"temperatures"}, "scan block")
            _positive_list(raw["scan"]["temperatures"], "scan temperatures")
    elif task == "sweep":
        base = raw["base"]
        if not isinstance(base, dict) or base.get("task") == "sweep":
            raise ConfigError("sweep base must be a non-sweep configuration object")
        validate_config(base)
        grid = raw["grid"]
        if not isinstance(grid, dict) or not grid:
            raise ConfigError("sweep grid must be a non-empty object of dotted paths to value lists")
        for path, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"grid entry {path!r} must map to a non-empty list")
            _resolve_parent(base, path)  # must already exist in the base document
        seeds = raw.get("seeds", [])
        if not isinstance(seeds, list) or not all(isinstance(s, int) for s in seeds):
            raise ConfigError("seeds must be a list of integers")


def _fd_step(block: dict) -> None:
    if not 0 < _number(block.get("fd_step", 1e-5), "fd_step") < 1:
        raise ConfigError("fd_step must lie in (0, 1)")


def _positive_list(values, context: str) -> None:
    if not _array(values, context):
        raise ConfigError(f"{context} must be a non-empty list")
    if any(_number(v, context) <= 0 for v in values):
        raise ConfigError(f"{context} must contain positive numbers")


def _resolve_parent(document: dict, dotted: str):
    """Walk a dotted path to its parent container; raises if absent."""
    parts = dotted.split(".")
    node = document
    for part in parts[:-1]:
        if isinstance(node, list) and part.isdecimal() and int(part) < len(node):
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise ConfigError(f"sweep path {dotted!r} does not exist in the base configuration")
    leaf = parts[-1]
    if isinstance(node, dict):
        if leaf not in node:
            raise ConfigError(f"sweep path {dotted!r} does not exist in the base configuration")
    elif isinstance(node, list):
        if not leaf.isdecimal() or int(leaf) >= len(node):
            raise ConfigError(f"sweep path {dotted!r} is out of range")
    else:
        raise ConfigError(f"sweep path {dotted!r} does not point into a container")
    return node, leaf


def set_by_path(document: dict, dotted: str, value) -> None:
    node, leaf = _resolve_parent(document, dotted)
    if isinstance(node, list):
        node[int(leaf)] = value
    else:
        node[leaf] = value


def get_by_path(document, dotted: str):
    """Dotted-path lookup with integer segments indexing into lists."""
    node = document
    for part in dotted.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError) as exc:
                raise KeyError(f"no field {dotted!r}: bad segment {part!r}") from exc
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise KeyError(f"no field {dotted!r}: missing segment {part!r}")
    return node


def load_config(path) -> ExperimentConfig:
    """Read, parse and validate a configuration file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    validate_config(raw)
    return ExperimentConfig(
        task=raw["task"],
        raw=raw,
        seed=int(raw.get("seed", 0)),
        outputs=raw.get("outputs"),
    )

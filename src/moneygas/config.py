"""Experiment configuration: strict JSON schema and model construction.

One JSON document drives one CLI task. Unknown keys are rejected at every
level so a typo fails loudly instead of silently running the default.
The full schema is documented in the repository README.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .dynamics import KERNELS, default_burn_in, default_thin
from .ensembles import ModelSpec, ModelValidationError
from .pareto import ParetoError, ParetoSpec

TASKS = ("analytic", "simulate", "transform", "pareto", "sweep")


class ConfigError(ValueError):
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


def build_model(block: dict) -> ModelSpec:
    """Construct and validate a ModelSpec from its JSON block."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("model block must be an object with a 'kind' field")
    kind = block["kind"]
    if kind not in _MODEL_FIELDS:
        raise ConfigError(f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_FIELDS)}")
    required, optional = _MODEL_FIELDS[kind]
    _check_keys(block, {"kind", "n_agents"} | required | optional, {"kind", "n_agents"} | required,
                f"model ({kind})")
    n_agents = block["n_agents"]
    if not isinstance(n_agents, int):
        raise ConfigError(f"n_agents must be an integer, got {n_agents!r}")
    try:
        if kind == "cash_only":
            return ModelSpec.cash_only(n_agents, float(block["volume_y"]))
        if kind == "overdraft":
            q0 = block.get("q0")
            return ModelSpec.overdraft_model(
                n_agents, float(block["volume_x"]), float(block["overdraft"]),
                None if q0 is None else float(q0),
            )
        if kind == "multi_account":
            return ModelSpec.multi_account(
                n_agents,
                tuple(int(r) for r in block["accounts_per_agent"]),
                tuple(tuple(float(d) for d in row) for row in block["account_overdrafts"]),
            )
        if kind == "combined":
            return ModelSpec.combined(n_agents, float(block["overdraft"]))
        if kind == "restricted":
            return ModelSpec.restricted(n_agents, float(block["overdraft"]))
        if kind == "credit_market":
            return ModelSpec.credit_market(n_agents, float(block["volume_x"]))
        return ModelSpec.multi_asset(n_agents, int(block["asset_classes"]))
    except ModelValidationError as exc:
        raise ConfigError(f"infeasible model: {exc}") from exc


def build_pareto(block: dict) -> ParetoSpec:
    _check_keys(block, {"n_agents", "floor_j", "t_max", "volume"},
                {"n_agents", "floor_j", "t_max"}, "pareto block")
    try:
        return ParetoSpec(
            n_agents=int(block["n_agents"]),
            floor_j=float(block["floor_j"]),
            t_max=float(block["t_max"]),
            volume=float(block.get("volume", 1.0)),
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


def validate_config(raw: dict) -> None:
    """Validate the whole document; raises ConfigError on the first defect."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    required, optional = _TOP_LEVEL[task]
    _check_keys(raw, required | optional | _COMMON_OPTIONAL, required | {"task"}, "configuration")
    if "seed" in raw and not isinstance(raw["seed"], int):
        raise ConfigError(f"seed must be an integer, got {raw['seed']!r}")

    if task == "analytic":
        build_model(raw["model"])
        _positive_list(raw["temperatures"], "temperatures")
    elif task == "simulate":
        model = build_model(raw["model"])
        if model.kind not in KERNELS:
            raise ConfigError(f"model kind {model.kind.value!r} has no exchange dynamics to simulate")
        n = model.n_agents
        if n < 2:
            raise ConfigError(f"pair exchange needs n_agents >= 2, got {n}")
        run = raw["run"]
        _check_keys(run, {"policy", "total", "steps", "burn_in", "thin"},
                    {"policy", "total", "steps"}, "run block")
        if run["policy"] not in ("equal", "uniform-random"):
            raise ConfigError(f"policy must be 'equal' or 'uniform-random', got {run['policy']!r}")
        steps = run["steps"]
        burn_in = run.get("burn_in", default_burn_in(n))
        thin = run.get("thin", default_thin(n))
        replicas = raw.get("replicas", 1)
        for name, value in (("steps", steps), ("burn_in", burn_in), ("thin", thin),
                            ("replicas", replicas)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if burn_in < 0 or steps <= burn_in:
            raise ConfigError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
        if thin < 1 or (steps - burn_in) // thin < 1:
            raise ConfigError(
                f"thin must lie in [1, steps - burn_in] so the run records samples, got {thin}"
            )
        if replicas < 1:
            raise ConfigError("replicas must be >= 1")
    elif task == "transform":
        build_model(raw["model"])
        if "cycle" in raw:
            _check_keys(raw["cycle"], {"t_hot", "t_cold", "v1", "v2"},
                        {"t_hot", "t_cold", "v1", "v2"}, "cycle block")
        if "fractional_reserve" in raw:
            _check_keys(raw["fractional_reserve"],
                        {"reserve_ratio", "volume", "n_agents", "reserve_ratio_new"},
                        {"reserve_ratio", "volume", "n_agents"}, "fractional_reserve block")
        if "identity_grid" in raw:
            _check_keys(raw["identity_grid"], {"temperatures", "volumes", "fd_step"},
                        {"temperatures"}, "identity_grid block")
    elif task == "pareto":
        spec = build_pareto(raw["pareto"])
        temperature = raw["temperature"]
        if not 0 < temperature < spec.t_max:
            raise ConfigError(f"temperature must lie in (0, t_max), got {temperature}")
        if "dynamics" in raw:
            _check_keys(raw["dynamics"], {"mean_log_excess", "steps", "burn_in", "thin"},
                        {"mean_log_excess", "steps"}, "dynamics block")
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


def _positive_list(values, context: str) -> None:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{context} must be a non-empty list")
    if any(not isinstance(v, (int, float)) or v <= 0 for v in values):
        raise ConfigError(f"{context} must contain positive numbers")


def _resolve_parent(document: dict, dotted: str):
    """Walk a dotted path to its parent container; raises if absent."""
    parts = dotted.split(".")
    node = document
    for part in parts[:-1]:
        if isinstance(node, list):
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
        if int(leaf) >= len(node):
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

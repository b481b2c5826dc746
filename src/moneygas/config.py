"""Configuration parsing that knows no task: JSON types, model blocks, paths.

A schema maps each key of a JSON object to a checker ``(value, name)`` that
raises ``ConfigError`` or returns the value converted; a key ending in "?"
is optional and a nested dict is the schema of a nested block. Unknown keys
are rejected at every level so a typo fails loudly instead of silently
running the default. The task table that says which document each verb
reads lives in ``runner``; the full schema is documented in the README.
"""

from __future__ import annotations

import sys

from .dynamics import DynamicsError, recording_window
from .ensembles import ModelKind, ModelSpec, ModelValidationError, MoneygasError
from .pareto import ParetoError, ParetoSpec


class ConfigError(MoneygasError):
    """Malformed configuration document."""


def integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be an integer in floating-point range, got {value!r}")
    return value


def number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def boolean(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def items(checker):
    """Checker of a list whose entries all pass ``checker``; returns a tuple."""
    def check(value, name: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(checker(entry, name) for entry in value)
    return check


def positive_numbers(value, name: str) -> tuple[float, ...]:
    values = items(number)(value, name)
    if not values or min(values) <= 0:
        raise ConfigError(f"{name} must be a non-empty list of positive numbers")
    return values


def check_document(block, schema: dict, context: str) -> dict:
    """Check ``block`` against ``schema``; returns its fields converted."""
    json_object(block, context)
    fields = {key.rstrip("?"): checker for key, checker in schema.items()}
    unknown = set(block) - set(fields)
    if unknown:
        raise ConfigError(f"unknown field(s) in {context}: {sorted(unknown)}")
    missing = {key for key in schema if not key.endswith("?")} - set(block)
    if missing:
        raise ConfigError(f"missing required field(s) in {context}: {sorted(missing)}")
    return {key: check_document(value, fields[key], f"{key} block") if isinstance(fields[key], dict)
            else fields[key](value, key) for key, value in block.items()}


_MODEL_FIELDS: dict[str, dict] = {
    # kind -> schema of its fields besides kind and n_agents
    "cash_only": {"volume_y": number},
    "overdraft": {"volume_x": number, "overdraft": number, "q0?": number},
    "multi_account": {"accounts_per_agent": items(integer), "account_overdrafts": items(items(number))},
    "combined": {"overdraft": number},
    "restricted": {"overdraft": number},
    "credit_market": {"volume_x": number, "q0?": number},
    "multi_asset": {"asset_classes": integer},
}


def build_model(block: dict) -> ModelSpec:
    """Construct and validate a ModelSpec from its JSON block."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("model block must be an object with a 'kind' field")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise ConfigError(f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_FIELDS)}")
    fields = check_document(block, {"kind": string, "n_agents": integer, **_MODEL_FIELDS[kind]},
                            f"model ({kind})")
    try:
        return ModelSpec(ModelKind(fields.pop("kind")), fields.pop("n_agents"), **fields)
    except ModelValidationError as exc:
        raise ConfigError(f"infeasible model: {exc}") from exc


def build_pareto(block: dict) -> ParetoSpec:
    fields = check_document(block, {"n_agents": integer, "floor_j": number, "t_max": number,
                                    "volume?": number}, "pareto block")
    try:
        return ParetoSpec(**fields)
    except ParetoError as exc:
        raise ConfigError(f"infeasible income model: {exc}") from exc


# numpy refuses an array of more bytes than its largest index, sys.maxsize (np.intp's
# maximum); chains and samplers hold 8-byte values.
MAX_ARRAY_VALUES = sys.maxsize // 8
# Each replica adds one report entry and one manifest seed, so both stay finite.
MAX_REPLICAS = 10**6


def check_array_size(count: int, what: str) -> None:
    if count > MAX_ARRAY_VALUES:
        raise ConfigError(f"{what} needs an array of {count} values; numpy holds at most {MAX_ARRAY_VALUES}")


def check_window(block: dict, n_agents: int, width: int) -> int:
    """Check a chain's window: 2 <= N with ``width`` values per record in one
    array, the window rules of ``dynamics.recording_window``, enough records
    that the N·records pooled values reach the 10 the KS check needs, and few
    enough that the records·width recorded values fit numpy's largest array.
    Returns that number of recorded values."""
    if n_agents < 2:
        raise ConfigError(f"pair exchange needs n_agents >= 2, got {n_agents}")
    check_array_size(width, f"a chain of {n_agents} agents")
    try:
        _, thin, records = recording_window(n_agents, block["steps"], block.get("burn_in"), block.get("thin"))
    except DynamicsError as exc:
        raise ConfigError(str(exc)) from exc
    if records * n_agents < 10:
        raise ConfigError(f"thin={thin} must record at least 10 values ({records} records of {n_agents} agents)")
    check_array_size(records * width, f"recording {records} records of {width} values")
    return records * width


def get_by_path(document, dotted: str):
    """The value at a dotted path. A segment is an object's key or, when it is
    all decimal digits, a list's index; KeyError if the path does not exist."""
    node = document
    for part in dotted.split("."):
        try:
            node = node[int(part) if isinstance(node, list) and part.isdecimal() else part]
        except (LookupError, TypeError, ValueError) as exc:  # ValueError: an index past int()'s digit limit
            raise KeyError(f"no field {dotted!r}: missing segment {part!r}") from exc
    return node


def set_by_path(document: dict, dotted: str, value) -> None:
    """Replace the value at a dotted path that exists (see ``get_by_path``)."""
    parent, dot, leaf = dotted.rpartition(".")
    try:
        node = get_by_path(document, parent) if dot else document
        get_by_path(node, leaf)
    except KeyError as exc:
        raise ConfigError(f"sweep path {dotted!r} does not exist in the base configuration") from exc
    node[int(leaf) if isinstance(node, list) else leaf] = value

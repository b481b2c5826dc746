"""Fuzz the CLI with mutated configuration documents.

Every document, however malformed, must end in a return code (0 success,
1 acceptance failure, 2 input that cannot be run) and never in an escaping
exception, and every JSON file it writes must be strict JSON (no NaN or
Infinity). The documents are the shipped analytic and transform configs,
small simulate, pareto and sweep documents, and one model block per kind,
each mutated by replacing, deleting or adding fields with arbitrary JSON
values. Simulate documents also draw ``replicas``.
"""

import contextlib
import copy
import io
import json
import tempfile
from datetime import timedelta
from functools import reduce
from operator import getitem
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from moneygas.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SIMULATE = {"task": "simulate", "seed": 1, "model": {"kind": "cash_only", "n_agents": 10, "volume_y": 50.0},
            "run": {"policy": "equal", "total": 100.0, "steps": 3_000, "burn_in": 1_000, "thin": 100}}
BASES = [json.loads((CONFIGS / name).read_text())
         for name in ("analytic_grid.json", "carnot_transform.json")] + [
    SIMULATE,
    {"task": "pareto", "seed": 1, "pareto": {"n_agents": 10, "floor_j": 1.0, "t_max": 3.0},
     "temperature": 1.0, "direct_samples": 1_000, "scan": {"temperatures": [0.5, 1.5, 2.5]},
     "dynamics": {"mean_log_excess": 0.5, "steps": 3_000, "burn_in": 1_000, "thin": 100}},
    {"task": "sweep", "base": SIMULATE, "grid": {"run.total": [50.0, 100.0]}, "seeds": [1, 2]},
]
MODEL_BLOCKS = [
    {"kind": "cash_only", "n_agents": 10, "volume_y": 50.0},
    {"kind": "overdraft", "n_agents": 10, "volume_x": 100.0, "overdraft": 5.0, "q0": 100.0},
    {"kind": "multi_account", "n_agents": 2, "accounts_per_agent": [1, 2],
     "account_overdrafts": [[1.0], [0.0, 2.0]]},
    {"kind": "combined", "n_agents": 10, "overdraft": 10.0},
    {"kind": "restricted", "n_agents": 10, "overdraft": 1.0},
    {"kind": "credit_market", "n_agents": 10, "volume_x": 1000.0},
    {"kind": "multi_asset", "n_agents": 10, "asset_classes": 3},
]

# Small integers keep a valid chain, replica count or sample count inside the
# deadline; 10**400 lies outside float range, which every type check rejects.
INTEGERS = st.integers(-3, 50) | st.just(10**400)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Numbers in place of numbers get past the type checks into the pipelines.
REPLACEMENTS = st.floats() | INTEGERS | st.lists(st.floats(), min_size=1, max_size=3) | JSON_VALUES
# 2**60 lies in float range but past the replica bound; a run of that many would never end.
COUNTS = INTEGERS | st.just(2**60)


def _paths(node, prefix=()):
    """Every non-root path into a JSON document, as key/index tuples."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    document = copy.deepcopy(draw(st.sampled_from(BASES)))
    verb = document["task"]
    if "model" in document and draw(st.booleans()):
        document["model"] = copy.deepcopy(draw(st.sampled_from(MODEL_BLOCKS)))
    # Unmutated documents run, so the drawn counts reach the pipeline.
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(document))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = reduce(getitem, path[:-1], document)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(REPLACEMENTS)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=8))] = draw(JSON_VALUES)
        else:
            parent.insert(path[-1], draw(JSON_VALUES))
    if verb == "simulate" and draw(st.booleans()):
        document["replicas"] = draw(COUNTS)
    return verb, document


# derandomize: every run draws the same documents, so a failure reproduces as is.
@settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_documents())
@example(case=("simulate", dict(SIMULATE, replicas=4)))
@example(case=("simulate", dict(SIMULATE, replicas=2**60)))
# Identity-grid terms past the float range: inf - inf reached math.fsum.
@example(case=("transform", {"task": "transform",
                             "model": {"kind": "combined", "n_agents": 10**15, "overdraft": 2.0},
                             "identity_grid": {"temperatures": [1e300]}}))
# Cycles whose last adiabat spans hundreds of decades (the spaced end volume cancelled to 0)
# and whose path rows leave the float range.
@example(case=("transform", {"task": "transform",
                             "model": {"kind": "overdraft", "n_agents": 10**15, "volume_x": 1e8, "overdraft": 1e8},
                             "cycle": {"t_hot": 1.0, "t_cold": 1e-300, "v1": 0.5, "v2": 1e8}}))
@example(case=("transform", {"task": "transform",
                             "model": {"kind": "overdraft", "n_agents": 2, "volume_x": 1e-300,
                                       "overdraft": 1e-300},
                             "cycle": {"t_hot": 1e300, "t_cold": 3.0, "v1": 1e-300, "v2": 1e-8}}))
def test_mutated_documents_end_in_an_exit_code(case):
    verb, document = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(document))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([verb, "-c", str(path), "-o", str(Path(tmp) / "out")])
        # Only the outputs: the input document itself may hold Infinity.
        for written in (Path(tmp) / "out").rglob("*.json"):
            json.loads(written.read_text(), parse_constant=_reject_constant)
    assert code in (0, 1, 2)


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")

"""Workload definitions: the pipeline configs each workload runs, made from a seed.

Every workload is a list of (row name, CLI verb, config document) run one
pipeline process at a time. With the default seed the ``samples-io`` and
``income-pareto`` documents equal the shipped ``configs/cash_only_simulate.json``
and ``configs/pareto_full.json``; ``table-replicas`` is the paper-table rows of
``tests/test_acceptance.py::table_rows`` at the criterion-1 window.
"""

from __future__ import annotations

DEFAULT_SEED = 20260810

# Replicas per table row. Forty short chains keep the KS pass-fraction check
# meaningful (it allows two 1%-level failures) and the workload near 10 s.
TABLE_REPLICAS = 10

TABLE_ROWS = (
    ("cash_only", {"kind": "cash_only", "n_agents": 1000, "volume_y": 50.0}, 10000.0),
    ("overdraft", {"kind": "overdraft", "n_agents": 1000, "volume_x": 100.0, "overdraft": 5.0,
                   "q0": 10000.0}, 10000.0),
    ("combined", {"kind": "combined", "n_agents": 1000, "overdraft": 10.0}, 10000.0),
    ("credit_market", {"kind": "credit_market", "n_agents": 1000, "volume_x": 100000.0}, 5000.0),
)


def samples_io(seed: int) -> list[tuple[str, str, dict]]:
    return [("cash_only", "simulate", {
        "task": "simulate",
        "seed": seed,
        "model": {"kind": "cash_only", "n_agents": 1000, "volume_y": 50.0},
        "run": {"policy": "equal", "total": 10000.0, "steps": 10000000, "burn_in": 100000,
                "thin": 5000},
        "replicas": 1,
    })]


def table_replicas(seed: int) -> list[tuple[str, str, dict]]:
    return [(name, "simulate", {
        "task": "simulate",
        "seed": seed,
        "model": model,
        "run": {"policy": "equal", "total": total, "steps": 1100000, "burn_in": 100000,
                "thin": 5000},
        "replicas": TABLE_REPLICAS,
        "write_samples": False,
    }) for name, model, total in TABLE_ROWS]


def income_pareto(seed: int) -> list[tuple[str, str, dict]]:
    return [("pareto", "pareto", {
        "task": "pareto",
        "seed": seed,
        "pareto": {"n_agents": 1000, "floor_j": 1.0, "t_max": 3.0},
        "temperature": 1.0,
        "direct_samples": 100000,
        "dynamics": {"mean_log_excess": 0.5, "steps": 4000000, "burn_in": 100000, "thin": 5000},
        "scan": {"temperatures": [0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1, 2.4, 2.7, 2.97]},
    })]


WORKLOADS = {
    "samples-io": samples_io,
    "table-replicas": table_replicas,
    "income-pareto": income_pareto,
}

"""Chain replay: the split of ``run_chain`` into init, sweep, record and audit.

    python3 bench/replay.py REQUEST_JSON RESULT_JSON

``run_chain`` is one call, so a span around it cannot say where its time
goes. The replay repeats its loop through the public ``init_population``,
``advance``, ``recorded_coordinates`` and ``Population.check_invariants``
with the same arguments and seed, so it draws the same random numbers and
applies the same events; it times each part and counts events, rejected
events, records and audits exactly. The caller compares those counts and
the drift with the pipeline's report, which shows the replay is faithful.

REQUEST_JSON holds ``{"seed": int, "simulate": [config, ...]}``. Every
replica of every simulate config is replayed ("chains"), then one chain per
simulable model kind at the criterion-1 window ("kernels"), so kinds no
workload runs (restricted, multi_asset) still get a ns/event figure.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from workloads import TABLE_ROWS

SRC = Path(__file__).resolve().parent.parent / "src"

# (kind, model block, conserved total); total None means "restricted at T = 1".
KERNELS = (
    *TABLE_ROWS,
    ("restricted", {"kind": "restricted", "n_agents": 1000, "overdraft": 1.0}, None),
    ("multi_asset", {"kind": "multi_asset", "n_agents": 1000, "asset_classes": 3}, 9000.0),
)
KERNEL_WINDOW = {"policy": "equal", "steps": 1100000, "burn_in": 100000, "thin": 5000}


def replay_chain(spec, policy, total, steps, burn_in, thin, seed) -> dict:
    """``run_chain``'s loop, timed part by part; returns times and exact counts."""
    import numpy as np
    from moneygas.dynamics import AUDIT_INTERVAL, advance, init_population, recorded_coordinates

    clock = time.perf_counter
    t0 = clock()
    rng = np.random.default_rng(seed)
    pop = init_population(spec, policy, total, rng=rng)
    scale = pop.coordinate_scale()
    init_s = clock() - t0

    n_records = (steps - burn_in) // thin
    snapshots = []
    events = phase = next_record = audits = 0
    next_audit = AUDIT_INTERVAL
    max_drift = sweep_s = record_s = audit_s = 0.0

    def audit() -> None:
        nonlocal audits, max_drift, audit_s
        t = clock()
        pop.check_invariants()
        max_drift = max(max_drift, abs(pop.conserved_value() - pop.conserved_total) / scale)
        audits += 1
        audit_s += clock() - t

    while events < steps or next_record < n_records:
        # advance() stops after the first sweep that reaches the target, which
        # is where run_chain's per-sweep record and audit tests would fire.
        targets = [next_audit]
        if events < steps:
            targets.append(steps)
        if next_record < n_records:
            targets.append(burn_in + (next_record + 1) * thin)
        t0 = clock()
        done, phase = advance(pop, rng, min(targets) - events, phase)
        t1 = clock()
        sweep_s += t1 - t0
        events += done
        while next_record < n_records and burn_in + (next_record + 1) * thin <= events:
            snapshots.append(recorded_coordinates(pop))
            next_record += 1
        record_s += clock() - t1
        if events >= next_audit:
            audit()
            next_audit += AUDIT_INTERVAL
    audit()
    t0 = clock()
    coords = {name: np.stack([snap[name] for snap in snapshots]) for name in snapshots[0]}
    record_s += clock() - t0
    del coords
    return {
        "events": events, "rejected": pop.rejected_events, "records": next_record,
        "audits": audits, "max_drift": max_drift, "init_s": init_s, "sweep_s": sweep_s,
        "record_s": record_s, "audit_s": audit_s,
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    from moneygas import mean_money_restricted
    from moneygas.config import build_model
    from moneygas.runner import derive_seed

    request = json.loads(Path(argv[0]).read_text())
    chains = []
    for config in request["simulate"]:
        spec = build_model(config["model"])
        run = config["run"]
        for index in range(config.get("replicas", 1)):
            seed = derive_seed(config["seed"], index)
            chains.append(replay_chain(spec, run["policy"], float(run["total"]), run["steps"],
                                       run["burn_in"], run["thin"], seed))
    kernels = {}
    for kind, model, total in KERNELS:
        spec = build_model(model)
        if total is None:
            total = mean_money_restricted(spec, 1.0)
        w = KERNEL_WINDOW
        kernels[kind] = replay_chain(spec, w["policy"], total, w["steps"], w["burn_in"], w["thin"],
                                     request["seed"])
    Path(argv[1]).write_text(json.dumps({"chains": chains, "kernels": kernels}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

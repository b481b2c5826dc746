"""The benchmark's hooks into the package, so that a refactor cannot break them unseen.

``bench/child.py`` wraps package functions and methods by attribute name,
``bench/workloads.py`` holds the documents the benchmark runs, and
``bench/replay.py`` repeats ``run_chain``'s loop through public names.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from moneygas.cli import main
from moneygas.dynamics import run_chain
from moneygas.ensembles import ModelSpec, mean_money_restricted
from moneygas.runner import validate_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    """``bench/<name>.py`` as a module of its own, outside ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    module = load("workloads")
    monkeypatch.setitem(sys.modules, "workloads", module)  # replay.py imports it by that name
    return module


def test_traced_runs_record_every_span_and_keep_the_writers_apart(tmp_path, monkeypatch):
    child = load("child")
    wrapped = []

    class Tracer(child.Tracer):
        def wrap(self, owner, attr, name, count=None):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))  # put back when the test ends
            wrapped.append(name)
            super().wrap(owner, attr, name, count)

    tracer = Tracer()
    child.install_tracing(tracer)
    documents = {
        "simulate": {"task": "simulate", "seed": 1, "model": {"kind": "combined", "n_agents": 20, "overdraft": 1.0},
                     "run": {"policy": "equal", "total": 50.0, "steps": 20_000, "burn_in": 2_000, "thin": 500}},
        "pareto": {"task": "pareto", "seed": 2, "pareto": {"n_agents": 20, "floor_j": 1.0, "t_max": 3.0},
                   "temperature": 1.0, "direct_samples": 1_000,
                   "dynamics": {"mean_log_excess": 0.5, "steps": 20_000, "burn_in": 2_000, "thin": 200},
                   "scan": {"temperatures": [1.0, 2.0]}},
    }
    for verb, document in documents.items():
        config = tmp_path / f"{verb}.json"
        config.write_text(json.dumps(document))
        assert main([verb, "-c", str(config), "-o", str(tmp_path / verb)]) == 0
    spans = tracer.spans
    assert {span["name"] for span in spans} == set(wrapped)
    for verb, name in (("simulate", "dynamics.samples_csv"), ("pareto", "pareto.samples_csv")):
        counted = sum(span["bytes"] for span in spans if span["name"] == name)  # len() of each chunk
        assert counted == (tmp_path / verb / "samples.csv").stat().st_size
    for span in spans:
        assert span["end"] >= span["start"]
        parent = span["parent"]
        while span["name"] == "dynamics.samples_csv" and parent is not None:
            assert spans[parent]["name"] != "pareto.samples_csv"
            parent = spans[parent]["parent"]


def test_workload_documents_are_valid(workloads):
    for make in workloads.WORKLOADS.values():
        for _, verb, document in make(workloads.DEFAULT_SEED):
            assert document["task"] == verb
            validate_config(document)


def test_replay_counts_what_the_chain_ran(workloads):
    replay = load("replay")
    spec = ModelSpec.restricted(20, 1.0)  # a bounded kind, so some events are rejected
    window = (spec, "equal", mean_money_restricted(spec, 1.0), 20_000, 2_000, 500)
    replayed = replay.replay_chain(*window, 3)
    meta = run_chain(*window, seed=3).meta
    assert replayed["rejected"] > 0
    assert (replayed["events"], replayed["rejected"], replayed["records"]) == (
        meta.events_run, meta.rejected_events, (20_000 - 2_000) // 500)
    assert replayed["audits"] == 1 and replayed["max_drift"] <= 1e-9

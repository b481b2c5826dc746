import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from moneygas import dynamics, runner
from moneygas.cli import main
from moneygas.config import MAX_ARRAY_VALUES, MAX_REPLICAS, ConfigError, build_model, build_pareto
from moneygas.dynamics import KERNELS, ConservationError, SampleSet, run_chain
from moneygas.ensembles import ModelKind, MoneygasError, temperature_closed_form
from moneygas.estimation import EstimationError, fit_shifted_exponential, histogram, ks_statistic_exponential
from moneygas.pareto import IncomeSampleSet, run_income_chain
from moneygas.runner import compare_report, derive_seed, load_config, run_experiment, validate_config
from moneygas.worker import interleaved

MODEL = {"kind": "cash_only", "n_agents": 50, "volume_y": 10.0}
RUN = {"policy": "equal", "total": 500.0, "steps": 60_000, "burn_in": 5_000, "thin": 500}

UNRUNNABLE_SIMULATE = {
    # 2^59 - 1 records of the K = 3 accounts pass numpy's largest array, though
    # records times the N = 2 agents do not: numpy used to refuse the allocation.
    "multi_account_records_beyond_numpy_bytes": {
        "model": {"kind": "multi_account", "n_agents": 2, "accounts_per_agent": [1, 2],
                  "account_overdrafts": [[1.0], [1.0, 1.0]]},
        "run": dict(RUN, steps=2**59 - 1, burn_in=0, thin=1)},
    "one_agent": {"model": dict(MODEL, n_agents=1)},
    "fractional_thin": {"run": dict(RUN, thin=2.5)},
    "fractional_burn_in": {"run": dict(RUN, burn_in=2.5)},
    "no_records": {"run": dict(RUN, steps=5_100, burn_in=5_000, thin=500)},
    "too_few_values_for_ks": {"model": dict(MODEL, n_agents=2),
                              "run": dict(RUN, steps=2_000, burn_in=1_000, thin=1_000)},
    # 190 records summing to 1.7e308 each: the pooled sums overflow, and numpy
    # used to print its overflow warnings before the one-line error.
    "total_past_float_range": {"model": dict(MODEL, n_agents=10), "replicas": 2,
                               "run": dict(RUN, total=1.7e308, steps=20_000, burn_in=1_000, thin=100)},
}


def simulate_config(seed=7, **extra):
    document = {"task": "simulate", "seed": seed, "model": dict(MODEL), "run": dict(RUN)}
    document.update(extra)
    return document


COMBINED = {"kind": "combined", "n_agents": 10, "overdraft": 1.0}
# Overdrafts summing past the float range used to give an infinite temperature.
MULTI_ACCOUNT_OVERFLOW = {"kind": "multi_account", "n_agents": 2, "accounts_per_agent": [1, 1],
                          "account_overdrafts": [[1e308], [1e308]]}
CREDIT_MARKET = {"kind": "credit_market", "n_agents": 100, "volume_x": 1000.0}
CYCLE = {"t_hot": 4.0, "t_cold": 2.0, "v1": 1.0, "v2": 2.0}
ONE_AGENT_CREDIT = {"kind": "credit_market", "n_agents": 1, "volume_x": 1.0}
PARETO = {"task": "pareto", "pareto": {"n_agents": 10, "floor_j": 1.0, "t_max": 3.0},
          "temperature": 1.0}
DYNAMICS = {"mean_log_excess": 0.5, "steps": 4_000, "burn_in": 1_000, "thin": 100}
ONE_RECORD = dict(RUN, steps=2, burn_in=1, thin=1)
# Inputs other verbs cannot run, each with a model or block the runner used to
# accept, crash on, or silently reinterpret.
UNRUNNABLE_INPUTS = {
    "cycle_on_volumeless_model": {"task": "transform", "model": COMBINED, "cycle": CYCLE},
    # Cycles whose states, work or credit leave the float range; the last two used
    # to end in a ValueError from fsum and a ZeroDivisionError.
    "cycle_volume_ratio_past_float_range": {
        "task": "transform", "model": ONE_AGENT_CREDIT, "cycle": dict(CYCLE, v1=1e-300, v2=1e300)},
    "cycle_temperature_ratio_past_float_range": {
        "task": "transform", "model": ONE_AGENT_CREDIT, "cycle": dict(CYCLE, t_hot=1e300, t_cold=1e-300)},
    "cycle_work_past_float_range": {
        "task": "transform", "model": dict(ONE_AGENT_CREDIT, n_agents=10**10),
        "cycle": dict(CYCLE, t_hot=1e300, t_cold=1e299)},
    "cycle_credit_underflow": {
        "task": "transform", "model": ONE_AGENT_CREDIT,
        "cycle": dict(CYCLE, t_hot=1e-310, t_cold=5e-311, v2=1.0000000000000002)},
    "grid_volumes_on_volumeless_model": {
        "task": "transform", "model": COMBINED,
        "identity_grid": {"temperatures": [1.0], "volumes": [5.0]}},
    "analytic_multi_account_overdrafts_past_float_range": {
        "task": "analytic", "model": MULTI_ACCOUNT_OVERFLOW, "temperatures": [1.0]},
    "simulate_multi_account_overdrafts_past_float_range": {
        "task": "simulate", "model": MULTI_ACCOUNT_OVERFLOW, "run": RUN},
    "credit_market_nonzero_q0": {
        "task": "analytic", "temperatures": [1.0],
        "model": {"kind": "credit_market", "n_agents": 10, "volume_x": 100.0, "q0": 5.0}},
    "fractional_asset_classes": {
        "task": "analytic", "temperatures": [1.0],
        "model": {"kind": "multi_asset", "n_agents": 10, "asset_classes": 2.7}},
    "string_q0": {
        "task": "analytic", "temperatures": [1.0],
        "model": {"kind": "overdraft", "n_agents": 10, "volume_x": 1.0, "overdraft": 1.0, "q0": "abc"}},
    "pareto_burn_in_past_steps": dict(PARETO, dynamics=dict(DYNAMICS, steps=100, burn_in=1_000)),
    "pareto_fractional_thin": dict(PARETO, dynamics=dict(DYNAMICS, thin=2.5)),
    # These four used to pass validation: the first two ran the samplers before
    # the chain or the Hill estimator failed, the third skipped the direct block,
    # and one draw ran the direct sampler before the Hill estimator asked for two.
    "pareto_negative_mean_log_excess": dict(PARETO, direct_samples=1_000,
                                            dynamics=dict(DYNAMICS, mean_log_excess=-0.5)),
    "pareto_zero_mean_log_excess": dict(PARETO, dynamics=dict(DYNAMICS, mean_log_excess=0)),
    "pareto_negative_direct_samples": dict(PARETO, direct_samples=-5),
    "pareto_one_direct_sample": dict(PARETO, direct_samples=1),
    "string_write_samples": {"task": "simulate", "model": MODEL, "run": RUN, "write_samples": "false"},
    "numeric_outputs": {"task": "simulate", "model": MODEL, "run": RUN, "outputs": 5},
    # Finite differences at T near the smallest float overflow to a non-finite residual.
    "analytic_residual_overflow": {"task": "analytic", "model": CREDIT_MARKET, "temperatures": [1e-308]},
    "transform_residual_overflow": {
        "task": "transform", "model": CREDIT_MARKET, "identity_grid": {"temperatures": [1e-308]}},
    # Counts that size a chain or sampler array beyond numpy's largest array.
    "n_agents_beyond_numpy_dimension": {
        "task": "simulate", "model": dict(MODEL, n_agents=2**100), "run": ONE_RECORD},
    "n_agents_beyond_numpy_bytes": {"task": "simulate", "model": dict(MODEL, n_agents=2**62), "run": ONE_RECORD},
    "asset_slots_beyond_numpy_bytes": {
        "task": "simulate", "model": {"kind": "multi_asset", "n_agents": 10, "asset_classes": 2**61},
        "run": ONE_RECORD},
    "pareto_chain_beyond_numpy_bytes": dict(
        PARETO, pareto=dict(PARETO["pareto"], n_agents=2**62), dynamics=dict(DYNAMICS, burn_in=0, thin=1)),
    "direct_samples_beyond_numpy_dimension": dict(PARETO, direct_samples=2**100),
    "direct_samples_beyond_numpy_bytes": dict(PARETO, direct_samples=2**62),
    # ln N! passes the float range, so ln Z is not finite.
    "pareto_log_factorial_overflow": dict(PARETO, pareto=dict(PARETO["pareto"], n_agents=10**306)),
}
# Counts under numpy's array bound whose arrays (2^59 eight-byte values, 4 EiB)
# exceed any address space, so the allocation fails before memory is touched.
BEYOND_MEMORY = {
    "simulate_n_agents": simulate_config(model=dict(MODEL, n_agents=2**59), run=ONE_RECORD),
    "pareto_direct_samples": dict(PARETO, direct_samples=2**59),
    # The chain allocates its records array, 2^58 records of 2 agents, before the first sweep.
    "simulate_records": simulate_config(model=dict(MODEL, n_agents=2),
                                        run=dict(RUN, steps=2**58, burn_in=0, thin=1)),
}
# Expectations whose fields have the wrong JSON type or a negative tolerance; each used to
# crash or be misread (a negative tolerance printed FAIL and exited 1).
MISTYPED_EXPECTATIONS = {"string_value": {"value": "abc"}, "null_tolerance": {"tolerance": None},
                         "string_absolute": {"absolute": "no"}, "negative_tolerance": {"tolerance": -1.0}}


def child_env():
    """Environment for a child interpreter that imports this checkout's package."""
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


class TestConfigValidation:
    def test_minimal_simulate_config(self, tmp_path):
        config = load_config(write_config(tmp_path, simulate_config()))
        assert config["task"] == "simulate"
        assert build_model(config["model"]).n_agents == 50

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_n_agents(self):
        with pytest.raises(ConfigError, match="n_agents"):
            validate_config({"task": "analytic", "temperatures": [1.0],
                             "model": {"kind": "cash_only", "volume_y": 1.0}})

    def test_degenerate_restricted_model(self):
        with pytest.raises(ConfigError, match="degenerate"):
            validate_config(simulate_config(
                model={"kind": "restricted", "n_agents": 10, "overdraft": 0.0}))

    def test_unknown_fields_rejected_at_every_level(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate_config(simulate_config(bogus=1))
        with pytest.raises(ConfigError, match="unknown"):
            validate_config(simulate_config(model={**MODEL, "volume_x": 2.0}))
        bad_run = dict(RUN, extra_knob=3)
        with pytest.raises(ConfigError, match="unknown"):
            validate_config(simulate_config(run=bad_run))

    def test_simulate_workers_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate_config(simulate_config(replicas=2, workers=2))

    @pytest.mark.parametrize("case", ["pareto_negative_mean_log_excess", "pareto_zero_mean_log_excess",
                                      "pareto_negative_direct_samples", "pareto_one_direct_sample"])
    def test_pareto_rules_checked_before_running(self, case):
        with pytest.raises(ConfigError, match="mean_log_excess|direct_samples"):
            validate_config(UNRUNNABLE_INPUTS[case])

    def test_sweep_workers_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate_config({"task": "sweep", "base": simulate_config(),
                             "grid": {"run.total": [250.0]}, "workers": 2})

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="task"):
            validate_config({"task": "frobnicate"})

    def test_replicas_bounded(self):
        # 2**60 replicas used to build a seed list of that length before any chain ran.
        with pytest.raises(ConfigError, match="replicas") as info:
            validate_config(simulate_config(replicas=2**60))
        assert "\n" not in str(info.value)
        validate_config(simulate_config(replicas=MAX_REPLICAS))

    def test_records_array_bounded(self):
        # The records of a window this long exceed numpy's largest array.
        with pytest.raises(ConfigError, match="records") as info:
            validate_config(simulate_config(run=dict(RUN, steps=2**62, burn_in=0, thin=1)))
        assert "\n" not in str(info.value)
        with pytest.raises(ConfigError, match="records"):
            validate_config(dict(PARETO, dynamics=dict(DYNAMICS, steps=2**62, burn_in=0, thin=1)))

    def test_the_array_bound_is_numpys_largest_index_over_8_bytes(self):
        assert MAX_ARRAY_VALUES == np.iinfo(np.intp).max // 8

    def test_sweep_path_must_exist(self):
        with pytest.raises(ConfigError, match="sweep path"):
            validate_config({"task": "sweep", "base": simulate_config(),
                             "grid": {"run.nonexistent": [1, 2]}})
        analytic = {"task": "analytic", "model": MODEL, "temperatures": [1.0, 2.0]}
        for path in ("temperatures.a", "temperatures.a.b", "temperatures.-1"):
            with pytest.raises(ConfigError, match="sweep path"):
                validate_config({"task": "sweep", "base": analytic, "grid": {path: [1.0]}})


class TestSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(123, i) for i in range(64)]
        assert seeds == [derive_seed(123, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert all(0 <= s < 2**64 for s in seeds)

    def test_base_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestRunExperiment:
    def test_simulate_report_and_reproducibility(self, tmp_path):
        config = load_config(write_config(tmp_path, simulate_config()))
        first = run_experiment(config, tmp_path / "a")
        second = run_experiment(config, tmp_path / "b")
        assert first["files"] == second["files"]
        for name in first["files"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["closed_form_temperature"] == 10.0
        assert report["aggregate"]["rel_error"] < 0.03
        assert (tmp_path / "a" / "samples.csv").exists()
        assert (tmp_path / "a" / "histogram.tsv").exists()

    def test_replicas_get_derived_seeds(self, tmp_path):
        config = load_config(write_config(tmp_path, simulate_config(replicas=3)))
        manifest = run_experiment(config, tmp_path / "out")
        assert manifest["replica_seeds"] == [derive_seed(7, i) for i in range(3)]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["replicas"]) == 3
        ks_values = {r["fits"]["x"]["ks_d"] for r in report["replicas"]}
        assert len(ks_values) == 3  # independent streams

    def test_samples_come_from_the_first_replica(self, tmp_path):
        one = run_experiment(load_config(write_config(tmp_path, simulate_config(), "1.json")), tmp_path / "one")
        two = run_experiment(load_config(write_config(tmp_path, simulate_config(replicas=2), "2.json")),
                             tmp_path / "two")
        assert two["files"]["samples.csv"] == one["files"]["samples.csv"]
        assert two["files"]["histogram.tsv"] == one["files"]["histogram.tsv"]
        reports = [json.loads((tmp_path / name / "report.json").read_text()) for name in ("one", "two")]
        assert reports[1]["replicas"][0] == reports[0]["replicas"][0]

    def test_sweep_manifest_entries(self, tmp_path):
        document = {
            "task": "sweep",
            "base": simulate_config(write_samples=False),
            "grid": {"run.total": [250.0]},
            "seeds": list(range(10)),
        }
        config = load_config(write_config(tmp_path, document))
        manifest = run_experiment(config, tmp_path / "sweep")
        assert len(manifest["runs"]) == 10
        assert [r["seed"] for r in manifest["runs"]] == list(range(10))
        for entry in manifest["runs"]:
            assert (tmp_path / "sweep" / entry["run"] / "manifest.json").exists()

    def test_output_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MONEYGAS_OUT_ROOT", str(tmp_path / "root"))
        config = load_config(write_config(tmp_path, simulate_config(write_samples=False)))
        run_experiment(config, "nested/out")
        assert (tmp_path / "root" / "nested" / "out" / "report.json").exists()

    def test_sweep_applies_a_relative_output_root_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MONEYGAS_OUT_ROOT", "rel")
        document = {"task": "sweep", "base": simulate_config(write_samples=False),
                    "grid": {"run.total": [250.0]}}
        run_experiment(load_config(write_config(tmp_path, document)), "out_sw")
        top = tmp_path / "rel" / "out_sw"
        assert (top / "manifest.json").exists()
        assert (top / "run_000" / "manifest.json").exists()


# 80 values per samples.csv chunk: 2 records of 20 agents' (x, y), 4 of 20 incomes;
# 110 and 30 records, so 55 and 8 blocks.
BLOCK_VALUES = 80
STREAMED = {
    "simulate": (simulate_config(model=dict(COMBINED, n_agents=20), run=dict(RUN, total=100.0)), 2),
    "pareto": (dict(PARETO, seed=3, pareto=dict(PARETO["pareto"], n_agents=20), dynamics=DYNAMICS), 4),
}


def whole_samples(document):
    """The recorded samples that a run of ``document`` writes to samples.csv."""
    if document["task"] == "simulate":
        run = document["run"]
        return run_chain(build_model(document["model"]), run["policy"], run["total"], run["steps"],
                         run["burn_in"], run["thin"], seed=derive_seed(document["seed"], 0))
    dyn = document["dynamics"]
    return run_income_chain(build_pareto(document["pareto"]), dyn["mean_log_excess"], dyn["steps"],
                            dyn["burn_in"], dyn["thin"], seed=derive_seed(document["seed"], 1))


def count_forks(monkeypatch) -> list[int]:
    """Wrap ``os.fork``; the returned list collects the pid of every child forked.
    Each fork first checks that every earlier child has been reaped."""
    pids, fork = [], os.fork

    def counted():
        for earlier in pids:
            assert_reaped(earlier)
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_reaped(pid: int) -> None:
    with pytest.raises(ChildProcessError):  # no longer a child of this process, not even a zombie
        os.waitpid(pid, os.WNOHANG)


# 500 records of 1000 agents (3.8 MiB, 61 blocks of STREAM_BLOCK doubles), for the peak after the chain.
PEAK_AGENTS, PEAK_RECORDS = 1_000, 500
PEAK_RUN = dict(RUN, total=10_000.0, steps=(PEAK_RECORDS + 1) * PEAK_AGENTS, burn_in=PEAK_AGENTS, thin=PEAK_AGENTS)
PEAK_RECORDS_BYTES = PEAK_RECORDS * PEAK_AGENTS * 8
BLOCK_BYTES = dynamics.STREAM_BLOCK * 8


def post_chain_peak(tmp_path, monkeypatch, document) -> int:
    """The traced peak of a run of ``document`` from the moment its chain returns;
    the records are already held then, and counted."""
    config = load_config(write_config(tmp_path, document))
    run_experiment(config, tmp_path / "warm")  # the compiled library and the lazy imports load untraced
    name = "run_chain" if document["task"] == "simulate" else "run_income_chain"
    chain = getattr(runner, name)

    def traced(*args, **kwargs):
        samples = chain(*args, **kwargs)
        tracemalloc.reset_peak()
        return samples

    monkeypatch.setattr(runner, name, traced)
    tracemalloc.start()
    try:
        run_experiment(config, tmp_path / "out")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedOutputs:
    """samples.csv is formatted a block at a time, in the run's process."""

    @pytest.mark.parametrize("task", ["simulate", "pareto"])
    def test_the_peak_after_the_chain_is_the_records_plus_a_few_blocks(self, tmp_path, monkeypatch, task):
        # A samples.csv block of STREAM_BLOCK values is about 4 blocks of text in the row
        # buffer and 2.5 of orjson's literals; 10.1 (simulate) and 10.6 blocks (pareto) were
        # measured, against 52 and 57 with the former 32,768-value CSV and 65,536-value KS blocks.
        if task == "simulate":
            document = simulate_config(model=dict(MODEL, n_agents=PEAK_AGENTS), run=PEAK_RUN)
        else:
            dyn = dict(DYNAMICS, steps=PEAK_RUN["steps"], burn_in=PEAK_AGENTS, thin=PEAK_AGENTS)
            document = dict(PARETO, seed=3, pareto=dict(PARETO["pareto"], n_agents=PEAK_AGENTS), dynamics=dyn)
        assert post_chain_peak(tmp_path, monkeypatch, document) < PEAK_RECORDS_BYTES + 12 * BLOCK_BYTES

    @pytest.mark.parametrize("task", sorted(STREAMED))
    def test_samples_stream_in_blocks_through_tmp_files(self, tmp_path, monkeypatch, task):
        forks = count_forks(monkeypatch)
        calls = []
        for cls in (SampleSet, IncomeSampleSet):
            def counted(self, start=0, stop=None, buffer=None, inner=cls.csv_bytes):
                calls.append((os.getpid(), start, stop))
                return inner(self, start, stop, buffer)
            monkeypatch.setattr(cls, "csv_bytes", counted)
        monkeypatch.setattr(dynamics, "STREAM_BLOCK", BLOCK_VALUES)
        document, block = STREAMED[task]
        out = tmp_path / "out"
        manifest = run_experiment(load_config(write_config(tmp_path, document)), out)
        whole = whole_samples(document)
        blocks = [(start, start + block) for start in range(0, whole.n_records, block)]
        assert calls == [(os.getpid(), start, stop) for start, stop in blocks]  # each once, in order, here
        assert forks == []  # a samples.csv-only run forks nothing
        assert (out / "samples.csv").read_bytes() == whole.csv_bytes()
        for name, digest in manifest["files"].items():
            assert digest == "sha256:" + hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["files"], "manifest.json"])

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("task", sorted(STREAMED))
    def test_any_block_count_writes_the_whole_csv(self, tmp_path, monkeypatch, task, blocks):
        forks = count_forks(monkeypatch)
        document, _ = STREAMED[task]
        whole = whole_samples(document)
        per_record = BLOCK_VALUES // STREAMED[task][1]
        monkeypatch.setattr(dynamics, "STREAM_BLOCK", -(-whole.n_records // blocks) * per_record)
        out = tmp_path / "out"
        manifest = run_experiment(load_config(write_config(tmp_path, document)), out)
        assert (out / "samples.csv").read_bytes() == whole.csv_bytes()
        assert manifest["files"]["samples.csv"] == "sha256:" + hashlib.sha256(whole.csv_bytes()).hexdigest()
        assert forks == []

    @pytest.mark.parametrize("error", [RuntimeError, MemoryError])
    def test_a_failing_block_leaves_no_tmp_file_and_no_manifest(self, tmp_path, monkeypatch, error):
        def failing(self, start=0, stop=None, buffer=None, inner=SampleSet.csv_bytes):
            if start > 0:  # the second block
                raise error("formatting failed here")
            return inner(self, start, stop, buffer)

        monkeypatch.setattr(SampleSet, "csv_bytes", failing)
        monkeypatch.setattr(dynamics, "STREAM_BLOCK", BLOCK_VALUES)
        out = tmp_path / "out"
        with pytest.raises(error, match="formatting failed here"):
            run_experiment(load_config(write_config(tmp_path, STREAMED["simulate"][0])), out)
        assert not out.exists()  # the run removes the directory it made

    def test_a_failing_chunk_stream_leaves_no_tmp_file_and_no_manifest(self, tmp_path, monkeypatch):
        def pipeline(config, stage):
            def chunks():
                yield b"step,agent,coord_name,value\n"
                raise RuntimeError("formatting failed")
            stage("samples.csv", chunks())
            return {"task": "simulate"}, []

        monkeypatch.setitem(runner.TASKS, "simulate",
                            dataclasses.replace(runner.TASKS["simulate"], pipeline=pipeline))
        out = tmp_path / "out"
        out.mkdir()
        (out / "samples.csv").write_bytes(b"an earlier run")
        with pytest.raises(RuntimeError, match="formatting failed"):
            run_experiment(load_config(write_config(tmp_path, simulate_config())), out)
        assert sorted(p.name for p in out.iterdir()) == ["samples.csv"]
        assert (out / "samples.csv").read_bytes() == b"an earlier run"

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_a_bytes_like_file_is_written_as_one_chunk(self, tmp_path, monkeypatch, kind):
        text = b"step,agent,coord_name,value\n0,0,x,1.5\n"

        def pipeline(config, stage):
            stage("samples.csv", kind(text))
            return {"task": "simulate"}, []

        monkeypatch.setitem(runner.TASKS, "simulate",
                            dataclasses.replace(runner.TASKS["simulate"], pipeline=pipeline))
        out = tmp_path / "out"
        manifest = runner._run_in(simulate_config(), out)
        assert (out / "samples.csv").read_bytes() == text
        assert manifest["files"]["samples.csv"] == "sha256:" + hashlib.sha256(text).hexdigest()

    def test_a_failure_after_samples_csv_was_staged_leaves_no_directory(self, tmp_path, monkeypatch, capsys):
        staged = []

        def ks(*args):
            staged.extend(p.name for p in out.iterdir())
            raise EstimationError("the KS check failed")

        monkeypatch.setattr(runner, "ks_statistic_exponential", ks)
        out = tmp_path / "made" / "out"
        code = main(["simulate", "-c", str(write_config(tmp_path, simulate_config())), "-o", str(out)])
        assert code == 2 and capsys.readouterr().err == "configuration error: the KS check failed\n"
        assert staged == ["samples.csv.tmp"]  # replica 0's KS check, after its samples.csv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def assert_no_tmp_and_no_stale_manifest(out: Path) -> None:
    """No ``.tmp`` file under ``out``, and a manifest only where every digest
    it holds is that of the file it names."""
    assert not list(out.rglob("*.tmp"))
    if (out / "manifest.json").exists():
        for name, digest in json.loads((out / "manifest.json").read_text())["files"].items():
            assert digest == "sha256:" + hashlib.sha256((out / name).read_bytes()).hexdigest()


class TestWriteFailures:
    """A file that cannot be written or put in place exits 2 with one line that
    names it, and leaves no ``.tmp`` file and no manifest of other files. Each
    of these runs used to exit 1 with a traceback."""

    @staticmethod
    def run(tmp_path, out, seed):
        return main(["simulate", "-c", str(write_config(tmp_path, simulate_config(seed=seed))), "-o", str(out)])

    @pytest.mark.parametrize("taken", ["report.json", "histogram.tsv"])
    def test_an_output_name_held_by_a_directory_exits_2(self, tmp_path, capsys, taken):
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        assert self.run(tmp_path, out, 7) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {out / taken}: ") and err.count("\n") == 1
        assert not (out / "manifest.json").exists()
        assert_no_tmp_and_no_stale_manifest(out)

    def test_a_failed_rerun_leaves_no_manifest_of_the_earlier_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(tmp_path, out, 1) == 0
        (out / "histogram.tsv").unlink()
        (out / "histogram.tsv").mkdir()
        assert self.run(tmp_path, out, 2) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: cannot write {out / 'histogram.tsv'}: ")
        assert not (out / "manifest.json").exists()
        assert_no_tmp_and_no_stale_manifest(out)

    def test_a_failed_sweep_rerun_leaves_no_manifest_of_the_earlier_runs(self, tmp_path, capsys):
        document = {"task": "sweep", "base": simulate_config(write_samples=False), "grid": {"run.total": [250.0, 500.0]}}
        out = tmp_path / "out"
        assert main(["sweep", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 0
        (out / "run_001" / "report.json").unlink()
        (out / "run_001" / "report.json").mkdir()
        document["base"]["seed"] = 8  # run_000 is replaced, then run_001 fails
        assert main(["sweep", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: cannot write ")
        assert not (out / "manifest.json").exists()
        for run in ("run_000", "run_001"):
            assert_no_tmp_and_no_stale_manifest(out / run)


# One small model block per kind in KERNELS, with a total that its closed form accepts.
KIND_RUNS = {
    "cash_only": ({"kind": "cash_only", "n_agents": 20, "volume_y": 10.0}, 200.0),
    "overdraft": ({"kind": "overdraft", "n_agents": 20, "volume_x": 10.0, "overdraft": 2.0}, 100.0),
    "multi_account": ({"kind": "multi_account", "n_agents": 6, "accounts_per_agent": [1, 2, 3, 1, 2, 3],
                       "account_overdrafts": [[0.5 * (i % 4)] * (1 + i % 3) for i in range(6)]}, 30.0),
    "combined": (COMBINED, 100.0),
    "restricted": ({"kind": "restricted", "n_agents": 20, "overdraft": 1.0}, 5.0),
    "credit_market": ({"kind": "credit_market", "n_agents": 20, "volume_x": 1000.0}, 250.0),
    "multi_asset": ({"kind": "multi_asset", "n_agents": 10, "asset_classes": 3}, 100.0),
}


@pytest.mark.parametrize("kind", sorted(KIND_RUNS))
def test_money_per_agent_is_the_conserved_total_per_agent(tmp_path, kind):
    model, total = KIND_RUNS[kind]
    document = simulate_config(model=model, run=dict(RUN, total=total), replicas=2, write_samples=False)
    run_experiment(load_config(write_config(tmp_path, document)), tmp_path / "out")
    replicas = json.loads((tmp_path / "out" / "report.json").read_text())["replicas"]
    assert [r["mean_money_per_agent"] for r in replicas] == [total / build_model(model).n_agents] * 2


class TestPoolsSortedInPlace:
    """simulate sorts each pool in place once its order-dependent values are taken."""

    @staticmethod
    def untouched(document, index):
        """Replica ``index``'s report entry, histogram.tsv and samples.csv, from its
        chain left as recorded: the KS check and the histogram on ``np.sort`` copies."""
        spec, run = build_model(document["model"]), document["run"]
        seed = derive_seed(document["seed"], index)
        samples = run_chain(spec, run["policy"], run["total"], run["steps"], run["burn_in"], run["thin"], seed=seed)
        predicted = temperature_closed_form(spec, run["total"])
        kernel = KERNELS[spec.kind]
        fits, hist = {}, None
        for label, names, floor in kernel.marginals(spec):
            data = samples.pooled(names)
            fit = fit_shifted_exponential(data, floor)
            ks_d, ks_ok = ks_statistic_exponential(np.sort(data), floor, predicted)
            if hist is None:
                hist = histogram(np.sort(data))
            fits[label] = {"t_hat": fit.t_hat, "stderr": fit.stderr, "floor": floor, "n": fit.n,
                           "ks_d": ks_d, "ks_pass_1pct": ks_ok}
        report = {"seed": seed, "fits": fits, "mean_money_per_agent": run["total"] / spec.n_agents,
                  "max_drift": samples.meta.max_drift, "rejected_events": samples.meta.rejected_events,
                  "events_run": samples.meta.events_run, "n_records": samples.n_records}
        return report, runner._tsv(("bin_left", "bin_right", "density"), hist.tsv_rows()), samples.csv_bytes()

    def test_every_kind_is_covered(self):
        assert set(KIND_RUNS) == {kind.value for kind in KERNELS}

    @pytest.mark.parametrize("kind", sorted(KIND_RUNS))
    def test_outputs_equal_those_of_an_untouched_chain(self, tmp_path, kind):
        model, total = KIND_RUNS[kind]
        document = simulate_config(model=model, run=dict(RUN, total=total), replicas=2)  # replica 1 keeps nothing
        out = tmp_path / "out"
        run_experiment(load_config(write_config(tmp_path, document)), out)
        (first, tsv, csv), (second, _, _) = (self.untouched(document, index) for index in (0, 1))
        assert json.loads((out / "report.json").read_text())["replicas"] == [first, second]
        assert (out / "histogram.tsv").read_bytes() == tsv
        assert (out / "samples.csv").read_bytes() == csv

    @pytest.mark.parametrize("kind", sorted(KIND_RUNS))
    def test_the_fits_read_the_chain_order(self, tmp_path, monkeypatch, kind):
        # Their sums can round alike in either order, so the reports alone may not tell.
        pools, kernel = [], KERNELS[ModelKind(kind)]

        def fit(data, floor, inner=runner.fit_shifted_exponential):
            pools.append(data.copy())
            return inner(data, floor)

        monkeypatch.setattr(runner, "fit_shifted_exponential", fit)
        model, total = KIND_RUNS[kind]
        run = dict(RUN, total=total)
        run_experiment(load_config(write_config(tmp_path, simulate_config(model=model, run=run))), tmp_path / "out")
        spec = build_model(model)
        chain = run_chain(spec, run["policy"], total, run["steps"], run["burn_in"], run["thin"], seed=derive_seed(7, 0))
        assert len(pools) == len(kernel.marginals(spec))
        for pool, (_, names, _) in zip(pools, kernel.marginals(spec)):
            assert np.array_equal(pool, chain.pooled(names))

    def test_the_peak_after_the_chain_holds_no_sorted_copy(self, tmp_path, monkeypatch):
        # The KS check's per-block temporaries are the largest left (3.2 blocks
        # measured); a sorted copy would be 61 blocks more.
        document = simulate_config(model=dict(MODEL, n_agents=PEAK_AGENTS), run=PEAK_RUN, write_samples=False)
        assert post_chain_peak(tmp_path, monkeypatch, document) < PEAK_RECORDS_BYTES + 6 * BLOCK_BYTES


class TestInterleaved:
    """``worker.interleaved`` on its own, with a small ``produce``."""

    @staticmethod
    def produce(item: int) -> bytes:
        return b"%d\n" % item

    def test_results_come_in_order_and_the_worker_is_reaped(self, monkeypatch):
        forks = count_forks(monkeypatch)
        assert list(interleaved(self.produce, range(5))) == [self.produce(i) for i in range(5)]
        [pid] = forks
        assert_reaped(pid)

    def test_closing_the_stream_early_kills_the_worker(self, monkeypatch):
        forks = count_forks(monkeypatch)
        results = interleaved(self.produce, range(4))
        assert next(results) == b"0\n"
        [pid] = forks
        results.close()
        assert_reaped(pid)

    def test_a_worker_stopping_before_its_item_is_a_short_read(self, monkeypatch):
        forks = count_forks(monkeypatch)

        def produce(item: int) -> bytes:
            if item == 1:  # produced by the worker only
                os._exit(5)
            return self.produce(item)

        results = interleaved(produce, range(4))
        assert next(results) == b"0\n"
        with pytest.raises(MoneygasError) as raised:
            next(results)
        assert str(raised.value) == "the replica worker stopped before sending replica 1 of 4 (exit code 5)"
        [pid] = forks
        assert_reaped(pid)

    def test_a_failing_consumer_stops_the_worker(self, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch)

        class FailingDigest:
            """Takes the first chunk, then fails."""
            def __init__(self):
                self.chunks = 0

            def update(self, chunk):
                self.chunks += 1
                if self.chunks > 1:
                    raise OSError("no space left")

        monkeypatch.setattr(runner, "hashlib", types.SimpleNamespace(sha256=FailingDigest))
        results = interleaved(self.produce, range(4))  # still referenced here
        with pytest.raises(OSError, match="no space left"):
            runner._write(tmp_path / "items.txt", results)
        [pid] = forks
        assert_reaped(pid)
        assert list(tmp_path.iterdir()) == []


class TestReplicaWorker:
    """The forked worker that runs the odd replicas of simulate."""

    @staticmethod
    def outputs(tmp_path, document, name):
        """Run ``document`` through the CLI; returns (exit code, its files' bytes)."""
        out = tmp_path / name
        code = main(["simulate", "-c", str(write_config(tmp_path, document, f"{name}.json")), "-o", str(out)])
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("write_samples", [True, False])
    @pytest.mark.parametrize("replicas", [1, 2, 3, 5])
    def test_outputs_do_not_depend_on_fork(self, tmp_path, monkeypatch, replicas, write_samples):
        # 110 records of 50 agents in blocks of 40 records: samples.csv has 3 blocks.
        monkeypatch.setattr(dynamics, "STREAM_BLOCK", 40 * MODEL["n_agents"])
        document = simulate_config(replicas=replicas, write_samples=write_samples)
        forks = count_forks(monkeypatch)
        forked = self.outputs(tmp_path, document, "forked")
        assert len(forks) == (replicas >= 2)  # the replica worker only; samples.csv is formatted here
        for pid in forks:
            assert_reaped(pid)
        monkeypatch.delattr(os, "fork")
        assert forked == self.outputs(tmp_path, document, "single")
        code, files = forked
        names = {"manifest.json", "report.json", *(("histogram.tsv", "samples.csv") if write_samples else ())}
        assert code == 0 and set(files) == names
        assert len(json.loads(files["report.json"])["replicas"]) == replicas

    def test_credit_market_outputs_do_not_depend_on_fork(self, tmp_path, monkeypatch):
        document = simulate_config(model=CREDIT_MARKET, run=dict(RUN, total=500.0), replicas=3)
        forks = count_forks(monkeypatch)
        forked = self.outputs(tmp_path, document, "forked")
        assert forked[0] == 0 and len(forks) == 1  # the replica worker
        monkeypatch.delattr(os, "fork")
        assert forked == self.outputs(tmp_path, document, "single")

    @staticmethod
    def run_failing(tmp_path, monkeypatch, capsys, index, error):
        """Run 4 replicas through the CLI with replica ``index``'s chain raising
        ``error``; returns (exit code, stderr, the forked pids, the out dir)."""
        failing_seed = derive_seed(7, index)

        def chain(*args, seed, **kwargs):
            if seed == failing_seed:
                raise error("the chain failed")
            return run_chain(*args, seed=seed, **kwargs)

        monkeypatch.setattr(runner, "run_chain", chain)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"out_{index}"
        config = write_config(tmp_path, simulate_config(replicas=4))
        code = main(["simulate", "-c", str(config), "-o", str(out)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not (out / "manifest.json").exists() and not list(out.glob("*.tmp"))
        for pid in forks:
            assert_reaped(pid)
        return code, captured.err, forks, out

    @pytest.mark.parametrize("error", [MoneygasError, MemoryError])
    def test_a_failing_replica_exits_2_with_one_line_in_either_process(self, tmp_path, monkeypatch, capsys,
                                                                      error):
        errs = []
        for index in (1, 2):  # run by the worker, then by this process
            code, err, forks, _ = self.run_failing(tmp_path, monkeypatch, capsys, index, error)
            assert code == 2 and len(forks) == 1
            assert err.startswith("configuration error:") and err.count("\n") == 1
            assert "the chain failed" in err
            errs.append(err)
        assert errs[0] == errs[1]

    def test_another_error_in_the_worker_names_the_replica_and_type(self, tmp_path, monkeypatch, capsys):
        code, err, forks, out = self.run_failing(tmp_path, monkeypatch, capsys, 3, ConservationError)
        assert code == 2 and len(forks) == 1
        assert err == ("configuration error: the replica worker stopped at replica 3 of 4 with"
                       " ConservationError: the chain failed (exit code 1)\n")
        assert not out.exists()  # replica 0 made it for samples.csv; the failure removes it

    def test_a_worker_exiting_non_zero_fails_the_run(self, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch)
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: exit_(3))  # reached in the worker only
        document = simulate_config(replicas=2, write_samples=False)
        with pytest.raises(MoneygasError, match=r"replica worker failed \(exit code 3\)"):
            run_experiment(load_config(write_config(tmp_path, document)), tmp_path / "out")
        [pid] = forks
        assert_reaped(pid)
        assert not (tmp_path / "out").exists()


class TestCompareReport:
    REPORT = {"aggregate": {"t_hat": 10.0, "list": [1.0, 2.5]}}

    def test_matching(self):
        assert compare_report(self.REPORT, {"expectations": [
            {"name": "aggregate.t_hat", "value": 10.1, "tolerance": 0.03},
            {"name": "aggregate.list.1", "value": 2.5, "tolerance": 1e-12},
        ]}) == []

    def test_five_percent_off_with_three_percent_tolerance(self):
        failures = compare_report(self.REPORT, {"expectations": [
            {"name": "aggregate.t_hat", "value": 10.5, "tolerance": 0.03}]})
        assert len(failures) == 1 and "aggregate.t_hat" in failures[0]

    def test_absolute_tolerance(self):
        assert compare_report(self.REPORT, {"expectations": [
            {"name": "aggregate.t_hat", "value": 10.2, "tolerance": 0.25, "absolute": True}]}) == []

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            compare_report(self.REPORT, {"expectations": [
                {"name": "aggregate.missing", "value": 1.0, "tolerance": 0.1}]})

    def test_malformed_expectation(self):
        with pytest.raises(ConfigError):
            compare_report(self.REPORT, {"expectations": [{"name": "aggregate.t_hat", "value": 1.0}]})

    def test_a_bare_list_is_not_a_document(self):
        with pytest.raises(ConfigError, match="expectations document"):
            compare_report(self.REPORT, [{"name": "aggregate.t_hat", "value": 10.0, "tolerance": 0.03}])


class TestCli:
    def test_simulate_then_check(self, tmp_path, capsys):
        config_path = write_config(tmp_path, simulate_config(write_samples=False))
        out = tmp_path / "run"
        assert main(["simulate", "-c", str(config_path), "-o", str(out)]) == 0
        expect = tmp_path / "expect.json"
        expect.write_text(json.dumps({"expectations": [
            {"name": "aggregate.t_hat", "value": 10.0, "tolerance": 0.03}]}))
        assert main(["check", "-r", str(out / "report.json"), "-e", str(expect)]) == 0
        expect.write_text(json.dumps({"expectations": [
            {"name": "aggregate.t_hat", "value": 12.0, "tolerance": 0.03}]}))
        assert main(["check", "-r", str(out / "report.json"), "-e", str(expect)]) == 1

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"task": "simulate"}))
        assert main(["simulate", "-c", str(path)]) == 2
        assert main(["simulate", "-c", str(tmp_path / "missing.json")]) == 2
        path.write_bytes(b"\xff\xfe")  # not UTF-8
        assert main(["simulate", "-c", str(path)]) == 2
        assert main(["check", "-r", str(path), "-e", str(path)]) == 2

    @pytest.mark.parametrize("verb,document", [("simulate", simulate_config()),
                                               ("sweep", {"task": "sweep", "base": simulate_config(),
                                                          "grid": {"run.total": [250.0, 500.0]}})])
    def test_an_output_path_at_or_under_a_file_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                                        verb, document):
        # It used to run the whole chain, then exit 1 with a NotADirectoryError traceback.
        monkeypatch.setattr(runner, "run_chain", lambda *args, **kwargs: pytest.fail("the chain ran"))
        config_path = write_config(tmp_path, document)
        (tmp_path / "file").write_text("not a directory")
        for out in (tmp_path / "file", tmp_path / "file" / "out"):
            assert main([verb, "-c", str(config_path), "-o", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"configuration error: cannot write to {out}: {tmp_path / 'file'} is not a directory\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "file"]

    def test_an_output_directory_that_cannot_be_made_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, simulate_config())
        out = tmp_path / ("x" * 300)  # a name longer than any file system allows
        assert main(["simulate", "-c", str(config_path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create the output directory {out}:")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json"]

    def test_task_command_mismatch(self, tmp_path):
        config_path = write_config(tmp_path, simulate_config())
        assert main(["analytic", "-c", str(config_path), "-o", str(tmp_path / "x")]) == 2

    def test_check_unknown_field_is_config_error(self, tmp_path):
        config_path = write_config(tmp_path, simulate_config(write_samples=False))
        out = tmp_path / "run2"
        assert main(["simulate", "-c", str(config_path), "-o", str(out)]) == 0
        expect = tmp_path / "expect.json"
        expect.write_text(json.dumps({"expectations": [
            {"name": "nope.nothing", "value": 1.0, "tolerance": 0.1}]}))
        assert main(["check", "-r", str(out / "report.json"), "-e", str(expect)]) == 2

    def test_analytic_pipeline(self, tmp_path):
        document = {"task": "analytic",
                    "model": {"kind": "combined", "n_agents": 10, "overdraft": 2.0},
                    "temperatures": [0.5, 1.0, 2.0]}
        config_path = write_config(tmp_path, document)
        out = tmp_path / "ana"
        assert main(["analytic", "-c", str(config_path), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_residual"] < 1e-6

    def test_multi_account_verbs(self, tmp_path):
        # Accounts of unequal depth: closed forms and their identities, and a
        # chain whose shifted balances pass the KS check against T = (Q0 + Σd)/K.
        counts = [1 + i % 3 for i in range(60)]
        model = {"kind": "multi_account", "n_agents": 60, "accounts_per_agent": counts,
                 "account_overdrafts": [[0.25 * ((i + a) % 5) for a in range(r)]
                                        for i, r in enumerate(counts)]}
        documents = {
            "analytic": {"task": "analytic", "model": model, "temperatures": [0.5, 2.0]},
            "transform": {"task": "transform", "model": model,
                          "identity_grid": {"temperatures": [0.5, 2.0]}},
            "simulate": {"task": "simulate", "seed": 5, "model": model, "replicas": 2,
                         "run": {"policy": "uniform-random", "total": 100.0, "steps": 40_000,
                                 "burn_in": 6_000, "thin": 200}},
        }
        reports = {}
        for verb, document in documents.items():
            out = tmp_path / verb
            assert main([verb, "-c", str(write_config(tmp_path, document, f"{verb}.json")),
                         "-o", str(out)]) == 0
            reports[verb] = json.loads((out / "report.json").read_text())
        assert reports["analytic"]["max_residual"] <= 1e-6
        grid = reports["transform"]["identity_grid"]
        assert max(grid["max_gibbs_duhem"], grid["max_first_law"], grid["max_state_residual"]) <= 1e-6
        simulate = reports["simulate"]
        depth = sum(map(sum, model["account_overdrafts"]))
        assert simulate["closed_form_temperature"] == pytest.approx((100.0 + depth) / sum(counts))
        assert simulate["aggregate"]["ks_pass_fraction"] == 1.0
        # One samples.csv row per account and record; the agent column is the account index.
        rows = (tmp_path / "simulate" / "samples.csv").read_text().splitlines()
        assert len(rows) == 1 + 170 * sum(counts)
        assert {row.split(",")[1] for row in rows[1:]} == {str(a) for a in range(sum(counts))}

    def test_transform_pipeline(self, tmp_path):
        document = {"task": "transform",
                    "model": {"kind": "credit_market", "n_agents": 1, "volume_x": 1.0},
                    "cycle": {"t_hot": 4.0, "t_cold": 2.0, "v1": 1.0, "v2": 2.718281828459045},
                    "free_expansion_factor": 1.5}
        config_path = write_config(tmp_path, document)
        out = tmp_path / "tra"
        assert main(["transform", "-c", str(config_path), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cycle"]["eta"] == pytest.approx(0.5, abs=1e-9)
        assert report["policy_bound"]["eta_below_carnot"]
        assert (out / "path.tsv").exists()

    @pytest.mark.parametrize("extra", [{"free_expansion_factor": 1e308},
                                       {"cycle": dict(CYCLE, t_hot=2.0000000000000004, t_cold=2.0)}],
                             ids=["largest_expansion_factor", "one_float_temperature_gap"])
    def test_transform_edge_cycles_run(self, tmp_path, extra):
        document = dict({"task": "transform", "model": ONE_AGENT_CREDIT, "cycle": CYCLE,
                         "free_expansion_factor": 1.5}, **extra)
        out = tmp_path / "tra"
        assert main(["transform", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["policy_bound"]["satisfies_temperature_bound"]

    def test_pareto_pipeline(self, tmp_path):
        document = {"task": "pareto", "seed": 3,
                    "pareto": {"n_agents": 200, "floor_j": 1.0, "t_max": 3.0},
                    "temperature": 1.0, "direct_samples": 20_000,
                    "scan": {"temperatures": [0.5, 1.0, 1.5, 2.0, 2.5]}}
        config_path = write_config(tmp_path, document)
        out = tmp_path / "par"
        assert main(["pareto", "-c", str(config_path), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["analytic"]["tail_index"] == pytest.approx(2.0)
        assert report["direct"]["hill"] == pytest.approx(2.0, rel=0.1)
        assert report["scan"]["strictly_increasing"]
        assert (out / "scan.tsv").exists()

    def test_pareto_theta_is_the_input_that_samples_csv_averages(self, tmp_path):
        # The benchmark's samples_csv_mean check of a pareto run; theta used to be
        # taken again from the records and read 0.4999... for 0.5.
        document = dict(PARETO, seed=5, dynamics=DYNAMICS)
        out = tmp_path / "par"
        assert main(["pareto", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 0
        dyn = json.loads((out / "report.json").read_text())["dynamics"]
        assert dyn["theta"] == DYNAMICS["mean_log_excess"]
        assert "matched_temperature" not in dyn
        rows = (out / "samples.csv").read_text().splitlines()[1:]
        floor = PARETO["pareto"]["floor_j"]
        logs = [math.log(float(row.split(",")[3]) / floor) for row in rows]
        assert len(logs) == 30 * PARETO["pareto"]["n_agents"]
        assert math.fsum(logs) / len(logs) == pytest.approx(dyn["theta"], rel=1e-9, abs=0)

    @pytest.mark.parametrize("factor", [1.5, 0.5])
    def test_free_expansion_without_a_cycle_exits_2_before_writing(self, tmp_path, capsys, factor):
        # It used to exit 0 with no free_expansion_cycle in the report, whatever the factor.
        document = {"task": "transform", "model": MODEL, "free_expansion_factor": factor}
        out = tmp_path / "tra"
        assert main(["transform", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 2
        assert capsys.readouterr().err == ("configuration error: infeasible transform: "
                                           "free_expansion_factor needs a cycle\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE_SIMULATE))
    def test_unrunnable_simulate_exits_2(self, tmp_path, case):
        config_path = write_config(tmp_path, simulate_config(**UNRUNNABLE_SIMULATE[case]))
        result = subprocess.run(
            [sys.executable, "-m", "moneygas.cli", "simulate", "-c", str(config_path),
             "-o", str(tmp_path / "out")],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("configuration error:") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("case", sorted(BEYOND_MEMORY))
    def test_input_beyond_memory_exits_2(self, tmp_path, case):
        document = BEYOND_MEMORY[case]
        config_path = write_config(tmp_path, document)
        # The child caps its own address space, so no allocation can reach real memory.
        script = ("import resource, sys\n"
                  "soft, hard = 1 << 32, resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                  "if hard != resource.RLIM_INFINITY:\n"
                  "    soft = min(soft, hard)\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
                  "from moneygas.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        result = subprocess.run(
            [sys.executable, "-c", script, document["task"], "-c", str(config_path),
             "-o", str(tmp_path / "out")],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("configuration error:") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE_INPUTS))
    def test_unrunnable_input_exits_2(self, tmp_path, capsys, case):
        document = UNRUNNABLE_INPUTS[case]
        config_path = write_config(tmp_path, document)
        assert main([document["task"], "-c", str(config_path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1

    def test_common_verbs_load_no_scipy(self, tmp_path):
        # A child interpreter, because this one has imported scipy already.
        transform = Path(__file__).resolve().parent.parent / "configs" / "carnot_transform.json"
        documents = {
            "simulate": simulate_config(write_samples=False),
            "analytic": {"task": "analytic", "model": CREDIT_MARKET, "temperatures": [1.0, 2.0]},
            "pareto": dict(PARETO, direct_samples=1_000, dynamics=DYNAMICS, scan={"temperatures": [1.0, 2.0]}),
            "sweep": {"task": "sweep", "base": simulate_config(write_samples=False),
                      "grid": {"run.total": [250.0]}},
        }
        argvs = [[verb, "-c", str(write_config(tmp_path, document, f"{verb}.json")), "-o", str(tmp_path / verb)]
                 for verb, document in documents.items()]
        argvs.append(["transform", "-c", str(transform), "-o", str(tmp_path / "transform")])
        expect = write_config(tmp_path, {"expectations": [
            {"name": "closed_form_temperature", "value": 10.0, "tolerance": 1e-12}]}, "expect.json")
        argvs.append(["check", "-r", str(tmp_path / "simulate" / "report.json"), "-e", str(expect)])
        script = ("import json, sys\n"
                  "from moneygas.cli import main\n"
                  "assert [main(argv) for argv in json.loads(sys.argv[1])] == [0] * 6\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        result = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=child_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("write_samples", [False, True])
    def test_only_a_samples_csv_loads_orjson(self, tmp_path, write_samples):
        # A child interpreter, because this one has imported orjson already.
        config = write_config(tmp_path, simulate_config(replicas=2, write_samples=write_samples))
        script = ("import sys\n"
                  "from moneygas.cli import main\n"
                  "assert main(sys.argv[1:]) == 0\n"
                  "print('orjson' in sys.modules)\n")
        argv = ["simulate", "-c", str(config), "-o", str(tmp_path / "out")]
        result = subprocess.run([sys.executable, "-c", script, *argv], env=child_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == str(write_samples)

    @pytest.mark.parametrize("case", sorted(MISTYPED_EXPECTATIONS))
    def test_mistyped_expectation_exits_2(self, tmp_path, capsys, case):
        report = write_config(tmp_path, {"aggregate": {"t_hat": 10.0}}, "report.json")
        expectation = dict({"name": "aggregate.t_hat", "value": 10.0, "tolerance": 0.03},
                           **MISTYPED_EXPECTATIONS[case])
        expect = write_config(tmp_path, {"expectations": [expectation]}, "expect.json")
        assert main(["check", "-r", str(report), "-e", str(expect)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("index, accepted", [("1", True), ("-1", False), (" 1", False)])
    def test_only_decimal_digits_index_a_list(self, tmp_path, capsys, index, accepted):
        # check used to read "-1" and " 1" through int(), which a sweep path rejected.
        sweep = {"task": "sweep", "base": {"task": "analytic", "model": MODEL, "temperatures": [1.0, 2.0]},
                 "grid": {f"temperatures.{index}": [3.0]}}
        if accepted:
            validate_config(sweep)
        else:
            with pytest.raises(ConfigError, match="sweep path"):
                validate_config(sweep)
        report = write_config(tmp_path, {"replicas": [{"max_drift": 0.0}, {"max_drift": 0.0}]}, "report.json")
        expect = write_config(tmp_path, {"expectations": [
            {"name": f"replicas.{index}.max_drift", "value": 0.0, "tolerance": 0.0, "absolute": True}]},
            "expect.json")
        assert main(["check", "-r", str(report), "-e", str(expect)]) == (0 if accepted else 2)
        err = capsys.readouterr().err
        assert err == "" if accepted else err.startswith("configuration error: ")

    def test_sweep_with_no_seeds_exits_2(self, tmp_path, capsys):
        # An empty list used to run every combination at the base's seed.
        document = {"task": "sweep", "seeds": [], "grid": {"temperatures": [[1.0], [2.0]]},
                    "base": {"task": "analytic", "seed": 3, "model": MODEL, "temperatures": [1.0]}}
        out = tmp_path / "sweep"
        assert main(["sweep", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sweep seeds") and err.count("\n") == 1
        assert not out.exists()

    def test_sweep_checks_every_run_before_the_first(self, tmp_path, capsys):
        document = {"task": "sweep", "base": simulate_config(write_samples=False),
                    "grid": {"run.thin": [10, 2.5]}}
        out = tmp_path / "sweep"
        assert main(["sweep", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not list(out.glob("run_*"))

    @pytest.mark.parametrize("document", [
        {"task": "sweep", "base": simulate_config(model=dict(MODEL, n_agents=10), write_samples=False),
         "grid": {"run.total": [100.0, -100.0]}},
        {"task": "sweep", "base": {"task": "transform", "model": MODEL, "cycle": CYCLE},
         "grid": {"cycle.t_cold": [2.0, 5.0]}},
        # The finite differences at a subnormal temperature give a non-finite residual.
        {"task": "sweep", "base": {"task": "analytic", "model": MODEL, "temperatures": [1.0]},
         "grid": {"temperatures": [[1.0], [1e-310]]}},
        {"task": "sweep", "base": {"task": "transform", "model": CREDIT_MARKET,
                                   "identity_grid": {"temperatures": [1.0]}},
         "grid": {"identity_grid.temperatures": [[1.0], [1e-310]]}},
        # Money V·(1/r - 1) past the float range: the closed form runs, but the report has no JSON form.
        {"task": "sweep", "base": {"task": "transform", "model": MODEL,
                                   "fractional_reserve": {"reserve_ratio": 0.2, "volume": 100.0, "n_agents": 50}},
         "grid": {"fractional_reserve.reserve_ratio": [0.2, 1e-320]}},
        # It used to run both, ignoring the factor.
        {"task": "sweep", "base": {"task": "transform", "model": MODEL, "free_expansion_factor": 1.5},
         "grid": {"free_expansion_factor": [1.5, 2.0]}},
    ], ids=["negative_total", "cold_above_hot", "analytic_residual_overflow", "transform_grid_residual_overflow",
            "transform_reserve_past_float_range", "free_expansion_without_cycle"])
    def test_sweep_with_an_infeasible_run_writes_no_run(self, tmp_path, capsys, document):
        # Each used to write run_000/ before exiting 2; the first two an empty run_001/ too.
        out = tmp_path / "sweep"
        assert main(["sweep", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: infeasible") and err.count("\n") == 1
        assert not out.exists()


class TestStartup:
    """A CLI process starts as one thread and loads only what its verb runs. Each
    check runs in a child interpreter: this one has loaded every module, and the
    suite's conftest has set OPENBLAS_NUM_THREADS, which the children do not inherit."""

    @staticmethod
    def last_line(script, *argv, **env):
        environ = {key: value for key, value in child_env().items() if key != "OPENBLAS_NUM_THREADS"}
        result = subprocess.run([sys.executable, "-c", script, *argv], env={**environ, **env},
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through /proc")
    def test_the_replica_worker_forks_from_one_thread(self, tmp_path):
        # numpy's OpenBLAS pool thread used to be alive at the fork; Python 3.12
        # warns of such a fork that it may deadlock.
        config = write_config(tmp_path, simulate_config(replicas=2, write_samples=False))
        script = ("import os, sys\n"
                  "threads, fork = [], os.fork\n"
                  "def counted_fork():\n"
                  "    threads.append(len(os.listdir('/proc/self/task')))\n"
                  "    return fork()\n"
                  "os.fork = counted_fork\n"
                  "from moneygas.cli import main\n"
                  "assert main(sys.argv[1:]) == 0\n"
                  "print(threads, os.environ['OPENBLAS_NUM_THREADS'])\n")
        argv = ["simulate", "-c", str(config), "-o", str(tmp_path / "out")]
        assert self.last_line(script, *argv) == "[1] 1"

    def test_a_preset_openblas_thread_count_is_kept(self):
        script = "import os, moneygas.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        assert self.last_line(script, OPENBLAS_NUM_THREADS="2") == "2"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through /proc")
    def test_an_empty_openblas_thread_count_counts_as_unset(self):
        # OpenBLAS reads an empty value as unset and starts its pool thread.
        script = ("import os, moneygas.cli\n"
                  "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n")
        assert self.last_line(script, OPENBLAS_NUM_THREADS="") == "1 1"

    def test_import_moneygas_loads_no_numpy_and_no_submodule(self):
        script = ("import sys, moneygas\n"
                  "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('moneygas.'))\n"
                  "names = [getattr(moneygas, name) for name in moneygas.__all__]\n"
                  "print(loaded, set(moneygas.__all__) <= set(dir(moneygas)))\n")
        assert self.last_line(script) == "[] True"

    def test_the_namespace_names_are_their_modules_objects(self):
        import moneygas
        from moneygas import ensembles, estimation, transform

        assert moneygas.ModelSpec is ensembles.ModelSpec
        assert moneygas.carnot_cycle is transform.carnot_cycle
        assert moneygas.fit_shifted_exponential is estimation.fit_shifted_exponential
        assert moneygas.mean_money_restricted is ensembles.mean_money_restricted
        assert moneygas.run_chain is run_chain
        assert moneygas.temperature_closed_form is temperature_closed_form
        assert set(moneygas.__all__) <= set(dir(moneygas))
        with pytest.raises(AttributeError, match="no attribute 'runner_main'"):
            moneygas.runner_main

    def test_only_the_closed_form_verbs_load_transform(self, tmp_path):
        documents = {
            "simulate": simulate_config(replicas=2, write_samples=False),
            "pareto": dict(PARETO, direct_samples=1_000, dynamics=DYNAMICS),
            "analytic": {"task": "analytic", "model": CREDIT_MARKET, "temperatures": [1.0]},
        }
        argvs = [[verb, "-c", str(write_config(tmp_path, document, f"{verb}.json")), "-o", str(tmp_path / verb)]
                 for verb, document in documents.items()]
        script = ("import json, sys\n"
                  "from moneygas.cli import main\n"
                  "loaded = []\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert main(argv) == 0\n"
                  "    loaded.append('moneygas.transform' in sys.modules)\n"
                  "print(loaded)\n")
        assert self.last_line(script, json.dumps(argvs)) == "[False, False, True]"

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moneygas.cli import main
from moneygas.config import ConfigError, build_model
from moneygas.runner import compare_report, derive_seed, load_config, run_experiment, validate_config

MODEL = {"kind": "cash_only", "n_agents": 50, "volume_y": 10.0}
RUN = {"policy": "equal", "total": 500.0, "steps": 60_000, "burn_in": 5_000, "thin": 500}

UNRUNNABLE_SIMULATE = {
    "multi_account": {"model": {"kind": "multi_account", "n_agents": 2, "accounts_per_agent": [1, 1],
                                "account_overdrafts": [[1.0], [1.0]]}},
    "one_agent": {"model": dict(MODEL, n_agents=1)},
    "fractional_thin": {"run": dict(RUN, thin=2.5)},
    "fractional_burn_in": {"run": dict(RUN, burn_in=2.5)},
    "no_records": {"run": dict(RUN, steps=5_100, burn_in=5_000, thin=500)},
    "too_few_values_for_ks": {"model": dict(MODEL, n_agents=2),
                              "run": dict(RUN, steps=2_000, burn_in=1_000, thin=1_000)},
}


def simulate_config(seed=7, **extra):
    document = {"task": "simulate", "seed": seed, "model": dict(MODEL), "run": dict(RUN)}
    document.update(extra)
    return document


COMBINED = {"kind": "combined", "n_agents": 10, "overdraft": 1.0}
MULTI_ACCOUNT = {"kind": "multi_account", "n_agents": 2, "accounts_per_agent": [1, 1],
                 "account_overdrafts": [[1.0], [1.0]]}
CREDIT_MARKET = {"kind": "credit_market", "n_agents": 100, "volume_x": 1000.0}
CYCLE = {"t_hot": 4.0, "t_cold": 2.0, "v1": 1.0, "v2": 2.0}
PARETO = {"task": "pareto", "pareto": {"n_agents": 10, "floor_j": 1.0, "t_max": 3.0},
          "temperature": 1.0}
DYNAMICS = {"mean_log_excess": 0.5, "steps": 4_000, "burn_in": 1_000, "thin": 100}
ONE_RECORD = dict(RUN, steps=2, burn_in=1, thin=1)
# Inputs other verbs cannot run, each with a model or block the runner used to
# accept, crash on, or silently reinterpret.
UNRUNNABLE_INPUTS = {
    "cycle_on_volumeless_model": {"task": "transform", "model": COMBINED, "cycle": CYCLE},
    "grid_volumes_on_volumeless_model": {
        "task": "transform", "model": COMBINED,
        "identity_grid": {"temperatures": [1.0], "volumes": [5.0]}},
    "analytic_on_multi_account": {"task": "analytic", "model": MULTI_ACCOUNT, "temperatures": [1.0]},
    "transform_on_multi_account": {
        "task": "transform", "model": MULTI_ACCOUNT, "identity_grid": {"temperatures": [1.0]}},
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
}
# Expectations whose fields have the wrong JSON type; each used to crash or be misread.
MISTYPED_EXPECTATIONS = {"string_value": {"value": "abc"}, "null_tolerance": {"tolerance": None},
                         "string_absolute": {"absolute": "no"}}


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
        assert config.task == "simulate"
        assert build_model(config.raw["model"]).n_agents == 50

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

    def test_sweep_workers_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate_config({"task": "sweep", "base": simulate_config(),
                             "grid": {"run.total": [250.0]}, "workers": 2})

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="task"):
            validate_config({"task": "frobnicate"})

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

    def test_parallel_workers_match_sequential(self, tmp_path):
        serial = load_config(write_config(tmp_path, simulate_config(replicas=2), "s.json"))
        parallel = load_config(
            write_config(tmp_path, simulate_config(replicas=2, workers=2), "p.json")
        )
        a = run_experiment(serial, tmp_path / "serial")
        b = run_experiment(parallel, tmp_path / "parallel")
        assert a["files"]["report.json"] != ""
        report_a = json.loads((tmp_path / "serial" / "report.json").read_text())
        report_b = json.loads((tmp_path / "parallel" / "report.json").read_text())
        assert report_a["replicas"] == report_b["replicas"]

    @pytest.mark.parametrize("workers,replicas,cpus,pool_size", [
        (100_000, 2, 4, 2), (100_000, 8, 3, 3), (100_000, 2, None, None), (1, 4, 4, None)])
    def test_worker_pool_is_bounded_by_replicas_and_cores(
            self, tmp_path, monkeypatch, workers, replicas, cpus, pool_size):
        sizes = []

        class InProcessPool:  # records the pool size and maps in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        document = simulate_config(replicas=replicas, workers=workers, write_samples=False)
        manifest = run_experiment(load_config(write_config(tmp_path, document)), tmp_path / "out")
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(manifest["replica_seeds"]) == replicas

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


class TestCompareReport:
    REPORT = {"aggregate": {"t_hat": 10.0, "list": [1.0, 2.5]}}

    def test_matching(self):
        assert compare_report(self.REPORT, [
            {"name": "aggregate.t_hat", "value": 10.1, "tolerance": 0.03},
            {"name": "aggregate.list.1", "value": 2.5, "tolerance": 1e-12},
        ]) == []

    def test_five_percent_off_with_three_percent_tolerance(self):
        failures = compare_report(self.REPORT, [
            {"name": "aggregate.t_hat", "value": 10.5, "tolerance": 0.03}])
        assert len(failures) == 1 and "aggregate.t_hat" in failures[0]

    def test_absolute_tolerance(self):
        assert compare_report(self.REPORT, [
            {"name": "aggregate.t_hat", "value": 10.2, "tolerance": 0.25, "absolute": True}]) == []

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            compare_report(self.REPORT, [{"name": "aggregate.missing", "value": 1.0, "tolerance": 0.1}])

    def test_malformed_expectation(self):
        with pytest.raises(ConfigError):
            compare_report(self.REPORT, [{"name": "aggregate.t_hat", "value": 1.0}])


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

    @pytest.mark.parametrize("case", sorted(UNRUNNABLE_SIMULATE))
    def test_unrunnable_simulate_exits_2(self, tmp_path, case):
        config_path = write_config(tmp_path, simulate_config(**UNRUNNABLE_SIMULATE[case]))
        result = subprocess.run(
            [sys.executable, "-m", "moneygas.cli", "simulate", "-c", str(config_path),
             "-o", str(tmp_path / "out")],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("configuration error:")
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
        documents = {
            "simulate": simulate_config(write_samples=False),
            "analytic": {"task": "analytic", "model": CREDIT_MARKET, "temperatures": [1.0, 2.0]},
            "pareto": dict(PARETO, direct_samples=1_000, dynamics=DYNAMICS, scan={"temperatures": [1.0, 2.0]}),
            "sweep": {"task": "sweep", "base": simulate_config(write_samples=False),
                      "grid": {"run.total": [250.0]}},
        }
        argvs = [[verb, "-c", str(write_config(tmp_path, document, f"{verb}.json")), "-o", str(tmp_path / verb)]
                 for verb, document in documents.items()]
        expect = write_config(tmp_path, {"expectations": [
            {"name": "closed_form_temperature", "value": 10.0, "tolerance": 1e-12}]}, "expect.json")
        argvs.append(["check", "-r", str(tmp_path / "simulate" / "report.json"), "-e", str(expect)])
        script = ("import json, sys\n"
                  "from moneygas.cli import main\n"
                  "assert [main(argv) for argv in json.loads(sys.argv[1])] == [0] * 5\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        result = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=child_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("case", sorted(MISTYPED_EXPECTATIONS))
    def test_mistyped_expectation_exits_2(self, tmp_path, capsys, case):
        report = write_config(tmp_path, {"aggregate": {"t_hat": 10.0}}, "report.json")
        expectation = dict({"name": "aggregate.t_hat", "value": 10.0, "tolerance": 0.03},
                           **MISTYPED_EXPECTATIONS[case])
        expect = write_config(tmp_path, {"expectations": [expectation]}, "expect.json")
        assert main(["check", "-r", str(report), "-e", str(expect)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_sweep_checks_every_run_before_the_first(self, tmp_path, capsys):
        document = {"task": "sweep", "base": simulate_config(write_samples=False),
                    "grid": {"run.thin": [10, 2.5]}}
        out = tmp_path / "sweep"
        assert main(["sweep", "-c", str(write_config(tmp_path, document)), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not list(out.glob("run_*"))

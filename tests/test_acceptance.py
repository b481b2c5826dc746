"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).
Tolerances are pinned here and nowhere else."""

import json
import math
import time

import numpy as np
import pytest

from moneygas.cli import main
from moneygas.dynamics import advance, init_population, run_chain
from moneygas.ensembles import (
    ModelSpec,
    mean_money_restricted,
    temperature_closed_form,
)
from moneygas.estimation import (
    fit_shifted_exponential,
    hill_tail_index,
    ks_statistic_exponential,
)
from moneygas.pareto import (
    ParetoSpec,
    pareto_direct_sample,
    pareto_entropy,
    pareto_log_partition,
    pareto_mean_logincome,
    pareto_mean_logincome_sampling,
    run_income_chain,
    transition_scan,
)
from moneygas.runner import derive_seed, load_config, run_experiment
from moneygas.transform import (
    balance_residuals,
    carnot_cycle,
    finite_diff_thermo_residuals,
    fractional_reserve,
    isothermal_base,
    policy_bound_check,
)

BASE_SEED = 20260810


def announce(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS  {detail}")


def table_rows():
    n = 1000
    return [
        ("cash_only", ModelSpec.cash_only(n, 50.0), 10_000.0, "x", 10.0),
        ("overdraft", ModelSpec.overdraft_model(n, 100.0, 5.0, q0=10_000.0), 10_000.0, "z", 15.0),
        ("combined", ModelSpec.combined(n, 10.0), 10_000.0, "x", 10.0),
        ("credit_market", ModelSpec.credit_market(n, 100_000.0), 5_000.0, "assets", 5.0),
    ]


@pytest.mark.parametrize("name,spec,total,coord,predicted", table_rows())
def test_criterion_1_table_reproduction(name, spec, total, coord, predicted):
    # One 1e7-event run for the MLE, then 100 seeded replicas at the
    # stationarity scale (1e6 post-burn-in events) for the KS pass rate.
    start = time.time()
    samples = run_chain(spec, "equal", total, steps=10_000_000, burn_in=100_000,
                        thin=5_000, seed=derive_seed(BASE_SEED, 0))
    fit = fit_shifted_exponential(samples.pooled([coord]), 0.0)
    elapsed = time.time() - start
    assert abs(fit.t_hat - predicted) <= 0.03 * predicted
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.1f}s"

    passes = 0
    for i in range(100):
        replica = run_chain(spec, "equal", total, steps=1_100_000, burn_in=100_000,
                            thin=5_000, seed=derive_seed(BASE_SEED, 1 + i))
        _, ok = ks_statistic_exponential(np.sort(replica.pooled([coord])), 0.0, predicted)
        passes += ok
    assert passes >= 95
    announce(
        f"criterion 1 ({name})",
        f"t_hat={fit.t_hat:.4f} vs T={predicted} "
        f"({abs(fit.t_hat - predicted) / predicted:.2%}), KS {passes}/100, {elapsed:.1f}s",
    )


def test_criterion_2_restricted_model():
    n, d, t_star = 1000, 1.0, 1.0
    spec = ModelSpec.restricted(n, d)
    m_star = mean_money_restricted(spec, t_star)
    samples = run_chain(spec, "equal", m_star, steps=6_000_000, burn_in=100_000,
                        thin=5_000, seed=derive_seed(BASE_SEED, 200))
    measured_mean = float(samples.pooled(["x"]).mean() + samples.pooled(["y"]).mean())
    assert abs(measured_mean - m_star / n) <= 0.02 * abs(m_star / n)

    t_from_mean = temperature_closed_form(spec, measured_mean * n)
    fit = fit_shifted_exponential(samples.pooled(["x"]), 0.0)
    assert abs(t_from_mean - fit.t_hat) <= 0.05 * fit.t_hat

    # d << T asymptote: T = m/N + d/2 + o(d), so the defect shrinks
    # faster than d (the exact leading correction is d^2/(12 T)).
    defects = {}
    for ratio in (0.01, 0.05):
        d_small = ratio * t_star
        small = ModelSpec.restricted(1, d_small)
        m = mean_money_restricted(small, t_star)
        approx = m + d_small / 2.0
        defect = abs(t_star - approx)
        assert defect <= d_small**2 / (4.0 * t_star)
        defects[ratio] = defect / d_small
    assert defects[0.01] < defects[0.05]
    announce(
        "criterion 2 (restricted)",
        f"mean={measured_mean:.5f} vs m/N={m_star / n:.5f}, "
        f"T(mean)={t_from_mean:.4f} vs MLE={fit.t_hat:.4f}, "
        f"asymptote defect/d at d/T=0.01: {defects[0.01]:.2e}",
    )


def test_criterion_3_multi_asset_diversification():
    n, total = 1000, 9_000.0
    three = ModelSpec.multi_asset(n, 3)
    one = ModelSpec.multi_asset(n, 1)
    # Closed form: with dyadic totals the division is exact.
    assert temperature_closed_form(one, 9_000.0) == 3.0 * temperature_closed_form(three, 9_000.0)

    fitted = {}
    for label, spec in (("I=3", three), ("I=1", one)):
        samples = run_chain(spec, "equal", total, steps=10_000_000, burn_in=100_000,
                            thin=5_000, seed=derive_seed(BASE_SEED, 300))
        fitted[label] = fit_shifted_exponential(samples.pooled(), 0.0).t_hat
    predicted = total / (3 * n)
    assert abs(fitted["I=3"] - predicted) <= 0.03 * predicted
    assert abs(fitted["I=3"] - fitted["I=1"] / 3.0) <= 0.05 * (fitted["I=1"] / 3.0)
    announce(
        "criterion 3 (multi-asset)",
        f"T(I=3)={fitted['I=3']:.4f} vs m/3N={predicted}, T(I=1)/3={fitted['I=1'] / 3:.4f}",
    )


def test_criterion_4_credit_market_accounting():
    n, base, credit = 1000, 100_000.0, 5_000.0
    spec = ModelSpec.credit_market(n, base)
    pop = init_population(spec, "equal", credit, seed=derive_seed(BASE_SEED, 400))
    net = pop.net.copy()
    rng = np.random.default_rng(derive_seed(BASE_SEED, 401))
    events = 0
    phase = 0
    worst_net_drift = 0.0
    while events < 10_000_000:
        step_events, phase = advance(pop, rng, 100_000, phase)
        events += step_events
        pop.check_invariants()  # raises on any violated conservation law
        # The ledger: N asset slots, then N liability slots; cash is derived, x = (M + l) - a.
        assets, liabilities = pop.cash[:n], pop.cash[n:]
        cash = (pop.net + liabilities) - assets
        assert np.array_equal(pop.net, net)
        net_drift = np.abs(cash + assets - liabilities - net).max()
        worst_net_drift = max(worst_net_drift, net_drift)
        assert net_drift <= 1e-9 * np.abs(net).max()
        assert abs(math.fsum(cash) - base) <= 1e-9 * base
        assert abs(math.fsum(assets) - math.fsum(liabilities)) <= 1e-9 * credit
    announce(
        "criterion 4 (credit-market accounting)",
        f"{events} events, worst per-agent net-position drift {worst_net_drift:.2e}",
    )


def identity_grid(spec):
    temperatures = (0.5, 1.0, 2.0, 4.0, 8.0)
    volumes = (500.0, 750.0, 1000.0, 1500.0, 2000.0)
    agents = (10, 50, 100, 500, 1000)
    if spec.kind.value in ("cash_only", "overdraft", "credit_market"):
        return [(t, v, None) for t, v in zip(temperatures * 5, sorted(volumes * 5))]
    return [(t, None, n) for t, n in zip(temperatures * 5, sorted(agents * 5))]


def test_criterion_5_thermodynamic_identity_suite():
    import dataclasses

    specs = [
        ModelSpec.cash_only(100, 1000.0),
        ModelSpec.overdraft_model(100, 1000.0, 2.0),
        ModelSpec.combined(100, 2.0),
        ModelSpec.restricted(100, 1.5),
        ModelSpec.credit_market(100, 1000.0),
        ModelSpec.multi_asset(100, 3),
    ]
    start = time.time()
    worst = 0.0
    points = 0
    for spec in specs:
        has_volume = spec.kind.value in ("cash_only", "overdraft", "credit_market")
        for temperature, volume, n_agents in identity_grid(spec):
            local = spec if n_agents is None else dataclasses.replace(spec, n_agents=n_agents)
            residuals = finite_diff_thermo_residuals(local, temperature, volume=volume)
            worst = max(worst, max(residuals.values()))
            directions = [(1e-5, 0.0, 0.0), (0.0, 0.0, 1e-5)]
            directions.append((1e-5, 1e-5, 1e-5) if has_volume else (1e-5, 0.0, 1e-5))
            for deltas in directions:
                gibbs_duhem, first_law = balance_residuals(local, temperature, deltas, volume=volume)
                worst = max(worst, gibbs_duhem, first_law)
            points += 1
    elapsed = time.time() - start
    assert worst < 1e-6
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"
    announce(
        "criterion 5 (identity suite)",
        f"{points} grid points across {len(specs)} models, worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_monetary_carnot():
    spec = ModelSpec.credit_market(1, 1.0)
    report = carnot_cycle(spec, 4.0, 2.0, 1.0, math.e)
    assert abs(report.delta_s_hot - 1.0) <= 1e-9
    assert abs(report.work_L - 2.0) <= 1e-9
    assert abs(report.credit_in_hot - 4.0) <= 1e-9
    assert abs(report.eta - 0.5) <= 1e-9
    assert abs(report.eta - (1.0 - 2.0 / 4.0)) <= 1e-9

    spoiled = carnot_cycle(spec, 4.0, 2.0, 1.0, math.e, expansion_factor=1.5)
    assert spoiled.eta < report.carnot_eta
    verdict = policy_bound_check(spoiled.credit_out_cold, spoiled.credit_in_hot, 2.0, 4.0)
    assert verdict.satisfies_temperature_bound
    assert verdict.credit_ratio > verdict.temperature_ratio

    volume_new = isothermal_base(0.2, 100.0, 0.1)
    identity_gap = abs((volume_new - 100.0) - (volume_new / 0.1 - 100.0 / 0.2))
    assert identity_gap <= 1e-9
    money, temperature = fractional_reserve(0.2, 100.0, 50)
    assert (money, temperature) == (400.0, 8.0)
    announce(
        "criterion 6 (monetary Carnot)",
        f"eta={report.eta} L={report.work_L} C_h={report.credit_in_hot}, "
        f"irreversible eta={spoiled.eta:.4f} < {report.carnot_eta}, reserve gap={identity_gap:.1e}",
    )


def test_criterion_7_pareto_appendix():
    spec = ParetoSpec(1, 1.0, 3.0)
    temperature = 1.0

    # (a) closed forms vs finite differences of lnZ, and vs Monte Carlo.
    h = 1e-6
    lnz = pareto_log_partition(spec, temperature)
    lnz_plus = pareto_log_partition(spec, temperature * (1 + h))
    lnz_minus = pareto_log_partition(spec, temperature * (1 - h))
    dlnz_dt = (lnz_plus - lnz_minus) / (2 * temperature * h)
    s_fd = lnz + temperature * dlnz_dt
    y_fd = temperature**2 * dlnz_dt
    assert abs(pareto_entropy(spec, temperature) - s_fd) <= 1e-6 * max(abs(s_fd), 1.0)
    assert abs(pareto_mean_logincome(spec, temperature) - y_fd) <= 1e-6 * max(abs(y_fd), 1.0)
    draws = pareto_direct_sample(spec, temperature, 100_000, seed=derive_seed(BASE_SEED, 700))
    mc_mean = float(np.mean(np.log(draws)))
    predicted_mean = pareto_mean_logincome_sampling(spec, temperature)
    assert abs(mc_mean - predicted_mean) <= 0.02 * max(abs(predicted_mean), 1.0)

    # (b) Hill tail index of the direct sampler vs t_max/T - 1.
    hill_direct = hill_tail_index(draws)
    assert abs(hill_direct - 2.0) <= 0.05 * 2.0

    # (c) conserved-Y dynamics reproduce the matched canonical tail.
    chain_spec = ParetoSpec(1000, 1.0, 3.0)
    chain = run_income_chain(chain_spec, 0.5, steps=8_000_000, burn_in=100_000,
                             thin=5_000, seed=derive_seed(BASE_SEED, 701))
    assert chain.meta.max_drift <= 1e-9
    pooled = chain.pooled()
    theta = float(np.mean(np.log(pooled / chain_spec.floor_j)))
    canonical_index = 1.0 / theta  # t_max/T_matched - 1 at the matched temperature
    hill_dynamic = hill_tail_index(pooled)
    assert abs(hill_dynamic - canonical_index) <= 0.05 * canonical_index

    # (d) transition scan: strictly increasing, pinned value, divergence.
    scan_spec = ParetoSpec(1, 1.0, 2.0)
    grid = [f * 2.0 for f in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)]
    rows = transition_scan(scan_spec, grid)
    responses = [r[2] for r in rows]
    assert all(b > a for a, b in zip(responses, responses[1:]))
    pinned = transition_scan(scan_spec, [1.0])[0][2]
    assert pinned == pytest.approx(4.0, rel=1e-12)
    assert responses[-1] > 10.0 * responses[4]
    announce(
        "criterion 7 (pareto appendix)",
        f"S_fd gap {abs(pareto_entropy(spec, 1.0) - s_fd):.1e}, MC mean {mc_mean:.4f} vs "
        f"{predicted_mean:.4f}, hill direct {hill_direct:.3f}, hill dynamic {hill_dynamic:.3f} "
        f"vs {canonical_index:.3f}, scan(1.0)={pinned}",
    )


def test_criterion_8_reproducibility_and_negative_check(tmp_path):
    document = {
        "task": "simulate",
        "seed": 13,
        "model": {"kind": "cash_only", "n_agents": 100, "volume_y": 20.0},
        "run": {"policy": "equal", "total": 1000.0, "steps": 150_000,
                "burn_in": 10_000, "thin": 1_000},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(document))
    config = load_config(config_path)
    first = run_experiment(config, tmp_path / "a")
    second = run_experiment(config, tmp_path / "b")
    assert first["files"] == second["files"]
    for name in ("report.json", "samples.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    good = tmp_path / "expect_good.json"
    good.write_text(json.dumps({"expectations": [
        {"name": "aggregate.t_hat", "value": 10.0, "tolerance": 0.03},
        {"name": "aggregate.ks_pass_fraction", "value": 1.0, "tolerance": 1e-9},
    ]}))
    assert main(["check", "-r", str(tmp_path / "a" / "report.json"), "-e", str(good)]) == 0
    # Inject a wrong target: the checker must exit nonzero.
    bad = tmp_path / "expect_bad.json"
    bad.write_text(json.dumps({"expectations": [
        {"name": "aggregate.t_hat", "value": 10.5, "tolerance": 0.03}]}))
    assert main(["check", "-r", str(tmp_path / "a" / "report.json"), "-e", str(bad)]) == 1
    announce(
        "criterion 8 (reproducibility)",
        f"digests stable ({first['files']['report.json'][:18]}...), negative check exits 1",
    )

import math

import numpy as np
import pytest

from moneygas.dynamics import (
    ConservationError,
    DynamicsError,
    Population,
    advance,
    init_population,
    run_chain,
    step,
)
from moneygas.ensembles import ModelSpec
from moneygas.estimation import fit_shifted_exponential


def all_dynamic_specs(n):
    return [
        (ModelSpec.cash_only(n, 50.0), 10.0 * n),
        (ModelSpec.overdraft_model(n, 10.0, 2.0), 3.0 * n),
        (ModelSpec.combined(n, 2.0), 8.0 * n),
        (ModelSpec.restricted(n, 1.5), 0.5 * n),
        (ModelSpec.credit_market(n, 100.0 * n), 5.0 * n),
        (ModelSpec.multi_asset(n, 3), 6.0 * n),
    ]


class TestInit:
    def test_equal_examples(self):
        pop = init_population(ModelSpec.cash_only(4, 1.0), "equal", 8.0)
        assert list(pop.cash) == [2.0, 2.0, 2.0, 2.0]
        pop = init_population(ModelSpec.overdraft_model(2, 1.0, 1.0), "equal", 0.0)
        assert list(pop.accounts) == [0.0, 0.0]
        pop = init_population(ModelSpec.credit_market(3, 9.0), "equal", 0.0)
        assert list(pop.cash) == [3.0, 3.0, 3.0]
        assert not pop.assets.any() and not pop.liabilities.any()

    @pytest.mark.parametrize("policy", ["equal", "uniform-random"])
    def test_all_kinds_start_valid(self, policy):
        for spec, total in all_dynamic_specs(50):
            pop = init_population(spec, policy, total, seed=web_seed(spec))
            pop.check_invariants()
            assert pop.conserved_total == total

    def test_infeasible_totals(self):
        with pytest.raises(DynamicsError):
            init_population(ModelSpec.cash_only(4, 1.0), "equal", -1.0)
        with pytest.raises(DynamicsError):
            init_population(ModelSpec.overdraft_model(4, 1.0, 1.0), "equal", -8.0)
        with pytest.raises(DynamicsError):
            init_population(ModelSpec.credit_market(4, 8.0), "equal", -1.0)

    def test_unknown_policy(self):
        with pytest.raises(DynamicsError):
            init_population(ModelSpec.cash_only(4, 1.0), "random", 8.0)


def web_seed(spec) -> int:
    return hash(spec.kind.value) % 100_000


def turnover_step(pop, rng):
    """Advance the step counter to the turnover phase and apply one event."""
    pop.events_applied = 2
    return step(pop, rng)


class TestPrimitives:
    def test_pair_reshuffle_conserves_total(self):
        pop = init_population(ModelSpec.cash_only(2, 1.0), "equal", 4.6)
        rng = np.random.default_rng(8)
        for _ in range(100):
            record = step(pop, rng)
            assert record.kind == "pair_reshuffle" and sorted(record.agents) == [0, 1]
            assert pop.cash.min() >= 0.0
            assert pop.cash.sum() == pytest.approx(4.6, rel=1e-15)

    def test_overdraft_step_respects_floor(self):
        spec = ModelSpec.overdraft_model(2, 1.0, 2.0)
        pop = init_population(spec, "equal", 1.0)
        pop.accounts[:] = [0.0, 1.0]
        rng = np.random.default_rng(5)
        for _ in range(200):
            step(pop, rng)
            assert pop.accounts.min() >= -2.0
            assert pop.accounts.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lend_keeps_net_positions(self):
        # A turnover lends g0 -> g1 and repays g2 <- g3 the same amount.
        pop = init_population(ModelSpec.credit_market(4, 40.0), "equal", 8.0)
        before = pop.net_positions().copy()
        credit = pop.assets.sum()
        rng = np.random.default_rng(1)
        lent = 0
        for _ in range(50):
            cash = pop.cash.copy()
            record = turnover_step(pop, rng)
            assert record.kind == "turnover"
            if record.accepted:
                lent += 1
                g0, g1, g2, g3 = record.agents
                assert pop.cash[g0] < cash[g0] and pop.cash[g1] > cash[g1]
            assert np.allclose(pop.net_positions(), before, rtol=0, atol=1e-12)
            assert pop.assets.sum() == pytest.approx(credit, rel=1e-12)
            pop.check_invariants()
        assert lent > 0

    def test_lend_requires_cash(self):
        pop = init_population(ModelSpec.credit_market(4, 4.0), "equal", 4.0)
        pop.cash[:] = 0.0
        pop.initial_net_positions = pop.net_positions().copy()
        before = (pop.cash.copy(), pop.assets.copy(), pop.liabilities.copy())
        record = turnover_step(pop, np.random.default_rng(2))
        assert not record.accepted and pop.rejected_events == 1
        for arr, old in zip((pop.cash, pop.assets, pop.liabilities), before):
            assert np.array_equal(arr, old)

    def test_repay_requires_feasibility(self):
        # With the debt written off nobody can repay, so every turnover fails.
        pop = init_population(ModelSpec.credit_market(4, 4.0), "equal", 4.0)
        pop.assets[:] = 0.0
        pop.liabilities[:] = 0.0
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert not turnover_step(pop, rng).accepted
        assert not pop.assets.any() and not pop.liabilities.any()


class TestSingleEventStep:
    @pytest.mark.parametrize("spec,total", all_dynamic_specs(8))
    def test_invariants_hold_through_events(self, spec, total):
        pop = init_population(spec, "uniform-random", total, seed=17)
        rng = np.random.default_rng(23)
        for _ in range(3000):
            record = step(pop, rng)
            assert record.kind
        pop.check_invariants()
        assert pop.events_applied == 3000

    def test_rejections_leave_state_unchanged(self):
        spec = ModelSpec.restricted(6, 0.05)  # tight cap forces pair rejections
        pop = init_population(spec, "equal", 3.0, seed=2)
        rng = np.random.default_rng(3)
        rejected = 0
        for _ in range(2000):
            before_cash = pop.cash.copy()
            before_accounts = pop.accounts.copy()
            record = step(pop, rng)
            if not record.accepted:
                rejected += 1
                assert np.array_equal(pop.cash, before_cash)
                assert np.array_equal(pop.accounts, before_accounts)
        assert rejected > 0
        assert pop.rejected_events == rejected


class TestRunChain:
    def test_window_validation(self):
        spec = ModelSpec.cash_only(10, 1.0)
        with pytest.raises(DynamicsError):
            run_chain(spec, "equal", 10.0, steps=100, burn_in=100, thin=10)
        with pytest.raises(DynamicsError):
            run_chain(spec, "equal", 10.0, steps=100, burn_in=-1, thin=10)
        with pytest.raises(DynamicsError):
            run_chain(spec, "equal", 10.0, steps=100, burn_in=10, thin=0)
        with pytest.raises(DynamicsError, match="2 agents"):
            run_chain(ModelSpec.cash_only(1, 1.0), "equal", 10.0, steps=100, burn_in=10, thin=10)

    def test_csv_values_round_trip_exactly(self):
        spec = ModelSpec.combined(20, 1.0)
        samples = run_chain(spec, "uniform-random", 60.0, 20000, 2000, 1000, seed=5)
        header, *rows = samples.csv_bytes().decode().splitlines()
        assert header == "step,agent,coord_name,value"
        parsed = [(int(s), int(a), name, float(v)) for s, a, name, v in (r.split(",") for r in rows)]
        assert parsed == [
            (step_index, agent, name, value)
            for r, step_index in enumerate(samples.record_steps.tolist())
            for name in ("x", "y")
            for agent, value in enumerate(samples.coords[name][r].tolist())
        ]

    def test_record_count_invariant(self):
        spec = ModelSpec.cash_only(10, 1.0)
        samples = run_chain(spec, "equal", 100.0, steps=5050, burn_in=1000, thin=300, seed=1)
        assert samples.n_records == (5050 - 1000) // 300
        csv = samples.csv_bytes().decode().splitlines()
        assert len(csv) == 1 + samples.n_records * 10  # header + records * agents

    def test_determinism_and_seed_sensitivity(self):
        spec = ModelSpec.combined(20, 1.0)
        first = run_chain(spec, "uniform-random", 60.0, 20000, 2000, 100, seed=9)
        second = run_chain(spec, "uniform-random", 60.0, 20000, 2000, 100, seed=9)
        other = run_chain(spec, "uniform-random", 60.0, 20000, 2000, 100, seed=10)
        assert first.csv_bytes() == second.csv_bytes()
        assert first.csv_bytes() != other.csv_bytes()

    def test_default_window(self):
        spec = ModelSpec.cash_only(20, 1.0)
        samples = run_chain(spec, "equal", 100.0, steps=20 * 150, seed=4)
        assert samples.meta.burn_in == 100 * 20
        assert samples.meta.thin == 20

    @pytest.mark.parametrize("spec,total", all_dynamic_specs(100))
    def test_conservation_audit_over_a_million_events(self, spec, total):
        samples = run_chain(
            spec, "equal", total, steps=1_000_000, burn_in=10_000, thin=10_000, seed=31
        )
        assert samples.meta.max_drift < 1e-9

    def test_sample_mean_pins_the_conserved_total(self):
        spec = ModelSpec.cash_only(100, 10.0)
        samples = run_chain(spec, "equal", 1000.0, 500_000, 10_000, 1000, seed=6)
        assert samples.pooled(["x"]).mean() == pytest.approx(10.0, abs=0.1)

    def test_combined_factor_half_at_distribution_level(self):
        n, d, total = 500, 6.0, 3000.0  # m/N = 6 = d, so T = 6
        spec = ModelSpec.combined(n, d)
        samples = run_chain(spec, "equal", total, 4_000_000, 50_000, 2500, seed=44)
        fit = fit_shifted_exponential(samples.pooled(["x"]), 0.0)
        assert fit.t_hat == pytest.approx(0.5 * (total / n + d), rel=0.03)

    def test_credit_market_accounting(self):
        spec = ModelSpec.credit_market(100, 100_000.0)
        pop = init_population(spec, "equal", 500.0, seed=12)
        rng = np.random.default_rng(12)
        events, _ = advance(pop, rng, 1_000_000)
        assert events >= 1_000_000
        pop.check_invariants()
        assert math.fsum(pop.cash) == pytest.approx(100_000.0, rel=1e-12)
        assert math.fsum(pop.assets) - math.fsum(pop.liabilities) == pytest.approx(0.0, abs=1e-9)
        drift = np.abs(pop.net_positions() - pop.initial_net_positions)
        assert drift.max() <= 1e-9 * np.abs(pop.initial_net_positions).max()

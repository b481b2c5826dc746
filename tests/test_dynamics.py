import json
import math
import sys
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneygas import dynamics
from moneygas.cli import main
from moneygas.dynamics import (
    _DEBT_ASSUMPTION,
    _LOAN_SALE,
    _SLOT_PAIR,
    KERNELS,
    DynamicsError,
    Move,
    _sweep,
    advance,
    init_population,
    recorded_coordinates,
    run_chain,
    samples_csv,
)
from moneygas.ensembles import PARTITION_FUNCTIONS, ModelKind, ModelSpec
from moneygas.estimation import fit_shifted_exponential


def all_dynamic_specs(n):
    return [
        (ModelSpec.cash_only(n, 50.0), 10.0 * n),
        (ModelSpec.overdraft_model(n, 10.0, 2.0), 3.0 * n),
        (ModelSpec.multi_account(n, tuple(1 + i % 3 for i in range(n)),
                                 tuple((0.5 * (i % 4),) * (1 + i % 3) for i in range(n))), 2.0 * n),
        (ModelSpec.combined(n, 2.0), 8.0 * n),
        (ModelSpec.restricted(n, 1.5), 0.5 * n),
        (ModelSpec.credit_market(n, 100.0 * n), 5.0 * n),
        (ModelSpec.multi_asset(n, 3), 6.0 * n),
    ]


class TestInit:
    def test_equal_examples(self):
        pop = init_population(ModelSpec.cash_only(4, 1.0), "equal", 8.0)
        assert list(pop.cash) == [2.0, 2.0, 2.0, 2.0]
        # Overdraft balances are held as shifted slots z = y + d.
        pop = init_population(ModelSpec.overdraft_model(2, 1.0, 1.0), "equal", 0.0)
        assert list(pop.cash) == [1.0, 1.0]
        pop = init_population(ModelSpec.multi_account(2, (1, 2), ((1.0,), (0.0, 2.0))), "equal", 3.0)
        assert list(pop.cash) == [2.0, 2.0, 2.0]
        # combined: N cash slots, then N account slots z = y + d, every one at (total + N·d)/2N.
        pop = init_population(ModelSpec.combined(2, 1.0), "equal", 2.0)
        assert list(pop.cash) == [1.0, 1.0, 1.0, 1.0]
        # restricted: a negative total/N sits in the accounts, below their cap z = d.
        pop = init_population(ModelSpec.restricted(2, 1.0), "equal", -1.0)
        assert list(pop.cash) == [0.0, 0.0, 0.5, 0.5]
        assert list(pop.caps) == [math.inf, math.inf, 1.0, 1.0]
        pop = init_population(ModelSpec.multi_asset(2, 3), "equal", 6.0)
        assert list(pop.cash) == [1.0] * 6
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
            init_population(ModelSpec.multi_account(2, (1, 2), ((1.0,), (0.0, 2.0))), "equal", -3.5)
        with pytest.raises(DynamicsError):
            init_population(ModelSpec.credit_market(4, 8.0), "equal", -1.0)
        with pytest.raises(DynamicsError):
            init_population(ModelSpec.combined(2, 1.0), "equal", -2.5)
        with pytest.raises(DynamicsError):  # restricted's floor -N·d is itself out of reach
            init_population(ModelSpec.restricted(2, 1.0), "uniform-random", -2.0)

    def test_unknown_policy(self):
        with pytest.raises(DynamicsError):
            init_population(ModelSpec.cash_only(4, 1.0), "random", 8.0)


def test_every_kind_has_a_kernel_and_a_partition_function():
    # A kind missing either entry would pass build_model and then be refused by every verb.
    for kind in ModelKind:
        assert kind in KERNELS and kind in PARTITION_FUNCTIONS, kind


def web_seed(spec) -> int:
    return hash(spec.kind.value) % 100_000


def state(pop):
    return [arr.copy() for arr in (pop.cash, pop.assets, pop.liabilities)
            if arr is not None]


def unchanged(pop, before):
    return all(np.array_equal(arr, old) for arr, old in zip(state(pop), before))


class TestPrimitives:
    """One sweep of a named move; at N = 2 a pair sweep is one event."""

    def test_pair_reshuffle_conserves_total(self):
        pop = init_population(ModelSpec.cash_only(2, 1.0), "equal", 4.6)
        rng = np.random.default_rng(8)
        for _ in range(100):
            assert _sweep(pop, rng, _SLOT_PAIR) == 1
            assert pop.cash.min() >= 0.0
            assert pop.cash.sum() == pytest.approx(4.6, rel=1e-15)

    def test_overdraft_step_respects_floor(self):
        # The slots are z = y + d, so the floor y >= -d is z >= 0.
        spec = ModelSpec.overdraft_model(2, 1.0, 2.0)
        pop = init_population(spec, "equal", 1.0)
        pop.cash[:] = [2.0, 3.0]  # balances 0 and 1
        rng = np.random.default_rng(5)
        for _ in range(200):
            assert _sweep(pop, rng, _SLOT_PAIR) == 1
            assert (pop.cash - 2.0).min() >= -2.0
            assert (pop.cash - 2.0).sum() == pytest.approx(1.0, abs=1e-12)
            assert pop.conserved_value() == pytest.approx(1.0, abs=1e-12)

    def test_multi_account_pairs_accounts(self):
        # Three accounts of two agents: each sweep pairs one account with another.
        spec = ModelSpec.multi_account(2, (1, 2), ((1.0,), (0.0, 2.0)))
        pop = init_population(spec, "uniform-random", 3.0, seed=2)
        rng = np.random.default_rng(6)
        for _ in range(200):
            assert _sweep(pop, rng, _SLOT_PAIR) == 1
            assert pop.cash.min() >= 0.0
            assert pop.cash.sum() - 3.0 == pytest.approx(3.0, abs=1e-12)
            pop.check_invariants()

    def test_lend_keeps_net_positions(self):
        # A loan sale moves assets against cash, a debt assumption liabilities with cash:
        # each agent's cash change offsets its credit change exactly.
        pop = init_population(ModelSpec.credit_market(4, 40.0), "equal", 8.0)
        before = pop.net_positions().copy()
        credit = pop.assets.sum()
        rng = np.random.default_rng(1)
        traded = 0
        for sweep in range(50):
            cash, assets, liabilities = pop.cash.copy(), pop.assets.copy(), pop.liabilities.copy()
            assert _sweep(pop, rng, (_LOAN_SALE, _DEBT_ASSUMPTION)[sweep % 2]) == 2
            if sweep % 2 == 0:
                assert np.allclose(pop.cash - cash, assets - pop.assets, rtol=0, atol=1e-12)
                assert np.array_equal(pop.liabilities, liabilities)
            else:
                assert np.allclose(pop.cash - cash, pop.liabilities - liabilities, rtol=0, atol=1e-12)
                assert np.array_equal(pop.assets, assets)
            traded += int(np.count_nonzero(pop.cash != cash)) // 2
            assert np.allclose(pop.net_positions(), before, rtol=0, atol=1e-12)
            assert pop.assets.sum() == pytest.approx(credit, rel=1e-12)
            assert pop.liabilities.sum() == pytest.approx(credit, rel=1e-12)
            pop.check_invariants()
        assert traded > 0

    def test_lend_requires_cash(self):
        # Without cash nobody can buy assets or hand on debt, so both moves are rejected.
        pop = init_population(ModelSpec.credit_market(2, 4.0), "equal", 4.0)
        pop.cash[:] = 0.0
        pop.initial_net_positions = pop.net_positions().copy()
        before = state(pop)
        rng = np.random.default_rng(2)
        for rejected, move in enumerate((_LOAN_SALE, _DEBT_ASSUMPTION), start=1):
            assert _sweep(pop, rng, move) == 1
            assert pop.rejected_events == rejected
            assert unchanged(pop, before)

    def test_repay_requires_feasibility(self):
        # Agent 0 owes all the debt and has no cash to pay anyone to take it over.
        pop = init_population(ModelSpec.credit_market(2, 4.0), "equal", 2.0)
        pop.cash[:] = [0.0, 4.0]
        pop.assets[:] = [0.0, 2.0]
        pop.liabilities[:] = [2.0, 0.0]
        pop.initial_net_positions = pop.net_positions().copy()
        pop.check_invariants()
        before = state(pop)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert _sweep(pop, rng, _DEBT_ASSUMPTION) == 1
            assert unchanged(pop, before)
        assert pop.rejected_events == 20


class TestSingleEventStep:
    """Invariants and rejections checked after every sweep of a small population."""

    @pytest.mark.parametrize("spec,total", all_dynamic_specs(8))
    def test_invariants_hold_through_events(self, spec, total):
        pop = init_population(spec, "uniform-random", total, seed=17)
        rng = np.random.default_rng(23)
        events = phase = 0
        while events < 3000:
            done, phase = advance(pop, rng, 1, phase)
            # One pair sweep over the K slots.
            assert done == spec.n_slots // 2
            events += done
            pop.check_invariants()
        assert pop.rejected_events <= events

    def test_rejections_leave_state_unchanged(self):
        # A tight cap rejects most capped splits. At N = 2 a sweep is 2 pairs of
        # the 4 slots, and each pair that passes a cap is written back unchanged.
        spec = ModelSpec.restricted(2, 0.05)
        pop = init_population(spec, "equal", 1.0, seed=2)
        rng = np.random.default_rng(3)
        rejected = phase = 0
        for _ in range(2000):
            before, counted = state(pop), pop.rejected_events
            done, phase = advance(pop, rng, 1, phase)
            assert done == 2
            now = pop.rejected_events - counted
            assert 0 <= now <= 2
            if now == 2:
                assert unchanged(pop, before)
            assert pop.cash[2:].max() <= 0.05  # z <= d exactly, no clamping
            pop.check_invariants()
            rejected += now
        assert rejected > 0
        assert pop.rejected_events == rejected


class TestMoveArity:
    @pytest.mark.parametrize("n", [2, 3, 4, 1000])
    def test_every_move_is_a_pair(self, n):
        # Each move gets the two halves of a matching of the K slots and changes only those.
        specs = all_dynamic_specs(n)
        assert {spec.kind for spec, _ in specs} == set(KERNELS)
        for spec, total in specs:
            pop = init_population(spec, "uniform-random", total, seed=n)
            for move in KERNELS[spec.kind].moves:
                watched, seen = probe(move)
                before = state(pop)
                assert _sweep(pop, np.random.default_rng(n), watched) == spec.n_slots // 2
                ((j, k),) = seen
                assert j.size == k.size == spec.n_slots // 2
                assert np.unique(np.concatenate([j, k])).size == 2 * j.size
                for arr, old in zip(state(pop), before):
                    assert set(np.flatnonzero(arr != old).tolist()) <= set(j.tolist()) | set(k.tolist())

    def test_credit_market_sweep_sets_the_pair_matching(self):
        pop = init_population(ModelSpec.credit_market(7, 70.0), "equal", 7.0)
        assert pop.pair_epoch is None
        assert advance(pop, np.random.default_rng(5), 1) == (3, 1)
        assert pop.pair_epoch is not None and pop.pair_epoch.sweep == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_small_credit_markets_pass_the_audits(self, n, monkeypatch):
        # An audit every 500 events: 40 audits of the whole ledger in a 20,000-event chain.
        audits = []
        check = dynamics.Population.check_invariants
        monkeypatch.setattr(dynamics, "AUDIT_INTERVAL", 500)
        monkeypatch.setattr(dynamics.Population, "check_invariants",
                            lambda pop: audits.append(pop.n_agents) or check(pop))
        spec = ModelSpec.credit_market(n, 1.0 * n)  # a small base: cash shortfalls reject trades
        samples = run_chain(spec, "uniform-random", 5.0 * n, steps=20_000, burn_in=1000,
                            thin=1000, seed=n)
        assert len(audits) == 1 + 40 + 1  # at init, every 500 events, at the end
        assert samples.meta.events_run == 20_000
        assert samples.meta.max_drift < 1e-9
        assert samples.meta.rejected_events > 0


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

    def test_csv_record_ranges_concatenate(self):
        samples = run_chain(ModelSpec.combined(20, 1.0), "uniform-random", 60.0, 20000, 2000, 1000, seed=5)
        whole = samples.csv_bytes()
        for cut in (1, 7, samples.n_records, samples.n_records + 3):
            assert samples.csv_bytes(0, cut) + samples.csv_bytes(cut) == whole

    def test_records_match_a_replay_of_the_sweeps(self):
        # The reference: sweep by sweep, stacking a copy of the coordinates at each due record.
        spec, total, steps, burn_in, thin = ModelSpec.multi_asset(10, 3), 60.0, 3000, 1000, 250
        samples = run_chain(spec, "uniform-random", total, steps, burn_in, thin, seed=8)
        rng = np.random.default_rng(8)
        pop = init_population(spec, "uniform-random", total, rng=rng)
        n_records = (steps - burn_in) // thin
        snapshots, events, phase = [], 0, 0
        while len(snapshots) < n_records:
            done, phase = advance(pop, rng, 1, phase)
            events += done
            while len(snapshots) < n_records and burn_in + (len(snapshots) + 1) * thin <= events:
                snapshots.append(recorded_coordinates(pop))
        assert list(samples.coords) == list(snapshots[0])
        for name, records in samples.coords.items():
            assert np.array_equal(records, np.stack([snap[name] for snap in snapshots]))

    def test_pooled_views_a_single_coordinate(self):
        samples = run_chain(ModelSpec.combined(20, 1.0), "equal", 60.0, 20000, 2000, 1000, seed=5)
        assert np.shares_memory(samples.pooled(["x"]), samples.coords["x"])
        assert np.array_equal(samples.pooled(["y"]), samples.coords["y"].ravel())
        assert np.array_equal(samples.pooled(), np.concatenate(
            [samples.coords["x"].ravel(), samples.coords["y"].ravel()]))

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

    @pytest.mark.parametrize("spec,total", all_dynamic_specs(20))
    def test_money_per_agent_is_the_conserved_total_per_agent(self, spec, total):
        samples = run_chain(spec, "uniform-random", total, 20_000, 2_000, 1_000, seed=3)
        money = KERNELS[spec.kind].money_per_agent(spec, samples.coords)
        assert money == pytest.approx(total / spec.n_agents, rel=1e-9)
        if spec.kind is ModelKind.CASH_ONLY:
            assert money == float(samples.coords["x"].mean())  # exactly the mean cash

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


def reference_csv(record_steps, coords, header=True) -> bytes:
    """samples.csv written plainly: one repr literal per value."""
    lines = ["step,agent,coord_name,value\n"] if header else []
    for r, step in enumerate(record_steps):
        for name in sorted(coords):
            lines += [f"{step},{agent},{name},{value!r}\n" for agent, value in enumerate(coords[name][r].tolist())]
    return "".join(lines).encode()


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Where repr and orjson switch notation (1e-4, 1e16), the subnormal and normal
# ends, the largest double, and the powers of two around them.
EDGES = sorted({float(v) for x in (1e-4, 1e15, 1e16, 5e-324, sys.float_info.min, sys.float_info.max,
                                   2.0**-14, 2.0**-13, 2.0**53, 2.0**54, 2.0**1023)
                for v in neighbours(x)} | {0.0, 1.0})
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]


@st.composite
def csv_records(draw):
    """(record steps, coords): up to 4 records of 1-5 agents under 1-3 names."""
    names = draw(st.lists(st.sampled_from(["x", "y", "z%", "y_0"]), min_size=1, max_size=3, unique=True))
    n_records, n_agents = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    steps = draw(st.lists(st.integers(0, 2**62), min_size=n_records, max_size=n_records))
    floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGES + [-v for v in EDGES])
    coords = {name: np.array(draw(st.lists(floats, min_size=n_records * n_agents, max_size=n_records * n_agents)),
                             dtype=np.float64).reshape(n_records, n_agents)
              for name in names}
    return steps, coords


class TestSamplesCsv:
    @settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True, database=None)
    @given(records=csv_records(), header=st.booleans())
    def test_equals_the_repr_writer(self, records, header):
        steps, coords = records
        assert samples_csv(steps, coords, header) == reference_csv(steps, coords, header)

    def test_edges_and_specials_in_both_signs(self):
        row = np.array(EDGES + [-v for v in EDGES] + SPECIAL)
        coords = {"x": row[None, :], "y": row[None, ::-1].copy()}
        assert samples_csv([7], coords) == reference_csv([7], coords)
        literals = {line.rsplit(",", 1)[1] for line in samples_csv([7], coords).decode().splitlines()[1:]}
        assert {"5e-324", "-6.103515625e-05", "0.0001", "1000000000000000.0", "1e+16", "-0.0", "-inf",
                "nan"} <= literals  # repr's forms, not orjson's 0.00006103515625, 1e16 or null
        assert "null" not in literals

    def test_combined_records_with_negative_accounts(self):
        samples = run_chain(ModelSpec.combined(20, 1.0), "uniform-random", 60.0, 20_000, 2_000, 1_000, seed=5)
        assert samples.coords["y"].min() < 0
        steps = samples.record_steps.tolist()
        assert samples.csv_bytes() == reference_csv(steps, samples.coords)
        assert samples.csv_bytes(3, 9) == reference_csv(steps[3:9], {k: v[3:9] for k, v in samples.coords.items()},
                                                        header=False)


def probe(inner=None):
    """A move that keeps a copy of every group it is given, then applies
    ``inner`` to them; without ``inner`` it changes nothing."""
    seen = []

    def apply(pop, rng, *groups):
        seen.append([np.array(g) for g in groups])
        return inner.apply(pop, rng, *groups) if inner else 0

    return Move("probe", apply), seen


def pair_sweeps(n, sweeps, seed=3):
    pop = init_population(ModelSpec.cash_only(n, 1.0), "equal", float(n))
    move, seen = probe()
    rng = np.random.default_rng(seed)
    events = [_sweep(pop, rng, move) for _ in range(sweeps)]
    assert events == [n // 2] * sweeps
    return seen


class TestPairMatching:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 1000])
    def test_pair_groups_are_disjoint(self, n):
        for j, k in pair_sweeps(n, 3 * (n // 2) + 1):
            agents = np.concatenate([j, k])
            assert j.size == k.size == n // 2
            assert np.unique(agents).size == 2 * (n // 2)
            assert agents.min() >= 0 and agents.max() < n

    @pytest.mark.parametrize("n", [5, 8, 1000])
    def test_shifted_halves_within_an_epoch(self, n):
        # Each epoch of n // 2 sweeps keeps halves A and B and shifts B cyclically.
        half = n // 2
        seen = pair_sweeps(n, 2 * half)
        for epoch in (seen[:half], seen[half:]):
            a, b = epoch[0]
            for j, k in epoch:
                assert np.array_equal(j, a)
                r = int(np.flatnonzero(b == k[0])[0])
                assert np.array_equal(k, np.roll(b, -r))

    def test_odd_population_rotates_the_agent_sitting_out(self):
        n, half = 5, 2
        out = [set(range(n)).difference(np.concatenate(groups).tolist()) for groups in pair_sweeps(n, 40)]
        assert all(len(agents) == 1 for agents in out)
        assert all(out[i] == out[i - i % half] for i in range(len(out)))  # one per epoch
        assert len(set().union(*out)) > 1

    # Small populations need more epochs: an agent that sits out, or a pair that
    # stays matched, for every epoch stays disconnected.
    @pytest.mark.parametrize("n,epochs", [(3, 10), (5, 10), (8, 10), (1000, 2)])
    def test_pairings_over_a_few_epochs_connect_all_agents(self, n, epochs):
        parent = list(range(n))

        def root(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for j, k in pair_sweeps(n, epochs * (n // 2)):
            for a, b in zip(j.tolist(), k.tolist()):
                parent[root(a)] = root(b)
        assert len({root(i) for i in range(n)}) == 1

    @pytest.mark.parametrize("model", [
        {"kind": "combined", "n_agents": 7, "overdraft": 1.0},
        {"kind": "credit_market", "n_agents": 9, "volume_x": 90.0},
    ])
    def test_same_seed_same_samples_csv(self, tmp_path, model):
        document = {"task": "simulate", "seed": 21, "model": model,
                    "run": {"policy": "uniform-random", "total": 20.0, "steps": 20_000,
                            "burn_in": 2_000, "thin": 500}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        for out in ("a", "b"):
            assert main(["simulate", "-c", str(config), "-o", str(tmp_path / out)]) == 0
        first = (tmp_path / "a" / "samples.csv").read_bytes()
        assert first == (tmp_path / "b" / "samples.csv").read_bytes()
        assert first.count(b"\n") == 1 + 36 * model["n_agents"] * (2 if model["kind"] == "combined" else 1)

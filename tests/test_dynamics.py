import json
import math
import os
import subprocess
import sys
import tracemalloc
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneygas import dynamics
from moneygas.cli import main
from moneygas.dynamics import (
    KERNELS,
    ChainMeta,
    ConservationError,
    DynamicsError,
    PairEpoch,
    SampleSet,
    advance,
    init_population,
    recorded_coordinates,
    recording_window,
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
        # credit_market: N asset slots, then N liability slots; cash x = (M + l) - a is derived.
        pop = init_population(ModelSpec.credit_market(3, 9.0), "equal", 0.0)
        assets, liabilities, cash = ledger(pop)
        assert list(cash) == [3.0, 3.0, 3.0]
        assert not assets.any() and not liabilities.any()

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

    def test_restricted_uniform_random_starts_at_every_seed(self):
        # Any total above the floor -N·d = -10 is feasible; a uniform draw of each
        # account slot in [0, d] left negative cash for 53 of these seeds.
        spec = ModelSpec.restricted(10, 1.0)
        for seed in range(100):
            pop = init_population(spec, "uniform-random", -5.0, seed=seed)
            pop.check_invariants()
            assert pop.cash[10:].max() <= 1.0

    def test_unknown_policy(self):
        with pytest.raises(DynamicsError):
            init_population(ModelSpec.cash_only(4, 1.0), "random", 8.0)


def test_every_kind_has_a_kernel_and_a_partition_function():
    # A kind missing either entry would pass build_model and then be refused by every verb.
    for kind in ModelKind:
        assert kind in KERNELS and kind in PARTITION_FUNCTIONS, kind


def web_seed(spec) -> int:
    return hash(spec.kind.value) % 100_000


def ledger(pop):
    """Copies of the credit market's assets and liabilities, and its derived cash (M + l) - a."""
    n = pop.n_agents
    assets, liabilities = pop.cash[:n].copy(), pop.cash[n:].copy()
    return assets, liabilities, (pop.net + liabilities) - assets


def state(pop):
    """Copies of the slots, or of the credit market's assets, liabilities and cash."""
    return [pop.cash.copy()] if pop.net is None else list(ledger(pop))


def unchanged(pop, before):
    return all(np.array_equal(arr, old) for arr, old in zip(state(pop), before))


# ---------------------------------------------------------------------------
# The numpy sweep: the reference the compiled loop in _native.c is held to
# ---------------------------------------------------------------------------


def sweep_pairs(epoch, sweep):
    """Halves A and B of the epoch, B shifted by its shift r of sweep number
    ``sweep``: the pairs (A[i], B[(i + r) mod N // 2])."""
    half = epoch.shifts.size
    return epoch.order[:half], np.roll(epoch.order[half:2 * half], -int(epoch.shifts[sweep]))


def last_pairs(pop):
    """The pairs of the population's last sweep."""
    return sweep_pairs(pop.pair_epoch, pop.pair_epoch.sweep - 1)


def reference_split(pop, rng, j, k, row):
    """Uniform split of each pair's sum in slot row ``row`` (the ledger's liabilities
    are row 1); a pair whose split would break the population's bound keeps its
    values. Returns the number of rejected pairs."""
    z = pop.cash[row * pop.n_agents:]
    s = z[j] + z[k]
    first = rng.random(s.size) * s
    rest = s - first
    accept = pop.allows(row, j, first) & pop.allows(row, k, rest)
    rejected = s.size - int(np.count_nonzero(accept))
    if rejected:
        j, k, first, rest = j[accept], k[accept], first[accept], rest[accept]
    z[j] = first
    z[k] = rest
    return rejected


def reference_advance(pop, rng, n_events, phase=0):
    """``advance`` one numpy sweep at a time, each with its own ``rng.random(N // 2)``."""
    rows = len(KERNELS[pop.spec.kind].moves)
    events = 0
    while events < n_events:
        epoch = pop.pair_epoch
        if epoch is None or epoch.sweep == epoch.shifts.size:
            epoch = pop.pair_epoch = PairEpoch.draw(pop.spec.n_slots, rng)
        j, k = sweep_pairs(epoch, epoch.sweep)
        epoch.sweep += 1
        pop.rejected_events += reference_split(pop, rng, j, k, phase % rows)
        events += j.size
        phase += 1
    return events, phase


def one_sweep(pop, rng, row):
    """Advance by one sweep of slot row ``row``; returns its event count."""
    events, phase = advance(pop, rng, 1, row)
    assert phase == row + 1
    return events


class TestPrimitives:
    """One sweep of one slot row's move; at N = 2 a pair sweep is one event."""

    def test_pair_reshuffle_conserves_total(self):
        pop = init_population(ModelSpec.cash_only(2, 1.0), "equal", 4.6)
        rng = np.random.default_rng(8)
        for _ in range(100):
            assert one_sweep(pop, rng, 0) == 1
            assert pop.cash.min() >= 0.0
            assert pop.cash.sum() == pytest.approx(4.6, rel=1e-15)

    def test_overdraft_step_respects_floor(self):
        # The slots are z = y + d, so the floor y >= -d is z >= 0.
        spec = ModelSpec.overdraft_model(2, 1.0, 2.0)
        pop = init_population(spec, "equal", 1.0)
        pop.cash[:] = [2.0, 3.0]  # balances 0 and 1
        rng = np.random.default_rng(5)
        for _ in range(200):
            assert one_sweep(pop, rng, 0) == 1
            assert (pop.cash - 2.0).min() >= -2.0
            assert (pop.cash - 2.0).sum() == pytest.approx(1.0, abs=1e-12)
            assert pop.conserved_value() == pytest.approx(1.0, abs=1e-12)

    def test_multi_account_pairs_accounts(self):
        # Three accounts of two agents: each sweep pairs one account with another.
        spec = ModelSpec.multi_account(2, (1, 2), ((1.0,), (0.0, 2.0)))
        pop = init_population(spec, "uniform-random", 3.0, seed=2)
        rng = np.random.default_rng(6)
        for _ in range(200):
            assert one_sweep(pop, rng, 0) == 1
            assert pop.cash.min() >= 0.0
            assert pop.cash.sum() - 3.0 == pytest.approx(3.0, abs=1e-12)
            pop.check_invariants()

    def test_lend_keeps_net_positions(self):
        # A loan sale moves assets against cash, a debt assumption liabilities with cash:
        # each agent's cash change offsets its credit change exactly.
        pop = init_population(ModelSpec.credit_market(4, 40.0), "equal", 8.0)
        net = pop.net.copy()
        rng = np.random.default_rng(1)
        traded = 0
        for sweep in range(50):
            assets, liabilities, cash = ledger(pop)
            assert one_sweep(pop, rng, sweep % 2) == 2
            now_assets, now_liabilities, now_cash = ledger(pop)
            if sweep % 2 == 0:
                assert np.allclose(now_cash - cash, assets - now_assets, rtol=0, atol=1e-12)
                assert np.array_equal(now_liabilities, liabilities)
            else:
                assert np.allclose(now_cash - cash, now_liabilities - liabilities, rtol=0, atol=1e-12)
                assert np.array_equal(now_assets, assets)
            traded += int(np.count_nonzero(now_cash != cash)) // 2
            assert np.array_equal(pop.net, net)
            assert np.allclose(now_cash + now_assets - now_liabilities, net, rtol=0, atol=1e-12)
            assert math.fsum(now_cash) == pytest.approx(40.0, rel=1e-9)
            assert now_assets.sum() == pytest.approx(8.0, rel=1e-12)
            assert now_liabilities.sum() == pytest.approx(8.0, rel=1e-12)
            pop.check_invariants()
        assert traded > 0

    def test_lend_requires_cash(self):
        # Without cash nobody can buy assets or hand on debt, so both moves are rejected.
        pop = init_population(ModelSpec.credit_market(2, 4.0), "equal", 4.0)
        pop.net[:] = 0.0  # a = l = 2, so x = 0
        pop.check_invariants()
        before = state(pop)
        rng = np.random.default_rng(2)
        for rejected, row in enumerate((0, 1), start=1):  # the loan sale, then the debt assumption
            assert one_sweep(pop, rng, row) == 1
            assert pop.rejected_events == rejected
            assert unchanged(pop, before)

    def test_repay_requires_feasibility(self):
        # Agent 0 owes all the debt and has no cash to pay anyone to take it over.
        pop = init_population(ModelSpec.credit_market(2, 4.0), "equal", 2.0)
        pop.cash[:] = [0.0, 2.0, 2.0, 0.0]  # assets, then liabilities
        pop.net[:] = [-2.0, 6.0]  # cash 0 and 4
        pop.check_invariants()
        before = state(pop)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert one_sweep(pop, rng, 1) == 1  # the debt assumption
            assert unchanged(pop, before)
        assert pop.rejected_events == 20

    def test_agent_at_exactly_zero_cash(self):
        # Agent 0's cash is zero in floats: a_0 = fl(M_0 + l_0). The moves and the audit
        # test the one expression a <= M + l; l >= a - M would call this state invalid.
        net, liabilities = 0.1, 0.2
        assets = net + liabilities
        assert assets - net > liabilities
        pop = init_population(ModelSpec.credit_market(2, 4.0), "equal", 1.0)
        pop.cash[:] = [assets, 1.0, liabilities, assets + 1.0 - liabilities]
        pop.net[:] = [net, 3.0]
        pop.conserved_total = math.fsum(pop.cash[:2])
        assert ledger(pop)[2][0] == 0.0
        pop.check_invariants()
        rng = np.random.default_rng(4)
        accepted = {}
        for sweep in range(200):
            rejected = pop.rejected_events
            one_sweep(pop, rng, sweep % 2)
            accepted[sweep % 2] = accepted.get(sweep % 2, 0) + 1 - (pop.rejected_events - rejected)
            pop.check_invariants()
            assert ledger(pop)[2].min() >= 0.0
        assert min(accepted.values()) > 0 and pop.rejected_events > 0

    def test_ledger_audit_raises_on_what_can_still_break(self):
        # The checks left to the ledger: slots >= 0, the cash bound a <= M + l, and
        # Σa = Σl = D. Each case breaks one of them; D = 2.
        cases = [([-0.5, 2.5, 1.0, 1.0], [2.0, 2.0], "negative slot"),
                 ([2.0, 0.0, 1.0, 1.0], [0.5, 2.0], "past their bound"),  # x_0 = 0.5 + 1 - 2
                 ([1.0, 1.0, 1.0, 1.5], [2.0, 2.0], "drifted")]  # Σl = 2.5
        for slots, net, message in cases:
            pop = init_population(ModelSpec.credit_market(2, 4.0), "equal", 2.0)
            pop.cash[:], pop.net[:] = slots, net
            with pytest.raises(ConservationError, match=message):
                pop.check_invariants()

    def test_restricted_audit_raises_past_the_cap(self):
        # Account slot 0 at 1.5 > d = 1, with the total (Σz - Σd = 1) kept.
        pop = init_population(ModelSpec.restricted(2, 1.0), "equal", 1.0)
        assert list(pop.cash) == [0.5, 0.5, 1.0, 1.0]
        pop.cash[:] = [0.0, 0.5, 1.5, 1.0]
        with pytest.raises(ConservationError, match="1 slots past their bound"):
            pop.check_invariants()

    def test_an_unbounded_kind_allows_every_slot_as_an_array(self):
        pop = init_population(ModelSpec.cash_only(4, 1.0), "equal", 8.0)
        allowed = pop.allows(0, np.arange(4), pop.cash)
        assert allowed.dtype == bool and allowed.shape == (4,) and allowed.all()


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
            for row in range(len(KERNELS[spec.kind].moves)):
                before = state(pop)
                assert one_sweep(pop, np.random.default_rng(n), row) == spec.n_slots // 2
                j, k = last_pairs(pop)
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
            for r, step_index in enumerate(window_steps(20, 20000, 2000, 1000))
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

    @pytest.mark.parametrize("spec,total", all_dynamic_specs(9))
    def test_run_chain_is_the_replay_loop(self, spec, total, monkeypatch):
        # bench/replay.py times run_chain's parts through this loop of public calls:
        # advance to the next record, audit or end, then record and audit what is due.
        monkeypatch.setattr(dynamics, "AUDIT_INTERVAL", 700)  # audits between the records
        steps, burn_in, thin, seed = 9_000, 1_000, 450, 7
        samples = run_chain(spec, "uniform-random", total, steps, burn_in, thin, seed=seed)
        rng = np.random.default_rng(seed)
        pop = init_population(spec, "uniform-random", total, rng=rng)
        scale = pop.coordinate_scale()
        n_records = (steps - burn_in) // thin
        snapshots, events, phase, max_drift = [], 0, 0, 0.0
        next_audit = dynamics.AUDIT_INTERVAL

        def audit():
            pop.check_invariants()
            return max(max_drift, abs(pop.conserved_value() - pop.conserved_total) / scale)

        while events < steps or len(snapshots) < n_records:
            targets = [next_audit, steps]
            if len(snapshots) < n_records:
                targets.append(burn_in + (len(snapshots) + 1) * thin)
            done, phase = advance(pop, rng, min(targets) - events, phase)
            events += done
            while len(snapshots) < n_records and burn_in + (len(snapshots) + 1) * thin <= events:
                snapshots.append(recorded_coordinates(pop))
            if events >= next_audit:
                max_drift = audit()
                next_audit += dynamics.AUDIT_INTERVAL
        max_drift = audit()
        assert csv_steps(samples) == window_steps(spec.n_agents, steps, burn_in, thin)
        assert list(samples.coords) == list(snapshots[0])
        for name, records in samples.coords.items():
            assert records.tobytes() == np.stack([snap[name] for snap in snapshots]).tobytes()
        meta = samples.meta
        assert (meta.events_run, meta.rejected_events, meta.max_drift) == (events, pop.rejected_events, max_drift)

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

    def test_credit_market_accounting(self):
        spec = ModelSpec.credit_market(100, 100_000.0)
        pop = init_population(spec, "equal", 500.0, seed=12)
        net = pop.net.copy()
        rng = np.random.default_rng(12)
        events, _ = advance(pop, rng, 1_000_000)
        assert events >= 1_000_000
        pop.check_invariants()
        assets, liabilities, cash = ledger(pop)
        assert math.fsum(cash) == pytest.approx(100_000.0, rel=1e-12)
        assert math.fsum(assets) - math.fsum(liabilities) == pytest.approx(0.0, abs=1e-9)
        assert np.array_equal(pop.net, net)
        drift = np.abs(cash + assets - liabilities - net)
        assert drift.max() <= 1e-9 * np.abs(net).max()


def window_steps(n_agents, steps, burn_in, thin) -> list[int]:
    """The record steps that ``recording_window`` fires: burn_in + k·thin, k = 1..records."""
    burn_in, thin, n_records = recording_window(n_agents, steps, burn_in, thin)
    return [burn_in + (k + 1) * thin for k in range(n_records)]


def csv_steps(samples) -> list[int]:
    """The step column of ``samples.csv``, one entry per record."""
    rows = samples.csv_bytes().split(b"\n")[1:-1]
    return [int(row.split(b",", 1)[0]) for row in rows[::sum(v.shape[1] for v in samples.coords.values())]]


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
        steps = window_steps(20, 20_000, 2_000, 1_000)
        assert samples.csv_bytes() == reference_csv(steps, samples.coords)
        assert samples.csv_bytes(3, 9) == reference_csv(steps[3:9], {k: v[3:9] for k, v in samples.coords.items()},
                                                        header=False)

    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("steps,coords", [
        pytest.param([0, 2**63 - 1], {"x": np.array([[1.5, 0.0], [-2.0, 3.25]])}, id="widest-steps"),
        pytest.param([4], {"x": np.array([[1e-5, -5e-324, 1e16, -1e300, math.nan, math.inf, -math.inf]])},
                     id="every-value-by-repr"),
        pytest.param([1, 2], {"y_0": np.arange(4.0).reshape(2, 2), "x": np.arange(10.0).reshape(2, 5) / 3,
                              "e": np.empty((2, 0))}, id="widths-5-2-0"),
        pytest.param([], {"x": np.empty((0, 3)), "y": np.empty((0, 1))}, id="no-records"),
        pytest.param(list(range(0, 400_000, 10_000)), {"x": np.random.default_rng(2).exponential(7.0, (40, 1000))},
                     id="more-than-one-block"),
    ])
    def test_cases_equal_the_repr_writer(self, steps, coords, header):
        assert samples_csv(steps, coords, header) == reference_csv(steps, coords, header)

    def test_rows_stay_inside_their_capacity_and_literals(self):
        expected = reference_csv([5, 2**63 - 1], {"x": np.array([[0.5, 1e-5], [2.0, 3.0]])}, header=False)
        literals = b"0.5,0.00001,2.0,3.0"  # orjson's text; the 1e-05 comes from alt
        used, out = csv_rows(len(expected), literals)
        assert used == len(expected) and out.tobytes() == expected + GUARD
        # One byte short, a literal short, a literal over:
        for capacity, stream in [(len(expected) - 1, literals), (len(expected) + 40, literals[:-4]),
                                 (len(expected) + 40, literals + b",4.0")]:
            used, out = csv_rows(capacity, stream)
            assert used == -1 and out[capacity:].tobytes() == GUARD

    @pytest.mark.parametrize("spec,total", [
        pytest.param(ModelSpec.cash_only(50, 1.0), 100.0, id="one-coordinate"),
        pytest.param(ModelSpec.multi_asset(10, 3), 60.0, id="multi_asset"),
    ])
    def test_chunks_written_one_at_a_time_are_the_whole_file(self, spec, total, monkeypatch):
        samples = run_chain(spec, "equal", total, 20_000, 2_000, 500, seed=4)
        monkeypatch.setattr(dynamics, "STREAM_BLOCK", 200)
        chunks = [bytes(chunk) for chunk in samples.csv_chunks()]  # each copied before the next is taken
        assert len(chunks) > 2 and b"".join(chunks) == samples.csv_bytes()

    def test_a_later_block_that_needs_more_room_grows_the_buffer(self, monkeypatch):
        # Each record's literals are longer than the last one's, and its step no shorter, so each
        # block needs more room. The steps are the window's 9, 10 and 11.
        values = np.array([[1.0] * 3, [0.12345678901234566] * 3, [-1.2345678901234567e-300] * 3])
        samples = SampleSet({"x": values}, ChainMeta(8, 1, 11, 0, 0.0))
        monkeypatch.setattr(dynamics, "STREAM_BLOCK", 3)  # one record per block
        chunks = [bytes(chunk) for chunk in samples.csv_chunks()]
        assert len(chunks[0]) < len(chunks[1]) < len(chunks[2])
        steps = window_steps(3, 11, 8, 1)
        assert steps == [9, 10, 11]
        assert b"".join(chunks) == samples.csv_bytes() == reference_csv(steps, {"x": values})

    def test_the_first_block_peaks_no_higher_than_the_later_ones(self):
        # 40 records of 1000 values, five blocks, whose steps all have six digits: only the
        # first block grows the buffer, and growing it makes no temporary of the growth.
        values = np.random.default_rng(3).exponential(10.0, (40, 1000))
        samples = SampleSet({"x": values}, ChainMeta(99_000, 1000, 139_000, 0, 0.0))
        assert csv_steps(samples) == window_steps(1000, 139_000, 99_000, 1000)
        samples.csv_bytes(0, 1)  # orjson and the compiled library load untraced
        peaks = []
        tracemalloc.start()
        try:
            for _ in samples.csv_chunks():
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        assert len(peaks) == 5 and peaks[0] <= max(peaks[1:])

    def test_a_kept_chunk_raises_instead_of_reading_the_next_block(self, monkeypatch):
        samples = run_chain(ModelSpec.cash_only(50, 1.0), "equal", 100.0, 20_000, 2_000, 500, seed=4)
        monkeypatch.setattr(dynamics, "STREAM_BLOCK", 200)
        with pytest.raises(TypeError, match="memoryview"):  # each chunk was released before join read it
            b"".join(samples.csv_chunks())
        chunks = samples.csv_chunks()
        held = np.frombuffer(next(chunks), np.uint8)  # a view of the rows that outlives the chunk
        with pytest.raises(BufferError):
            next(chunks)
        assert held.tobytes() == samples.csv_bytes(0, 4)  # the next block was not written over it
        assert type(samples.csv_bytes()) is bytes and type(samples.csv_bytes(3, 9)) is bytes

    def test_short_literal_stream_raises(self, monkeypatch):
        import orjson

        dumps = orjson.dumps
        monkeypatch.setattr(orjson, "dumps", lambda values, option: dumps(values[:-1], option=option))
        with pytest.raises(DynamicsError, match="literals"):
            samples_csv([3], {"x": np.array([[1.0, 2.0]])})


GUARD = b"\xa5"


def csv_rows(capacity: int, literals: bytes) -> tuple[int, np.ndarray]:
    """``moneygas_csv_rows`` of name x, 2 agents at steps 5 and 2**63 - 1, and alt 1e-05 for value 1,
    into a buffer of ``capacity`` bytes and then GUARD: its result and the buffer."""
    out = np.frombuffer(bytes(capacity) + GUARD, np.uint8).copy()
    steps, name_ends, widths = np.array([5, 2**63 - 1], np.int64), np.array([0, 1], np.intp), np.array([2], np.intp)
    alt_ends, alt_index = np.array([0, 5], np.intp), np.array([1], np.intp)
    used = dynamics._native().moneygas_csv_rows(
        out.ctypes.data, capacity, steps.ctypes.data, 2, b"x", name_ends.ctypes.data, widths.ctypes.data, 1,
        literals, len(literals), b"1e-05", alt_ends.ctypes.data, alt_index.ctypes.data, 1)
    return used, out


def pair_sweeps(n, sweeps, seed=3):
    """The pairs of each of ``sweeps`` sweeps of N agents."""
    pop = init_population(ModelSpec.cash_only(n, 1.0), "equal", float(n))
    rng = np.random.default_rng(seed)
    events, seen = [], []
    for _ in range(sweeps):
        events.append(one_sweep(pop, rng, 0))
        seen.append(last_pairs(pop))
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


COUNTS = (1, 7, 5000, 123457, 300000)
# At N = 2 and 3 every sweep is its own epoch and the reference takes ~25 µs a sweep,
# so the full counts would take ~10 s per case; these still span thousands of epochs.
SMALL_COUNTS = (1, 7, 5000)


def reference_cases():
    """(spec, policy, total, counts): every kind at N = 1000, 2 and 3, the credit
    market at V = D from "equal" and at an odd N, and restricted at N = 7."""
    cases = [(spec, "uniform-random", total, COUNTS) for spec, total in all_dynamic_specs(1000)]
    cases += [(spec, "uniform-random", total, SMALL_COUNTS)
              for n in (2, 3) for spec, total in all_dynamic_specs(n)]
    cases += [
        (ModelSpec.credit_market(1000, 5000.0), "equal", 5000.0, COUNTS),  # V = D: many cash shortfalls
        (ModelSpec.credit_market(999, 4995.0), "uniform-random", 4995.0, COUNTS),
        (ModelSpec.restricted(7, 1.5), "uniform-random", 3.5, COUNTS),
    ]
    return [pytest.param(*case, id=f"{case[0].kind.value}-{case[1]}-N{case[0].n_agents}") for case in cases]


@pytest.fixture
def fresh_loop(tmp_path, monkeypatch):
    """An empty library cache, and the loop loaded anew in this process before and after."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    dynamics._native.cache_clear()
    yield tmp_path / "cache" / "moneygas"
    dynamics._native.cache_clear()


class TestCompiledLoop:
    @pytest.mark.parametrize("spec,policy,total,counts", reference_cases())
    def test_matches_the_numpy_reference(self, spec, policy, total, counts):
        # Byte for byte: the slots, the rejections, the events and phase of every
        # call, and the stream position (the next draw) after the last one.
        runs = []
        for step in (advance, reference_advance):
            rng = np.random.default_rng(29)
            pop = init_population(spec, policy, total, rng=rng)
            phase, calls = 0, []
            for count in counts:
                events, phase = step(pop, rng, count, phase)
                calls.append((events, phase))
            runs.append((pop.cash.tobytes(), pop.rejected_events, calls, rng.random()))
        assert runs[0] == runs[1]
        if spec.kind in (ModelKind.RESTRICTED, ModelKind.CREDIT_MARKET) and spec.n_agents > 3:
            assert runs[0][1] > 0  # the bound was tested, and it rejected

    def test_second_load_runs_no_compiler(self, fresh_loop, monkeypatch):
        dynamics._load_library()
        (built,) = fresh_loop.iterdir()
        monkeypatch.setattr(dynamics, "_COMPILER", "no-such-compiler")
        library = dynamics._load_library()
        assert library.moneygas_sweeps and library.moneygas_csv_rows
        src = Path(dynamics.__file__).parent.parent
        code = ("from moneygas import dynamics; dynamics._COMPILER = 'no-such-compiler'; "
                "assert dynamics._native().moneygas_csv_rows")
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        assert list(fresh_loop.iterdir()) == [built]

    def test_edited_source_builds_a_new_file(self, fresh_loop, tmp_path, monkeypatch):
        dynamics._load_library()
        edited = tmp_path / "_native.c"
        edited.write_bytes(dynamics._SOURCE.read_bytes() + b"/* edited */\n")
        monkeypatch.setattr(dynamics, "_SOURCE", edited)
        library = dynamics._load_library()
        assert library.moneygas_sweeps and library.moneygas_csv_rows
        assert len(list(fresh_loop.glob("*.so"))) == 2
        assert len(list(fresh_loop.iterdir())) == 2  # no partial file left behind

    def test_unwritable_cache_builds_in_a_private_directory(self, fresh_loop, tmp_path, monkeypatch):
        # A file where the cache directory should be: no one, root included, can create it.
        (tmp_path / "cache").write_text("")
        private = tmp_path / "tmp"
        private.mkdir()
        monkeypatch.setattr(dynamics.tempfile, "tempdir", str(private))
        pop = init_population(ModelSpec.cash_only(10, 1.0), "equal", 10.0)
        assert advance(pop, np.random.default_rng(1), 50) == (50, 10)
        assert list(private.iterdir()) == []  # the private build is gone once loaded

    def test_missing_compiler_exits_2_with_one_line(self, fresh_loop, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(dynamics, "_COMPILER", "no-such-compiler")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "task": "simulate", "seed": 1, "model": {"kind": "cash_only", "n_agents": 10, "volume_y": 1.0},
            "run": {"policy": "equal", "total": 10.0, "steps": 2000, "burn_in": 100, "thin": 100}}))
        assert main(["simulate", "-c", str(config), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("build error: ") and err.count("\n") == 1 and "no-such-compiler" in err

"""Exact reference checks for the slot kernel, whose fixed-total law is a uniform simplex.

For cash_only, overdraft, multi_account, combined and multi_asset the
stationary law of the chain is uniform on the simplex of K nonnegative
shifted slots with total S. That law is drawn exactly as S·E/ΣE with E iid
standard exponential (Devroye, Non-Uniform Random Variate Generation, 1986,
ch. XI), and each slot then has the finite-K marginal
P(slot <= x) = 1 - (1 - x/S)^(K-1). A short chain is compared with exact
draws by a two-sample KS test, which checks a kernel in well under a second
instead of criterion 1's 100 replicas per row.

restricted's law is that simplex restricted to account slots z <= d. Its
exact reference is rejection: simplex draws whose N account slots all lie
at or below d, kept whole. At N = 6 and T = 1 about 12 % are kept. The
same reference checks restricted's exact ``"uniform-random"`` start.

credit_market from ``"equal"`` stays on the fibre where every agent's net
position is M_i = V/N (V the monetary base), so its law is uniform on
{a, l >= 0, Σa = Σl = D, a_i <= l_i + V/N}. The exact reference is again
rejection: pairs of independent D-simplex draws (a, l), kept when every
agent's cash M_i + l_i - a_i is nonnegative. At N = 6 about 16 % are kept at
V = D and 99 % at V = 4D.

The sampler lives here and not in ``dynamics``: no verb needs it.
"""

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from moneygas.dynamics import init_population, recorded_coordinates, run_chain
from moneygas.ensembles import ModelSpec, mean_money_restricted

N, D, CLASSES = 100, 2.0, 3
# multi_account: 1 to 3 accounts per agent, overdrafts 0, 1, 2 or 3 by account.
ACCOUNTS = tuple(1 + i % 3 for i in range(N))
OVERDRAFTS = tuple(tuple(float((i + a) % 4) for a in range(r)) for i, r in enumerate(ACCOUNTS))
DEPTH = sum(map(sum, OVERDRAFTS))
RECORDS, THIN = 200, 5 * N  # thin 5N: per-agent autocorrelation is far below 0.01
P_MIN = 1e-3


def exact_slots(rng: np.random.Generator, draws: int, slots: int, total: float) -> np.ndarray:
    """``draws`` exact points of the uniform simplex of ``slots`` slots summing to ``total``."""
    e = rng.standard_exponential((draws, slots))
    e *= (total / e.sum(axis=1))[:, None]
    return e


# kind: (spec, conserved total, K, S, the chain's recorded coordinates -> slot values)
CASES = {
    "cash_only": (ModelSpec.cash_only(N, 1.0), 300.0, N, 300.0, lambda c: c["x"]),
    "overdraft": (ModelSpec.overdraft_model(N, 1.0, D), 100.0, N, 100.0 + N * D, lambda c: c["z"]),
    "multi_account": (ModelSpec.multi_account(N, ACCOUNTS, OVERDRAFTS), 100.0, sum(ACCOUNTS),
                      100.0 + DEPTH, lambda c: c["z"]),
    "combined": (ModelSpec.combined(N, D), 100.0, 2 * N, 100.0 + N * D,
                 lambda c: np.concatenate([c["x"].ravel(), c["y"].ravel() + D])),
    "multi_asset": (ModelSpec.multi_asset(N, CLASSES), 300.0, N * CLASSES, 300.0,
                    lambda c: np.concatenate([c[f"y_{k}"].ravel() for k in range(CLASSES)])),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_short_chain_matches_exact_draws(kind):
    spec, total, slots, simplex_total, slot_values = CASES[kind]
    burn_in = 100 * N
    chain = run_chain(spec, "equal", total, burn_in + RECORDS * THIN, burn_in, THIN, seed=11)
    values = np.ravel(slot_values(chain.coords))
    assert values.size == RECORDS * slots
    assert values.sum() == pytest.approx(RECORDS * simplex_total, rel=1e-9)
    exact = exact_slots(np.random.default_rng(12), RECORDS, slots, simplex_total)
    assert ks_2samp(values, exact.ravel()).pvalue > P_MIN


@pytest.mark.parametrize("kind", sorted(CASES))
def test_exact_draws_follow_the_finite_k_marginal(kind):
    _, _, slots, simplex_total, _ = CASES[kind]
    exact = exact_slots(np.random.default_rng(13), RECORDS, slots, simplex_total)
    assert np.allclose(exact.sum(axis=1), simplex_total, rtol=1e-12)
    marginal = lambda x: 1.0 - (1.0 - np.clip(x, 0.0, simplex_total) / simplex_total) ** (slots - 1)
    assert kstest(exact.ravel(), marginal).pvalue > P_MIN


def restricted_rejection_draws(rng: np.random.Generator, draws: int, n: int, d: float, total: float) -> np.ndarray:
    """``draws`` exact points of restricted's capped simplex: N cash slots, then N account slots <= d."""
    kept = []
    while sum(map(len, kept)) < draws:
        slots = exact_slots(rng, 10_000, 2 * n, total + n * d)
        kept.append(slots[(slots[:, n:] <= d).all(axis=1)])
    return np.concatenate(kept)[:draws]


def test_restricted_chain_matches_rejection_draws():
    n, d = 6, 1.0
    spec = ModelSpec.restricted(n, d)
    total = mean_money_restricted(spec, 1.0)
    records, thin, burn_in = 4000, 10 * n, 100 * n
    chain = run_chain(spec, "equal", total, burn_in + records * thin, burn_in, thin, seed=11)
    assert chain.coords["y"].max() <= 0.0
    exact = restricted_rejection_draws(np.random.default_rng(12), records, n, d, total)
    assert ks_2samp(chain.coords["x"].ravel(), exact[:, :n].ravel()).pvalue > P_MIN
    assert ks_2samp(chain.coords["y"].ravel() + d, exact[:, n:].ravel()).pvalue > P_MIN


@pytest.mark.parametrize("total", [-3.0, "T = 1"])
def test_restricted_uniform_random_start_is_an_exact_draw(total):
    # "uniform-random" draws the capped simplex exactly, so independent starts
    # follow the rejection reference with no chain at all.
    n, d, draws = 6, 1.0, 4000
    spec = ModelSpec.restricted(n, d)
    total = mean_money_restricted(spec, 1.0) if total == "T = 1" else total
    rng = np.random.default_rng(11)
    starts = np.stack([init_population(spec, "uniform-random", total, rng=rng).cash for _ in range(draws)])
    exact = restricted_rejection_draws(np.random.default_rng(12), draws, n, d, total)
    assert ks_2samp(starts[:, :n].ravel(), exact[:, :n].ravel()).pvalue > P_MIN
    assert ks_2samp(starts[:, n:].ravel(), exact[:, n:].ravel()).pvalue > P_MIN


@pytest.mark.parametrize("kind", ["restricted", "combined"])
def test_equal_chain_matches_exact_starts_at_n_1000(kind):
    # At criterion-1 size an "equal" chain past its burn-in and independent exact
    # "uniform-random" starts sample one law: 400 records against 400 starts, for
    # cash and for the accounts. With these sizes a 2 % error in combined's total
    # fails at p ~ 1e-8.
    n = 1000
    if kind == "restricted":
        spec = ModelSpec.restricted(n, 1.0)
        total = mean_money_restricted(spec, 1.0)
    else:
        spec, total = ModelSpec.combined(n, D), 4.0 * n
    records, thin, burn_in = 400, 10 * n, 100 * n
    chain = run_chain(spec, "equal", total, burn_in + records * thin, burn_in, thin, seed=11)
    rng = np.random.default_rng(12)
    starts = [recorded_coordinates(init_population(spec, "uniform-random", total, rng=rng))
              for _ in range(records)]
    for name in ("x", "y"):
        exact = np.stack([start[name] for start in starts])
        assert ks_2samp(chain.coords[name].ravel(), exact.ravel()).pvalue > P_MIN, name


@pytest.mark.parametrize("ratio", [1.0, 4.0])
def test_credit_market_chain_matches_rejection_draws(ratio):
    n, credit = 6, 6.0
    base = ratio * credit
    records, thin, burn_in = 4000, 10 * n, 100 * n
    chain = run_chain(ModelSpec.credit_market(n, base), "equal", credit, burn_in + records * thin,
                      burn_in, thin, seed=11)
    rng = np.random.default_rng(12)
    kept = []
    while sum(map(len, kept)) < records:
        assets, liabilities = (exact_slots(rng, 10_000, n, credit) for _ in range(2))
        kept.append(assets[(assets <= liabilities + base / n).all(axis=1)])
    exact = np.concatenate(kept)[:records]
    assert ks_2samp(chain.coords["assets"].ravel(), exact.ravel()).pvalue > P_MIN
    if ratio == 1.0:  # the plain simplex, the law of the whole shell, is far from this fibre
        plain = exact_slots(rng, records, n, credit)
        assert ks_2samp(chain.coords["assets"].ravel(), plain.ravel()).pvalue < P_MIN

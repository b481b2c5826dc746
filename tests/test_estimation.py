import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moneygas.dynamics import STREAM_BLOCK
from moneygas.ensembles import ModelSpec
from moneygas.estimation import (
    KS_1PCT_CONSTANT,
    EstimationError,
    _sorted_quantile,
    fit_shifted_exponential,
    hill_default_k,
    hill_tail_index,
    histogram,
    ks_statistic_exponential,
)
from moneygas.transform import finite_diff_thermo_residuals


class TestShiftedExponentialFit:
    def test_small_samples(self):
        assert fit_shifted_exponential([1.0, 2.0, 3.0], 0.0).t_hat == 2.0
        assert fit_shifted_exponential([0.0, 1.0, 5.0], -1.0).t_hat == 3.0

    def test_stderr_is_scale_over_sqrt_n(self):
        fit = fit_shifted_exponential([1.0, 2.0, 3.0, 6.0], 0.0)
        assert fit.stderr == pytest.approx(fit.t_hat / 2.0)

    def test_large_seeded_draw(self):
        rng = np.random.default_rng(55)
        fit = fit_shifted_exponential(rng.exponential(5.0, 100_000), 0.0)
        assert fit.t_hat == pytest.approx(5.0, abs=3 * 5.0 / math.sqrt(100_000))

    def test_consistency_over_replicas(self):
        hits = 0
        for i in range(200):
            rng = np.random.default_rng(1234 + i)
            fit = fit_shifted_exponential(rng.exponential(3.0, 10_000), 0.0)
            hits += abs(fit.t_hat - 3.0) < 4 * fit.stderr
        assert hits >= 198  # >= 99% of replicas

    def test_errors(self):
        with pytest.raises(EstimationError):
            fit_shifted_exponential([1.0], 0.0)
        with pytest.raises(EstimationError):
            fit_shifted_exponential([2.0, 2.0, 2.0], 0.0)
        with pytest.raises(EstimationError):
            fit_shifted_exponential([0.5, 2.0], 1.0)


class TestKolmogorovSmirnov:
    def test_model_quantiles_reach_the_floor_distance(self):
        n, t = 1000, 2.0
        ranks = (np.arange(1, n + 1) - 0.5) / n
        quantiles = -t * np.log1p(-ranks)
        d, passed = ks_statistic_exponential(quantiles, 0.0, t)
        assert d <= 0.5 / n + 1e-12
        assert passed

    def test_point_mass_fails(self):
        d, passed = ks_statistic_exponential(np.full(100, 4.0), 1.0, 3.0)
        assert d == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert not passed

    def test_seeded_replicas_pass_rate(self):
        passes = 0
        for i in range(100):
            rng = np.random.default_rng(777 + i)
            _, ok = ks_statistic_exponential(np.sort(rng.exponential(5.0, 10_000)), 0.0, 5.0)
            passes += ok
        assert passes >= 98

    def test_errors(self):
        with pytest.raises(EstimationError):
            ks_statistic_exponential([], 0.0, 1.0)
        with pytest.raises(EstimationError):
            ks_statistic_exponential([1.0] * 5, 0.0, 1.0)
        with pytest.raises(EstimationError):
            ks_statistic_exponential([1.0] * 20, 0.0, 0.0)

    def test_unsorted_samples_are_rejected(self):
        data = np.sort(np.random.default_rng(4).exponential(1.0, STREAM_BLOCK + 5))
        data[[STREAM_BLOCK - 1, STREAM_BLOCK]] = data[[STREAM_BLOCK, STREAM_BLOCK - 1]]  # out of order across a block edge
        with pytest.raises(EstimationError, match="sorted"):
            ks_statistic_exponential(data, 0.0, 1.0)

    # Within one block, one full block, a block and one value, and 4, 25 and 243 blocks.
    @pytest.mark.parametrize("n", [10, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1,
                                   3 * STREAM_BLOCK + 3_392, 25 * STREAM_BLOCK, 242 * STREAM_BLOCK + 5])
    @pytest.mark.parametrize("floor", [0.0, -2.5])
    @pytest.mark.parametrize("temperature", [2.9, 3.2])  # D- sets D, then D+ does
    def test_blocked_statistic_is_bit_identical_to_the_full_expression(self, n, floor, temperature):
        data = np.sort(floor + np.random.default_rng(n).exponential(3.0, n))
        kept = data.copy()
        cdf = -np.expm1(-(data - floor) / temperature)
        ranks = np.arange(1, n + 1, dtype=float)
        expected = max(float(np.max(ranks / n - cdf)), float(np.max(cdf - (ranks - 1.0) / n)))
        d, ok = ks_statistic_exponential(data, floor, temperature)
        assert d == expected
        assert ok == (expected < KS_1PCT_CONSTANT / math.sqrt(n))
        assert data.tobytes() == kept.tobytes()  # the sorted values are read, not overwritten


def full_partition_hill(samples, k):
    """The Hill estimate through one np.partition of every value: the reference for the blocked one."""
    data = np.partition(np.asarray(samples, dtype=float).ravel(), samples.size - k - 1)
    reference, top = data[samples.size - k - 1], np.sort(data[samples.size - k:])
    return 1.0 / float(np.mean(np.log(top / reference)))


class TestHillEstimator:
    @staticmethod
    def exact_pareto(n, gamma, seed):
        rng = np.random.default_rng(seed)
        return (1.0 - rng.random(n)) ** (-1.0 / gamma)

    def test_inverse_cdf_oracle(self):
        samples = self.exact_pareto(100_000, 2.0, seed=42)
        assert hill_tail_index(samples, 1000) == pytest.approx(2.0, abs=0.1)

    def test_scale_invariance(self):
        samples = self.exact_pareto(5_000, 1.5, seed=3)
        assert hill_tail_index(10.0 * samples, 200) == hill_tail_index(samples, 200)

    def test_default_k_bias(self):
        n = 100_000
        k = hill_default_k(n)
        assert k == round(n ** (2 / 3))
        for seed in range(5):
            samples = self.exact_pareto(n, 2.0, seed=9000 + seed)
            assert hill_tail_index(samples, k) == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("which_k", ["1", "default", "beyond a block", "n - 1"])
    def test_blocked_estimate_is_bit_identical_to_the_full_partition(self, which_k):
        """The k + 1 largest kept a STREAM_BLOCK at a time give the full partition's result,
        over four blocks with ties, also when k is more than a block (as for the pareto
        pipeline's records). A k close to n keeps almost every value, and each block then
        partitions them all again, so it costs more time; no pipeline asks for that."""
        n = 3 * STREAM_BLOCK + 7
        samples = np.round(self.exact_pareto(n, 1.7, seed=11), 1)  # ties in the body and in the tail
        k = {"1": 1, "default": hill_default_k(n), "beyond a block": STREAM_BLOCK + 100, "n - 1": n - 1}[which_k]
        kept = samples.copy()
        assert hill_tail_index(samples, k) == full_partition_hill(samples, k)
        assert samples.tobytes() == kept.tobytes()

    def test_errors(self):
        with pytest.raises(EstimationError):
            hill_tail_index([1.0, 2.0, 3.0], 3)
        with pytest.raises(EstimationError):
            hill_tail_index(np.full(100, 7.0), 10)
        with pytest.raises(EstimationError):
            hill_tail_index([-1.0, 2.0, 3.0, 4.0], 3)


@st.composite
def fd_samples(draw):
    """base + step·k for integers k in 0..levels, or base plus exponential
    draws: ties when levels is small, and every value equal when it is 0.
    Distinct values at least a step apart bound the Freedman-Diaconis bin count,
    which a nonzero IQR of a few ulp would make astronomical."""
    n = draw(st.integers(1, 60) | st.integers(STREAM_BLOCK - 2, STREAM_BLOCK + 2_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.floats(-1e4, 1e4)) + 0.0  # no -0.0: a sort and a min may pick either signed zero
    if draw(st.booleans()):
        return base + rng.exponential(draw(st.floats(1e-3, 1e3)), n)
    levels = draw(st.sampled_from([0, 1, 2, 5, 100, 10**6]))
    return base + draw(st.floats(1e-3, 1e3)) * rng.integers(0, levels + 1, n)


def assert_numpy_histogram(values):
    """histogram(sorted values) gives np.histogram's FD edges and counts, and its
    quartiles are np.percentile's, all bit for bit."""
    counts, edges = np.histogram(values, np.histogram_bin_edges(values, "fd"))
    data = np.sort(values)
    h = histogram(data)
    assert h.edges.dtype == edges.dtype and h.edges.tobytes() == edges.tobytes()
    assert h.counts.dtype == counts.dtype and h.counts.tobytes() == counts.tobytes()
    assert h.densities.tobytes() == (counts / (values.size * np.diff(edges))).tobytes()
    quartiles = np.array([_sorted_quantile(data, 0.75), _sorted_quantile(data, 0.25)])
    assert quartiles.tobytes() == np.percentile(values, [75, 25]).tobytes()


class TestHistogram:
    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            histogram([])

    def test_exponential_densities_within_poisson_bands(self):
        rng = np.random.default_rng(31)
        data = np.sort(rng.exponential(1.0, 1_000_000))
        h = histogram(data)
        outside = 0
        for (left, right, _), count in zip(h.tsv_rows(), h.counts):
            expected = (math.exp(-left) - math.exp(-right)) * data.size
            if expected >= 25.0:
                outside += abs(count - expected) > 3.0 * math.sqrt(expected)
        assert outside <= 2

    def test_freedman_diaconis_covers_data(self):
        rng = np.random.default_rng(8)
        data = np.sort(rng.exponential(2.0, 10_000))
        h = histogram(data)
        assert h.edges[0] <= data.min() and h.edges[-1] >= data.max()
        assert np.sum(h.counts) == data.size

    def test_unsorted_samples_are_rejected(self):
        with pytest.raises(EstimationError, match="sorted"):
            histogram([1.0, 3.0, 2.0])

    @pytest.mark.parametrize("values", [
        [3.0],
        [-1.5, 2.25],
        [0.1] * 7,  # one bin, 0.5 either side
        [0.0] * 30 + [1.0] * 3 + [2.5],  # a zero IQR under a nonzero range: one bin
        list(np.random.default_rng(5).integers(0, 3, 999) * 0.1 - 7.0),  # ties below a negative floor
        list(np.random.default_rng(6).exponential(2.0, STREAM_BLOCK + 17) - 4.0),
    ], ids=["n1", "n2", "all_equal", "zero_iqr", "ties", "beyond_a_block"])
    def test_matches_numpy_at_the_edge_cases(self, values):
        assert_numpy_histogram(np.array(values))

    @settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True, database=None)
    @given(values=fd_samples())
    def test_matches_numpy_bit_for_bit(self, values):
        assert_numpy_histogram(values)


class TestThermoResiduals:
    def test_credit_market_point(self):
        spec = ModelSpec.credit_market(100, 1000.0)
        residuals = finite_diff_thermo_residuals(spec, 2.0)
        assert max(residuals.values()) < 1e-6

    def test_entropy_derivative_is_internally_consistent(self):
        spec = ModelSpec.cash_only(5, 2.0)
        residuals = finite_diff_thermo_residuals(spec, 1.0)
        assert residuals["dF_dT_vs_S"] < 1e-9

    def test_combined_grid(self):
        spec = ModelSpec.combined(20, 3.0)
        worst = 0.0
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            for h in (1e-5, 3e-5, 1e-4, 3e-6, 1e-6):
                worst = max(worst, max(finite_diff_thermo_residuals(spec, t, h=h).values()))
        assert worst < 1e-6

    def test_volume_identities_only_for_volume_models(self):
        with_volume = finite_diff_thermo_residuals(ModelSpec.credit_market(10, 100.0), 1.0)
        without = finite_diff_thermo_residuals(ModelSpec.multi_asset(10, 2), 1.0)
        assert "T_dS_dV_vs_P" in with_volume
        assert "T_dS_dV_vs_P" not in without

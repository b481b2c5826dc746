import math

import numpy as np
import pytest

from moneygas.ensembles import ModelSpec
from moneygas.estimation import (
    EstimationError,
    finite_diff_thermo_residuals,
    fit_shifted_exponential,
    hill_default_k,
    hill_tail_index,
    histogram,
    ks_statistic_exponential,
)


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
            _, ok = ks_statistic_exponential(rng.exponential(5.0, 10_000), 0.0, 5.0)
            passes += ok
        assert passes >= 98

    def test_errors(self):
        with pytest.raises(EstimationError):
            ks_statistic_exponential([], 0.0, 1.0)
        with pytest.raises(EstimationError):
            ks_statistic_exponential([1.0] * 5, 0.0, 1.0)
        with pytest.raises(EstimationError):
            ks_statistic_exponential([1.0] * 20, 0.0, 0.0)


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

    def test_errors(self):
        with pytest.raises(EstimationError):
            hill_tail_index([1.0, 2.0, 3.0], 3)
        with pytest.raises(EstimationError):
            hill_tail_index(np.full(100, 7.0), 10)
        with pytest.raises(EstimationError):
            hill_tail_index([-1.0, 2.0, 3.0, 4.0], 3)


class TestHistogram:
    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            histogram([])

    def test_exponential_densities_within_poisson_bands(self):
        rng = np.random.default_rng(31)
        data = rng.exponential(1.0, 1_000_000)
        h = histogram(data)
        outside = 0
        for (left, right, _), count in zip(h.tsv_rows(), h.counts):
            expected = (math.exp(-left) - math.exp(-right)) * data.size
            if expected >= 25.0:
                outside += abs(count - expected) > 3.0 * math.sqrt(expected)
        assert outside <= 2

    def test_freedman_diaconis_covers_data(self):
        rng = np.random.default_rng(8)
        data = rng.exponential(2.0, 10_000)
        h = histogram(data)
        assert h.edges[0] <= data.min() and h.edges[-1] >= data.max()
        assert np.sum(h.counts) == data.size


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

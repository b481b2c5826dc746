import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from moneygas.cli import main
from moneygas.dynamics import DynamicsError, recording_window
from moneygas.estimation import hill_tail_index
from moneygas.pareto import (
    ParetoError,
    ParetoSpec,
    pareto_direct_sample,
    pareto_entropy,
    pareto_log_partition,
    pareto_mean_logincome,
    pareto_mean_logincome_sampling,
    pareto_quantile,
    run_income_chain,
    transition_scan,
)


def log_partition_fd_entropy(spec, temperature, h=1e-6):
    """Oracle: S from lnZ via S = lnZ + T dlnZ/dT, finite differences."""
    plus = pareto_log_partition(spec, temperature * (1 + h))
    minus = pareto_log_partition(spec, temperature * (1 - h))
    value = pareto_log_partition(spec, temperature)
    return value + (plus - minus) / (2 * h)


def log_partition_fd_mean(spec, temperature, h=1e-6):
    """Oracle: Legendre mean per agent, T^2 dlnZ/dT / N."""
    plus = pareto_log_partition(spec, temperature * (1 + h))
    minus = pareto_log_partition(spec, temperature * (1 - h))
    return temperature * (plus - minus) / (2 * h) / spec.n_agents


class TestLogPartition:
    def test_reference_point_and_quadrature(self):
        # a = 2 with J = t_max and V = 1 collapses to ln t_max.
        spec = ParetoSpec(1, 2.0, 2.0, 1.0)
        value = pareto_log_partition(spec, 1.0)
        assert value == pytest.approx(math.log(2.0), rel=1e-12)
        integral = quad(lambda x: (2.0 / x) ** 2.0, 2.0, np.inf)[0]
        assert value == pytest.approx(math.log(integral), rel=1e-9)

    def test_divergence_at_t_max(self):
        spec = ParetoSpec(1, 1.0, 2.0)
        values = [pareto_log_partition(spec, t) for t in (1.9, 1.99, 1.999)]
        assert values[0] < values[1] < values[2]
        with pytest.raises(ParetoError):
            pareto_log_partition(spec, 2.0)
        with pytest.raises(ParetoError):
            pareto_log_partition(spec, -1.0)

    def test_volume_doubling_adds_n_log_two(self):
        narrow = pareto_log_partition(ParetoSpec(7, 1.0, 2.0, 1.0), 0.8)
        wide = pareto_log_partition(ParetoSpec(7, 1.0, 2.0, 2.0), 0.8)
        assert wide - narrow == pytest.approx(7 * math.log(2.0), rel=1e-12)

    def test_permutation_factor_present(self):
        single = pareto_log_partition(ParetoSpec(1, 1.0, 2.0), 1.0)
        many = pareto_log_partition(ParetoSpec(5, 1.0, 2.0), 1.0)
        assert many == pytest.approx(5 * single - gammaln(6), rel=1e-12)


class TestEntropyAndMean:
    def test_reference_entropy(self):
        assert pareto_entropy(ParetoSpec(1, 1.0, 2.0, 1.0), 1.0) == pytest.approx(2.0)

    def test_entropy_matches_log_partition_derivative(self):
        # At N = 1 the permutation factor vanishes; beyond that it only
        # shifts the from-lnZ entropy by the constant -ln N!.
        spec1 = ParetoSpec(1, 1.0, 2.0, 1.0)
        assert pareto_entropy(spec1, 1.0) == pytest.approx(
            log_partition_fd_entropy(spec1, 1.0), abs=1e-6
        )
        spec7 = ParetoSpec(7, 1.5, 3.0, 2.0)
        offset = float(gammaln(8))
        assert pareto_entropy(spec7, 1.2) == pytest.approx(
            log_partition_fd_entropy(spec7, 1.2) + offset, abs=1e-5
        )

    def test_reference_mean_logincome(self):
        assert pareto_mean_logincome(ParetoSpec(1, 2.0, 2.0), 1.0) == pytest.approx(2.0)

    def test_mean_matches_log_partition_derivative(self):
        spec = ParetoSpec(3, 1.5, 4.0, 1.0)
        assert pareto_mean_logincome(spec, 1.3) == pytest.approx(
            log_partition_fd_mean(spec, 1.3), abs=1e-6
        )

    def test_sampling_mean_against_monte_carlo(self):
        spec = ParetoSpec(1, 2.0, 2.0)
        draws = pareto_direct_sample(spec, 1.0, 100_000, seed=77)
        predicted = pareto_mean_logincome_sampling(spec, 1.0)
        assert predicted == pytest.approx(math.log(2.0) + 1.0, rel=1e-12)
        assert float(np.mean(np.log(draws))) == pytest.approx(predicted, rel=0.02)

    def test_logs_of_factors_at_extreme_scales(self):
        # J·V·T and J/t_max underflow to 0 here; the sums of their logs do not.
        spec = ParetoSpec(2, 1e-300, 3.0)
        expected = 2 * (2 * math.log(1e-300) + 1.0 - math.log(3.0))
        assert pareto_entropy(spec, 1e-300) == pytest.approx(expected, rel=1e-12)
        mean = pareto_mean_logincome(ParetoSpec(2, 1e-300, 1e300), 1.0)
        assert mean == pytest.approx(-600.0 * math.log(10.0) * 1e300, rel=1e-12)

    @pytest.mark.parametrize("pareto,temperature,scan", [
        ({"floor_j": 1e-300, "t_max": 1e300}, 1.0, None),
        ({"floor_j": 1e-300, "t_max": 3.0}, 1e-300, None),
        ({"floor_j": 1.0, "t_max": 1e-300}, 5e-301, 0.999e-300),
        ({"floor_j": 1.0, "t_max": 1e300}, 1.0, 0.999e300),
    ])
    def test_extreme_scales_exit_0(self, tmp_path, pareto, temperature, scan):
        # Each of these exited 1 with a traceback: a log of an underflowed product,
        # or the scan's response overflowing or dividing by zero.
        document = {"task": "pareto", "pareto": dict(pareto, n_agents=2), "temperature": temperature}
        if scan is not None:
            document["scan"] = {"temperatures": [scan]}
        config = tmp_path / "pareto.json"
        config.write_text(json.dumps(document))
        assert main(["pareto", "-c", str(config), "-o", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(math.isfinite(v) for v in report["analytic"].values())

    def test_high_t_max_asymptote_recovers_temperature(self):
        # T ~ Ybar/N - t_max ln(J/t_max) for T << t_max, good to ~1% here.
        spec = ParetoSpec(1, 1.0, 100.0)
        approx = pareto_mean_logincome(spec, 1.0) - 100.0 * math.log(1.0 / 100.0)
        assert approx == pytest.approx(1.0, rel=0.011)


class TestDirectSampler:
    def test_quantiles(self):
        spec = ParetoSpec(1, 1.5, 3.0)
        assert pareto_quantile(spec, 1.0, 0.75) == pytest.approx(3.0, rel=1e-12)  # 2J
        assert pareto_quantile(spec, 1.0, 0.0) == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("temperature", [1.0, 1.5, 0.7, 2.1])  # exponents -0.5, -1, -0.30, -2.33
    def test_draws_are_the_quantile_expression_of_the_uniforms(self, temperature):
        spec = ParetoSpec(1, 1.5, 3.0)
        uniforms = np.random.default_rng(13).random(10_000)
        kept = uniforms.copy()
        expected = 1.5 * (1.0 - uniforms) ** (-1.0 / (3.0 / temperature - 1.0))
        assert pareto_quantile(spec, temperature, uniforms).tobytes() == expected.tobytes()
        assert uniforms.tobytes() == kept.tobytes()  # the caller's array is read, not written
        assert pareto_direct_sample(spec, temperature, 10_000, seed=13).tobytes() == expected.tobytes()

    def test_floor_respected(self):
        draws = pareto_direct_sample(ParetoSpec(1, 2.5, 3.0), 1.0, 10_000, seed=3)
        assert draws.min() >= 2.5

    def test_hill_recovers_the_tail_index(self):
        spec = ParetoSpec(1, 1.0, 3.0)  # a = 3 at T = 1, tail index 2
        draws = pareto_direct_sample(spec, 1.0, 100_000, seed=5)
        assert hill_tail_index(draws) == pytest.approx(2.0, rel=0.05)

    def test_determinism(self):
        spec = ParetoSpec(1, 1.0, 2.0)
        assert np.array_equal(
            pareto_direct_sample(spec, 1.0, 100, seed=9),
            pareto_direct_sample(spec, 1.0, 100, seed=9),
        )

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ParetoError):
            pareto_direct_sample(ParetoSpec(1, 1.0, 2.0), 2.5, 10)


class TestIncomeDynamics:
    def test_pair_step_conserves_log_total(self):
        spec = ParetoSpec(10, 2.0, 3.0)
        chain = run_income_chain(spec, 0.7, steps=5000, burn_in=100, thin=10, seed=4)
        assert chain.coords["income"].min() >= 2.0
        expected = 10 * (math.log(2.0) + 0.7)
        for record in chain.coords["income"]:
            assert abs(math.fsum(np.log(record)) - expected) <= 1e-9 * expected

    def test_csv_values_round_trip_exactly(self):
        chain = run_income_chain(ParetoSpec(10, 2.0, 3.0), 0.7, 2000, 1000, 100, seed=6)
        header, *rows = chain.csv_bytes().decode().splitlines()
        assert header == "step,agent,coord_name,value"
        parsed = [(int(s), int(a), name, float(v)) for s, a, name, v in (r.split(",") for r in rows)]
        assert parsed == [
            (1000 + (r + 1) * 100, agent, "income", value)
            for r, row in enumerate(chain.coords["income"].tolist())
            for agent, value in enumerate(row)
        ]

    def test_csv_record_ranges_concatenate(self):
        chain = run_income_chain(ParetoSpec(10, 2.0, 3.0), 0.7, 2000, 1000, 100, seed=6)
        whole = chain.csv_bytes()
        for cut in (1, 4, chain.n_records, chain.n_records + 3):
            assert chain.csv_bytes(0, cut) + chain.csv_bytes(cut) == whole

    def test_chain_tail_matches_matched_canonical_exponent(self):
        spec = ParetoSpec(1000, 1.0, 3.0)
        theta = 0.5
        chain = run_income_chain(spec, theta, 4_000_000, 100_000, 5000, seed=9)
        assert chain.meta.max_drift <= 1e-9
        pooled = chain.pooled()
        measured_theta = float(np.mean(np.log(pooled / spec.floor_j)))
        assert measured_theta == pytest.approx(theta, rel=0.02)
        # the canonical index at the same mean log excess, t_max/T_matched - 1 = 1/theta
        canonical_index = 1.0 / measured_theta
        assert hill_tail_index(pooled) == pytest.approx(canonical_index, rel=0.05)
        assert canonical_index == pytest.approx(1.0 / theta, rel=0.03)

    def test_window_validation(self):
        # The chain's own checks: run_chain's window, its pair count and the start's sign.
        spec = ParetoSpec(10, 1.0, 2.0)
        with pytest.raises(DynamicsError, match="steps > burn_in"):
            run_income_chain(spec, 0.5, steps=100, burn_in=100, thin=10)
        with pytest.raises(DynamicsError, match="thin"):
            run_income_chain(spec, 0.5, steps=1000, burn_in=10, thin=0)
        with pytest.raises(DynamicsError, match="infeasible total"):
            run_income_chain(spec, -0.5, steps=1000, burn_in=10, thin=10)
        with pytest.raises(DynamicsError, match="at least 2 agents"):
            run_income_chain(ParetoSpec(1, 1.0, 2.0), 0.5, steps=1000, burn_in=10, thin=10)

    def test_window_defaults_are_the_chains(self):
        chain = run_income_chain(ParetoSpec(10, 1.0, 2.0), 0.5, steps=2_000, seed=1)
        window = (chain.meta.burn_in, chain.meta.thin, chain.n_records)
        assert window == recording_window(10, 2_000, None, None) == (1_000, 10, 100)


class TestTransitionScan:
    def test_reference_value(self):
        rows = transition_scan(ParetoSpec(1, 1.0, 2.0), [1.0])
        assert rows[0][2] == pytest.approx(4.0, rel=1e-12)

    def test_response_is_the_squared_ratio(self):
        # N (t_max/(t_max - T))^2, finite at scales where the expanded sum divided by zero or overflowed.
        for t_max in (1e-300, 3.0, 1e300):
            ((_, _, response),) = transition_scan(ParetoSpec(2, 1.0, t_max), [0.999 * t_max])
            assert response == pytest.approx(2e6, rel=1e-9)

    def test_low_temperature_limit(self):
        rows = transition_scan(ParetoSpec(1, 1.0, 2.0), [1e-8])
        assert rows[0][2] == pytest.approx(1.0, rel=1e-6)

    def test_strictly_increasing_and_divergent(self):
        t_max = 2.0
        grid = [f * t_max for f in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)]
        rows = transition_scan(ParetoSpec(1, 1.0, t_max), grid)
        responses = [r[2] for r in rows]
        assert all(b > a for a, b in zip(responses, responses[1:]))
        mid = responses[4]  # T = t_max / 2
        assert responses[-1] > 10.0 * mid

    def test_grid_outside_window_rejected(self):
        with pytest.raises(ParetoError):
            transition_scan(ParetoSpec(1, 1.0, 2.0), [1.0, 2.0])


class TestValidation:
    def test_spec_fields(self):
        with pytest.raises(ParetoError):
            ParetoSpec(0, 1.0, 2.0)
        with pytest.raises(ParetoError):
            ParetoSpec(1, 0.0, 2.0)
        with pytest.raises(ParetoError):
            ParetoSpec(1, 1.0, 0.0)
        with pytest.raises(ParetoError):
            ParetoSpec(1, 1.0, 2.0, 0.0)

import math

import numpy as np
import pytest
from scipy.integrate import quad

from moneygas.ensembles import (
    ModelKind,
    ModelSpec,
    ModelValidationError,
    UnsupportedModelError,
    entropy_closed_form,
    invert_temperature_restricted,
    log_factorial,
    log_partition,
    mean_money_closed_form,
    mean_money_restricted,
    pressure_closed_form,
    temperature_closed_form,
    thermo_state,
)
from moneygas.estimation import finite_diff_thermo_residuals
from moneygas.transform import gibbs_duhem_residual


# (mean_money, entropy, free_energy, pressure, volume, chemical_potential) of
# all_closed_form_specs(n) at temperature t, computed from the per-kind
# closed forms written out one kind at a time.
PINNED_STATES = {
    (7, 0.37): [
        (2.59, 7.730520107269698, -0.27029243968978905, 0.8633333333333333, 3.0, -0.038613205669969786),
        (-7.91, 4.892264350512549, -9.720137809689644, 1.295, 2.0, -1.388591115669949),
        (-8.82, 0.08046817318586363, -8.84977322407877, None, None, -1.2642533177255384),
        (-2.3228735050457443, -1.764280932830566, -1.6700895598984349, None, None, -0.2385842228426336),
        (2.59, 13.661605129980124, -2.464793898092646, 0.37, 7.0, -0.35211341401323515),
        (10.36, 0.16093634637172727, 10.30045355184246, None, None, 1.471493364548923),
    ],
    (1000, 12.5): [
        (12500.0, 4624.340932976365, -45304.261662204575, 4166.666666666667, 3.0, -45.30426166220457),
        (11000.0, 4218.875824868201, -41735.947810852515, 6250.0, 2.0, -41.73594781085251),
        (23000.0, 7051.4572886165115, -65143.216107706394, None, None, -65.1432161077064),
        (11993.334044336101, 3525.4620203010327, -32074.941209426815, None, None, -32.07494120942681),
        (12500.0, 5471.638793363569, -55895.48491704461, 1785.7142857142858, 7.0, -55.89548491704461),
        (50000.0, 14102.914577233023, -126286.43221541279, None, None, -126.28643221541279),
    ],
}


def all_closed_form_specs(n):
    return [
        ModelSpec.cash_only(n, 3.0),
        ModelSpec.overdraft_model(n, 2.0, 1.5),
        ModelSpec.combined(n, 2.0),
        ModelSpec.restricted(n, 1.0),
        ModelSpec.credit_market(n, 7.0),
        ModelSpec.multi_asset(n, 4),
    ]


class TestTemperatureClosedForm:
    def test_table_rows(self):
        assert temperature_closed_form(ModelSpec.cash_only(100, 1.0), 1000.0) == 10.0
        assert temperature_closed_form(ModelSpec.overdraft_model(50, 1.0, 2.0), 0.0) == 2.0
        assert temperature_closed_form(ModelSpec.combined(100, 10.0), 1000.0) == 10.0
        assert temperature_closed_form(ModelSpec.multi_asset(10, 4), 80.0) == 2.0

    def test_multi_account(self):
        spec = ModelSpec.multi_account(2, (1, 2), ((1.0,), (2.0, 3.0)))
        assert temperature_closed_form(spec, 3.0) == 3.0

    def test_restricted_has_no_closed_form(self):
        with pytest.raises(UnsupportedModelError):
            temperature_closed_form(ModelSpec.restricted(10, 1.0), 5.0)

    def test_non_positive_temperature_rejected(self):
        spec = ModelSpec.overdraft_model(10, 1.0, 1.0)
        with pytest.raises(ModelValidationError):
            temperature_closed_form(spec, -20.0)  # Q0/N + d = -1

    def test_combined_is_half_the_cash_only_value_plus_overdraft(self):
        for m, d, n in [(1000.0, 10.0, 100), (37.5, 4.0, 25), (8.0, 0.0, 4)]:
            combined = temperature_closed_form(ModelSpec.combined(n, d), m)
            cash = temperature_closed_form(ModelSpec.cash_only(n, 1.0), m)
            assert combined == 0.5 * (cash + d)

    def test_two_account_special_case_reproduces_combined(self):
        # r_i = 2 with per-account overdrafts (0, d): dyadic values stay exact.
        n, d, q0 = 8, 4.0, 64.0
        spec = ModelSpec.multi_account(n, (2,) * n, ((0.0, d),) * n)
        assert temperature_closed_form(spec, q0) == temperature_closed_form(
            ModelSpec.combined(n, d), q0
        )


class TestLogPartition:
    def test_unit_cash_box(self):
        assert log_partition(ModelSpec.cash_only(1, 1.0), 1.0) == 0.0

    def test_combined_without_overdraft(self):
        assert log_partition(ModelSpec.combined(1, 0.0), 2.0) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-12
        )

    def test_restricted_against_quadrature(self):
        # Independent oracle: product of the x and y one-dimensional integrals.
        value = log_partition(ModelSpec.restricted(1, 1.0), 1.0)
        assert value == pytest.approx(0.5413248546129181, rel=1e-12)
        x_part = quad(lambda x: math.exp(-x), 0, np.inf)[0]
        y_part = quad(lambda y: math.exp(-y), -1.0, 0.0)[0]
        assert value == pytest.approx(math.log(x_part * y_part), rel=1e-9)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ModelValidationError):
            log_partition(ModelSpec.cash_only(1, 1.0), 0.0)

    def test_multi_account_unsupported(self):
        spec = ModelSpec.multi_account(1, (2,), ((0.0, 1.0),))
        with pytest.raises(UnsupportedModelError):
            log_partition(spec, 1.0)


class TestThermoState:
    def test_combined_entropy(self):
        assert thermo_state(ModelSpec.combined(1, 5.0), 1.0).entropy == pytest.approx(2.0)

    def test_credit_market_unit_point(self):
        state = thermo_state(ModelSpec.credit_market(1, 1.0), 1.0)
        assert state.entropy == pytest.approx(1.0, abs=1e-12)
        assert state.free_energy == pytest.approx(0.0, abs=1e-12)
        assert state.mean_money == pytest.approx(1.0, abs=1e-12)
        assert state.chemical_potential == pytest.approx(0.0, abs=1e-12)

    def test_credit_market_against_finite_differences(self):
        spec = ModelSpec.credit_market(1, 1.0)
        t, h = 1.0, 1e-6

        def free_energy(tt, nn=1.0):
            return -tt * log_partition(spec, tt, n_agents=nn)

        s_fd = -(free_energy(t + h) - free_energy(t - h)) / (2 * h)
        mu_fd = (free_energy(t, 1.0 + h) - free_energy(t, 1.0 - h)) / (2 * h)
        state = thermo_state(spec, t)
        assert state.entropy == pytest.approx(s_fd, abs=1e-8)
        assert state.chemical_potential == pytest.approx(mu_fd, abs=1e-8)

    def test_restricted_mean_money_against_sampling(self):
        # Oracle: draws from the truncated two-variable exponential density.
        state = thermo_state(ModelSpec.restricted(1, 1.0), 1.0)
        assert state.mean_money == pytest.approx(2.0 - math.e / (math.e - 1.0), rel=1e-12)
        rng = np.random.default_rng(314159)
        t, d, n = 1.0, 1.0, 400_000
        x = rng.exponential(t, n)
        z = -t * np.log1p(-rng.random(n) * (1.0 - math.exp(-d / t)))
        sampled = float(np.mean(x + z - d))
        assert sampled == pytest.approx(state.mean_money, abs=0.01)

    def test_cash_only_pressure(self):
        spec = ModelSpec.cash_only(10, 50.0)
        t = temperature_closed_form(spec, 100.0)
        state = thermo_state(spec, t)
        assert state.pressure == pytest.approx(100.0 / 50.0)

    def test_pressure_absent_without_volume(self):
        for spec in (ModelSpec.combined(5, 1.0), ModelSpec.restricted(5, 1.0),
                     ModelSpec.multi_asset(5, 2)):
            state = thermo_state(spec, 2.0)
            assert state.pressure is None
            assert state.volume is None

    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("n,t", sorted(PINNED_STATES))
    def test_pinned_values(self, n, t, index):
        # The identity tests hold for any self-consistent ln z; these pin the table entries.
        spec = all_closed_form_specs(n)[index]
        state = thermo_state(spec, t)
        got = (state.mean_money, state.entropy, state.free_energy, state.pressure,
               state.volume, state.chemical_potential)
        for value, expected in zip(got, PINNED_STATES[n, t][index]):
            if expected is None:
                assert value is None
            else:
                assert value == pytest.approx(expected, rel=1e-12)
        assert (state.temperature, state.n_agents) == (t, n)

    @pytest.mark.parametrize("n", [1, 10, 1000])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
    def test_free_energy_identity_everywhere(self, n, t):
        for spec in all_closed_form_specs(n):
            state = thermo_state(spec, t)
            lhs = state.free_energy + t * state.entropy
            assert abs(lhs - state.mean_money) <= 1e-9 * max(abs(state.mean_money), n * t)


class TestVolumeOverride:
    def test_volume_model_takes_the_override(self):
        spec = ModelSpec.credit_market(10, 7.0)
        assert pressure_closed_form(spec, 2.0, volume=5.0) == 4.0
        assert entropy_closed_form(spec, 2.0, volume=5.0) == pytest.approx(10 * math.log(10.0) + 10)

    @pytest.mark.parametrize("index", [2, 3, 5])
    def test_volumeless_model_rejects_the_override(self, index):
        spec = all_closed_form_specs(10)[index]
        with pytest.raises(UnsupportedModelError):
            pressure_closed_form(spec, 2.0, volume=5.0)
        with pytest.raises(UnsupportedModelError):
            log_partition(spec, 2.0, volume=5.0)
        with pytest.raises(UnsupportedModelError):
            gibbs_duhem_residual(spec, 2.0, (1e-5, 0.0, 0.0), volume=5.0)
        with pytest.raises(UnsupportedModelError):
            finite_diff_thermo_residuals(spec, 2.0, volume=5.0)


class TestLogFactorial:
    @pytest.mark.parametrize("n", [0, 1, 3, 4, 170, 1000, 1001, 10**4])
    def test_matches_exact(self, n):
        assert log_factorial(n) == pytest.approx(math.log(math.factorial(n)), rel=1e-15, abs=1e-15)

    def test_past_int64_and_past_float_range(self):
        assert log_factorial(2**100) == pytest.approx(2**100 * (100 * math.log(2) - 1), rel=1e-12)
        assert log_factorial(10**306) == math.inf


class TestRestrictedMeanMoney:
    def test_vanishing_overdraft_limit(self):
        spec = ModelSpec.restricted(100, 1e-12)
        assert mean_money_restricted(spec, 5.0) == 500.0

    def test_reference_point(self):
        value = mean_money_restricted(ModelSpec.restricted(1, 1.0), 1.0)
        assert value == pytest.approx(0.41802329313067355, rel=1e-12)

    def test_small_overdraft_asymptote(self):
        # m(T) ~ N(T - d/2) for d << T, so T ~ m/N + d/2 up to O(d^2/T).
        spec = ModelSpec.restricted(1, 0.1)
        t = 10.05
        m = mean_money_restricted(spec, t)
        assert t == pytest.approx(m + 0.05, abs=2.0 * 0.1**2 / (12 * t))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ModelValidationError):
            mean_money_restricted(ModelSpec.restricted(1, 1.0), -1.0)


class TestInvertTemperatureRestricted:
    def test_reference_point(self):
        spec = ModelSpec.restricted(1, 1.0)
        assert invert_temperature_restricted(spec, 0.41802329313067355) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_vanishing_overdraft_is_exact(self):
        spec = ModelSpec.restricted(100, 1e-12)
        assert invert_temperature_restricted(spec, 500.0) == 5.0

    def test_small_overdraft_matches_asymptote(self):
        spec = ModelSpec.restricted(1, 0.01)
        t = invert_temperature_restricted(spec, 10.0)
        assert t == pytest.approx(10.005, abs=2e-5)

    @pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_roundtrip_identity(self, ratio):
        d = 2.0
        spec = ModelSpec.restricted(7, d)
        t = ratio * d
        m = mean_money_restricted(spec, t)
        assert invert_temperature_restricted(spec, m) == pytest.approx(t, rel=1e-8)

    def test_unattainable_total_rejected(self):
        spec = ModelSpec.restricted(3, 1.0)
        with pytest.raises(ModelValidationError):
            invert_temperature_restricted(spec, -3.0)


class TestDerivativeIdentities:
    @pytest.mark.parametrize("n", [1, 10, 1000])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
    def test_numeric_derivatives_match_closed_forms(self, n, t):
        for spec in all_closed_form_specs(n):
            residuals = finite_diff_thermo_residuals(spec, t)
            worst = max(residuals.values())
            assert worst < 1e-6, f"{spec.kind.value} at T={t}, N={n}: {residuals}"


class TestValidation:
    def test_restricted_zero_overdraft_is_degenerate(self):
        with pytest.raises(ModelValidationError):
            ModelSpec.restricted(10, 0.0)

    def test_credit_market_requires_zero_net_position(self):
        with pytest.raises(ModelValidationError):
            ModelSpec(ModelKind.CREDIT_MARKET, 10, volume_x=5.0, q0=1.0)

    def test_overdraft_temperature_feasibility(self):
        with pytest.raises(ModelValidationError):
            ModelSpec.overdraft_model(10, 1.0, -2.0, q0=10.0)  # d < -Q0/N
        ModelSpec.overdraft_model(10, 1.0, -0.5, q0=10.0)  # d >= -Q0/N is fine

    def test_multi_account_shape_mismatch(self):
        with pytest.raises(ModelValidationError):
            ModelSpec.multi_account(2, (1, 2), ((0.0,), (1.0,)))

    def test_positive_agent_count(self):
        with pytest.raises(ModelValidationError):
            ModelSpec.cash_only(0, 1.0)

    def test_negative_overdraft_outside_overdraft_model(self):
        with pytest.raises(ModelValidationError):
            ModelSpec.combined(5, -1.0)

    def test_mean_money_matches_temperature_inverse(self):
        # temperature_closed_form and mean_money_closed_form are mutual inverses.
        for spec in all_closed_form_specs(12):
            if spec.kind is ModelKind.RESTRICTED:
                continue
            m = mean_money_closed_form(spec, 3.7)
            assert temperature_closed_form(spec, m) == pytest.approx(3.7, rel=1e-12)

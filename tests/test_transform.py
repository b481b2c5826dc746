import json
import math
import random

import mpmath
import pytest
from scipy.integrate import quad

from moneygas.cli import main
from moneygas.ensembles import ModelSpec, pressure_closed_form
from moneygas.transform import (
    PATH_POINTS,
    TransformError,
    _legs,
    balance_residuals,
    carnot_cycle,
    fractional_reserve,
    isothermal_base,
    path_table,
    policy_bound_check,
)

CREDIT = ModelSpec.credit_market(1, 1.0)


class TestPaths:
    def test_volumeless_model_rejected(self):
        with pytest.raises(TransformError, match="volume"):
            carnot_cycle(ModelSpec.combined(3, 1.0), 4.0, 2.0, 1.0, 2.0)
        with pytest.raises(TransformError, match="volume"):
            path_table(ModelSpec.combined(3, 1.0), 4.0, 2.0, 1.0, 2.0)

    def test_path_table_shape(self):
        rows = path_table(CREDIT, 4.0, 2.0, 1.0, 2.0)
        assert len(rows) == 4 * PATH_POINTS
        v, t, p, s = rows[0]
        assert (v, t) == (1.0, 4.0)
        assert p == pytest.approx(4.0)
        # Each leg starts where the last one ended, and the cycle closes.
        ends = [row[:2] for row in rows[PATH_POINTS - 1::PATH_POINTS]]
        assert ends == [(2.0, 4.0), (4.0, 2.0), (2.0, 2.0), (1.0, 4.0)]

    @pytest.mark.parametrize("cycle", [(4.0, 2.0, 1.0, math.e), (2.5, 0.1, 1.5, 40.0), (10.0, 9.0, 0.25, 0.9)])
    def test_entropy_and_tv_constant_along_the_adiabats(self, cycle):
        spec = ModelSpec.credit_market(7, 1.0)
        rows = path_table(spec, *cycle)
        for leg in (1, 3):
            adiabat = rows[leg * PATH_POINTS:(leg + 1) * PATH_POINTS]
            v0, t0, _, s0 = adiabat[0]
            for v, t, _, s in adiabat:
                assert abs(s - s0) <= 1e-10 * abs(s0)
                assert t * v == pytest.approx(t0 * v0, rel=1e-12)

    def test_a_leg_spanning_hundreds_of_decades_ends_at_its_end_volume(self):
        # The spaced formula's last point, 5e299 + 1.0·(0.5 - 5e299), cancels to 0 on the last adiabat.
        legs = _legs(CREDIT, 1.0, 1e-300, 0.5, 1e8)
        rows = path_table(CREDIT, 1.0, 1e-300, 0.5, 1e8)
        assert [row[0] for row in rows[PATH_POINTS - 1::PATH_POINTS]] == [leg[1] for leg in legs]
        assert all(math.isfinite(value) for row in rows for value in row)

    def test_a_pressure_past_the_float_range_rejected(self):
        # The cycle starts, and its last adiabat ends, at V = 1e-300, T = 1e300, where P = N·T/V = 2e600.
        spec = ModelSpec.overdraft_model(2, 1e-300, 1e-300)
        with pytest.raises(TransformError, match="pressure or entropy is out of floating-point range"):
            path_table(spec, 1e300, 3.0, 1e-300, 1e-8)

    @pytest.mark.parametrize("cycle", [(4.0, 2.0, 1e-300, 1e300), (1e300, 1e-300, 1.0, 2.0),
                                       (1e200, 1e199, 1.0, 1e200), (1e-200, 5e-201, 1e-200, 2e-200)],
                             ids=["volume_ratio", "temperature_ratio", "adiabat_overflow", "adiabat_underflow"])
    def test_states_past_the_float_range_rejected(self, cycle):
        with pytest.raises(TransformError, match="floating-point range"):
            path_table(CREDIT, *cycle)
        with pytest.raises(TransformError, match="floating-point range"):
            carnot_cycle(CREDIT, *cycle)


class TestCredit:
    def test_closed_cycle_credit_equals_work(self):
        report = carnot_cycle(ModelSpec.credit_market(3, 1.0), 4.0, 2.0, 1.0, 2.0)
        credit = report.credit_in_hot + report.credit_out_cold
        assert credit == pytest.approx(report.work_L, rel=1e-8)


class TestAdiabat:
    def test_halving_temperature(self):
        assert _legs(CREDIT, 4.0, 2.0, 1.0, 2.0)[1] == (2.0, 4.0, 4.0, 2.0)

    def test_returns_to_the_start(self):
        assert _legs(CREDIT, 4.0, 2.0, 1.0, 2.0)[3] == (2.0, 1.0, 2.0, 4.0)

    def test_energy_audit_values(self):
        leg = _legs(CREDIT, 4.0, 2.0, 0.5, 1.0)[1]
        assert leg == (1.0, 2.0, 4.0, 2.0)
        delta_m = 5 * (leg[3] - leg[2])
        assert delta_m == pytest.approx(-10.0)


class TestQuadratureReference:
    """The closed-form work against quadrature of the model's own pressure P(T, V)."""

    @pytest.mark.parametrize("spec", [ModelSpec.cash_only(3, 1.0), ModelSpec.overdraft_model(3, 1.0, 2.0),
                                      ModelSpec.credit_market(3, 1.0)], ids=lambda spec: spec.kind.value)
    def test_cycle_work_is_the_integral_of_the_pressure(self, spec):
        legs = _legs(spec, 4.0, 2.0, 1.0, math.e)
        integrals = []
        for index, (v_start, v_end, t_start, _) in enumerate(legs):
            def temperature(v):
                return t_start if index % 2 == 0 else t_start * v_start / v

            integral = quad(lambda v: pressure_closed_form(spec, temperature(v), volume=v),
                            v_start, v_end, epsrel=1e-12)[0]
            integrals.append(integral)
        assert math.fsum(integrals) == pytest.approx(carnot_cycle(spec, 4.0, 2.0, 1.0, math.e).work_L, rel=1e-8)


class TestCarnot:
    def test_reference_cycle(self):
        report = carnot_cycle(CREDIT, 4.0, 2.0, 1.0, math.e)
        assert report.delta_s_hot == pytest.approx(1.0, abs=1e-12)
        assert report.work_L == pytest.approx(2.0, abs=1e-9)
        assert report.credit_in_hot == pytest.approx(4.0, abs=1e-9)
        assert report.eta == pytest.approx(0.5, abs=1e-9)
        assert report.eta == pytest.approx(report.carnot_eta, abs=1e-9)
        assert report.irreversible_delta_s == 0.0

    def test_degenerate_gap_shrinks_everything(self):
        report = carnot_cycle(CREDIT, 2.0 + 1e-9, 2.0, 1.0, 2.0)
        assert report.eta == pytest.approx(0.0, abs=1e-9)
        assert report.work_L == pytest.approx(0.0, abs=1e-8)
        # The smallest gap there is: T_h one float above T_c.
        assert carnot_cycle(CREDIT, 2.0000000000000004, 2.0, 1.0, 2.0).eta == pytest.approx(0.0, abs=1e-15)

    def test_extensivity_in_agents(self):
        small = carnot_cycle(ModelSpec.credit_market(2, 1.0), 4.0, 2.0, 1.0, 3.0)
        large = carnot_cycle(ModelSpec.credit_market(4, 1.0), 4.0, 2.0, 1.0, 3.0)
        assert large.work_L == pytest.approx(2 * small.work_L, rel=1e-12)
        assert large.credit_in_hot == pytest.approx(2 * small.credit_in_hot, rel=1e-12)
        assert large.eta == pytest.approx(small.eta, rel=1e-12)

    @pytest.mark.parametrize("t_hot,t_cold", [(4.0, 2.0), (10.0, 1.0), (3.5, 3.0)])
    @pytest.mark.parametrize("v1,v2", [(1.0, 2.0), (0.5, 8.0)])
    def test_efficiency_is_carnot_on_a_grid(self, t_hot, t_cold, v1, v2):
        report = carnot_cycle(CREDIT, t_hot, t_cold, v1, v2)
        assert abs(report.eta - (1.0 - t_cold / t_hot)) <= 1e-9

    def test_parameter_validation(self):
        with pytest.raises(TransformError):
            carnot_cycle(CREDIT, 2.0, 4.0, 1.0, 2.0)
        with pytest.raises(TransformError):
            carnot_cycle(CREDIT, 4.0, 2.0, 2.0, 1.0)
        for factor in (0.5, math.nan):
            with pytest.raises(TransformError, match="expansion factor"):
                carnot_cycle(CREDIT, 4.0, 2.0, 1.0, 2.0, factor)


class TestIrreversibleCycle:
    def test_free_expansion_leg_degrades_efficiency(self):
        spoiled = carnot_cycle(CREDIT, 4.0, 2.0, 1.0, math.e, 1.5)
        assert spoiled.eta < spoiled.carnot_eta
        assert spoiled.irreversible_delta_s == pytest.approx(math.log(1.5))

    def test_policy_bound_holds_strictly(self):
        spoiled = carnot_cycle(CREDIT, 4.0, 2.0, 1.0, math.e, 2.0)
        verdict = policy_bound_check(
            spoiled.credit_out_cold, spoiled.credit_in_hot, 2.0, 4.0
        )
        assert verdict.satisfies_temperature_bound
        assert verdict.credit_ratio > verdict.temperature_ratio

    def test_unit_factor_recovers_carnot(self):
        clean = carnot_cycle(CREDIT, 4.0, 2.0, 1.0, math.e, 1.0)
        assert clean.eta == pytest.approx(clean.carnot_eta, abs=1e-12)
        assert clean == carnot_cycle(CREDIT, 4.0, 2.0, 1.0, math.e)

    def test_cycle_through_free_expansion_stays_below_carnot(self):
        for factor in (1.1, 1.5, 3.0, 1e308):
            spoiled = carnot_cycle(CREDIT, 5.0, 2.0, 1.0, 4.0, factor)
            clean = carnot_cycle(CREDIT, 5.0, 2.0, 1.0, 4.0)
            assert spoiled.eta < clean.eta
            assert spoiled.work_L < clean.work_L

    @pytest.mark.parametrize("factor", [1.1, 1.5, 3.0, 1e308])
    def test_work_is_the_net_credit(self, factor):
        spoiled = carnot_cycle(ModelSpec.credit_market(3, 1.0), 5.0, 2.0, 1.0, 4.0, factor)
        assert spoiled.work_L == pytest.approx(spoiled.credit_in_hot + spoiled.credit_out_cold, rel=1e-12)


def _log_uniform(rng: random.Random, low_exp: float, high_exp: float) -> float:
    return 10.0 ** rng.uniform(low_exp, high_exp)


class TestHighPrecisionReference:
    """The cycle and the reserve relation against mpmath at 60 digits, on the
    exact float inputs, including cycles a few ulp away from degenerate."""

    @staticmethod
    def reference_cycle(n, t_hot, t_cold, v1, v2, factor):
        """The work's two terms, dS_hot, C_h and eta, rounded to floats from 60 digits."""
        with mpmath.workdps(60):
            delta_s_hot = n * mpmath.log(mpmath.mpf(v2) / v1)
            hot = (mpmath.mpf(t_hot) - t_cold) * delta_s_hot
            irreversible = n * mpmath.mpf(t_cold) * mpmath.log(factor)
            return {"hot": float(hot), "irreversible": float(irreversible), "work": float(hot - irreversible),
                    "delta_s_hot": float(delta_s_hot), "credit_hot": float(t_hot * delta_s_hot),
                    "eta": float((hot - irreversible) / (t_hot * delta_s_hot))}

    @pytest.mark.parametrize("free_expansion", [False, True], ids=["reversible", "free_expansion"])
    def test_near_degenerate_cycles(self, free_expansion):
        rng = random.Random(2011 + free_expansion)
        for _ in range(500):
            n = round(_log_uniform(rng, 0, 10))
            t_cold, v1 = _log_uniform(rng, -3, 3), _log_uniform(rng, -3, 3)
            t_hot = t_cold * (1.0 + _log_uniform(rng, -15, 0))
            v2 = v1 * (1.0 + _log_uniform(rng, -15, 0))
            factor = 1.0 + _log_uniform(rng, -15, 0) if free_expansion else 1.0
            report = carnot_cycle(ModelSpec.credit_market(n, 1.0), t_hot, t_cold, v1, v2, factor)
            ref = self.reference_cycle(n, t_hot, t_cold, v1, v2, factor)
            # A difference of two terms: its error is relative to the terms, which
            # is the work itself on a reversible cycle.
            scale = abs(ref["hot"]) + abs(ref["irreversible"])
            assert abs(report.work_L - ref["work"]) <= 1e-14 * scale
            assert abs(report.eta - ref["eta"]) <= 1e-14 * scale / ref["credit_hot"]
            assert report.delta_s_hot == pytest.approx(ref["delta_s_hot"], rel=1e-14)
            assert report.credit_in_hot == pytest.approx(ref["credit_hot"], rel=1e-14)

    def test_nearly_degenerate_cycle_runs(self, tmp_path):
        """T_h one float above T_c at N = 1e10 is a valid cycle and exits 0."""
        document = {"task": "transform", "model": {"kind": "cash_only", "n_agents": 10**10, "volume_y": 1.0},
                    "cycle": {"t_hot": 2.0000000000000004, "t_cold": 2.0, "v1": 1.0, "v2": 2.0}}
        config = tmp_path / "cycle.json"
        config.write_text(json.dumps(document))
        assert main(["transform", "-c", str(config), "-o", str(tmp_path / "out")]) == 0
        work = json.loads((tmp_path / "out" / "report.json").read_text())["cycle"]["work_L"]
        reference = self.reference_cycle(10**10, 2.0000000000000004, 2.0, 1.0, 2.0, 1.0)
        assert work == pytest.approx(reference["work"], rel=1e-14)

    def test_deep_overdraft_cycle_runs(self, tmp_path):
        """The first adiabat reaches V 4.17e306, T 2.4e-299, where d/T overflows;
        S = N·(ln(V·T) + 1) is finite there, so the cycle exits 0."""
        document = {"task": "transform",
                    "model": {"kind": "overdraft", "n_agents": 10**15, "volume_x": 1e8, "overdraft": 1e8},
                    "cycle": {"t_hot": 1.0, "t_cold": 1e-300, "v1": 0.5, "v2": 1e8}}
        config = tmp_path / "cycle.json"
        config.write_text(json.dumps(document))
        assert main(["transform", "-c", str(config), "-o", str(tmp_path / "out")]) == 0
        rows = [line.split("\t") for line in (tmp_path / "out" / "path.tsv").read_text().splitlines()[1:]]
        for volume, temperature, _, entropy in rows:
            exact = 10**15 * (math.log(float(volume)) + math.log(float(temperature)) + 1.0)
            assert float(entropy) == pytest.approx(exact, rel=1e-12)

    def test_small_reserve_ratio_runs(self, tmp_path):
        """r = 1e-9 -> 1e-10 on V = 100: V' = 9.999999991, and the run exits 0."""
        document = {"task": "transform", "model": {"kind": "credit_market", "n_agents": 1, "volume_x": 1.0},
                    "fractional_reserve": {"reserve_ratio": 1e-9, "volume": 100.0, "n_agents": 1,
                                           "reserve_ratio_new": 1e-10}}
        config = tmp_path / "reserve.json"
        config.write_text(json.dumps(document))
        assert main(["transform", "-c", str(config), "-o", str(tmp_path / "out")]) == 0
        entry = json.loads((tmp_path / "out" / "report.json").read_text())["fractional_reserve"]
        assert entry["volume_new"] == pytest.approx(9.999999991, rel=1e-14)

    def test_isothermal_base_at_small_ratios(self):
        rng = random.Random(2011)
        for _ in range(500):
            ratio, ratio_new = _log_uniform(rng, -12, -1), _log_uniform(rng, -12, -1)
            volume = _log_uniform(rng, -3, 6)
            with mpmath.workdps(60):
                one = mpmath.mpf(1)
                expected = (one / ratio - 1) * volume / (one / ratio_new - 1)
            assert isothermal_base(ratio, volume, ratio_new) == pytest.approx(float(expected), rel=1e-14)

    @pytest.mark.parametrize("gap", [1e-6, 1e-10, 1e-13])
    def test_reserve_multiplier_near_one(self, gap):
        """1/r - 1 cancels as r -> 1; the money supply and V' keep full accuracy there."""
        ratio = 1.0 - gap
        with mpmath.workdps(60):
            multiplier = (1 - mpmath.mpf(ratio)) / ratio  # the multiplier at r' = 0.5 is 1
            money, volume_back = float(100 * multiplier), float(100 / multiplier)
        assert fractional_reserve(ratio, 100.0, 50)[0] == pytest.approx(money, rel=1e-14)
        assert isothermal_base(ratio, 100.0, 0.5) == pytest.approx(money, rel=1e-14)
        assert isothermal_base(0.5, 100.0, ratio) == pytest.approx(volume_back, rel=1e-14)


class TestPolicyBound:
    def test_satisfied(self):
        verdict = policy_bound_check(-0.6, 1.0, 0.5, 1.0)
        assert verdict.credit_ratio == 0.6
        assert verdict.satisfies_temperature_bound

    def test_violated_flags_super_carnot(self):
        verdict = policy_bound_check(-0.4, 1.0, 0.5, 1.0)
        assert not verdict.satisfies_temperature_bound

    def test_carnot_output_sits_at_equality(self):
        report = carnot_cycle(CREDIT, 4.0, 2.0, 1.0, math.e)
        verdict = policy_bound_check(
            report.credit_out_cold, report.credit_in_hot, 2.0, 4.0
        )
        assert verdict.credit_ratio == pytest.approx(verdict.temperature_ratio, abs=1e-9)
        assert verdict.satisfies_temperature_bound

    def test_zero_hot_credit_rejected(self):
        with pytest.raises(TransformError):
            policy_bound_check(1.0, 0.0, 1.0, 2.0)


class TestFractionalReserve:
    def test_reference_point(self):
        money, temperature = fractional_reserve(0.2, 100.0, 50)
        assert money == 400.0
        assert temperature == 8.0

    def test_isothermal_base_identity(self):
        volume_new = isothermal_base(0.2, 100.0, 0.1)
        assert volume_new == pytest.approx(400.0 / 9.0, rel=1e-12)
        assert volume_new - 100.0 == pytest.approx(volume_new / 0.1 - 100.0 / 0.2, abs=1e-9)

    def test_same_ratio_is_identity(self):
        assert isothermal_base(0.3, 70.0, 0.3) == pytest.approx(70.0, rel=1e-12)

    def test_ratio_bounds(self):
        with pytest.raises(TransformError):
            fractional_reserve(0.0, 10.0, 5)
        with pytest.raises(TransformError):
            fractional_reserve(1.0, 10.0, 5)
        with pytest.raises(TransformError):
            isothermal_base(0.5, 10.0, 1.5)


class TestGibbsDuhem:
    def test_zero_increments(self):
        assert balance_residuals(ModelSpec.credit_market(100, 1000.0), 2.0, (0.0, 0.0, 0.0)) == (0.0, 0.0)

    def test_credit_market_temperature_direction(self):
        residual, _ = balance_residuals(ModelSpec.credit_market(100, 1000.0), 2.0, (1e-5, 0.0, 0.0))
        assert residual < 1e-6

    def test_first_law_consistency_on_same_grid(self):
        spec = ModelSpec.credit_market(100, 1000.0)
        for deltas in ((1e-5, 0.0, 0.0), (0.0, 1e-5, 0.0), (0.0, 0.0, 1e-5), (1e-5, 1e-5, 1e-5)):
            assert balance_residuals(spec, 2.0, deltas)[1] < 1e-6

    def test_all_closed_form_kinds(self):
        volume_specs = [
            ModelSpec.credit_market(100, 1000.0),
            ModelSpec.cash_only(10, 50.0),
            ModelSpec.overdraft_model(9, 4.0, 2.0),
        ]
        slim_specs = [ModelSpec.combined(10, 2.0), ModelSpec.restricted(5, 1.5),
                      ModelSpec.multi_asset(6, 3)]
        for spec in volume_specs:
            for deltas in ((1e-5, 0.0, 0.0), (0.0, 1e-5, 0.0), (0.0, 0.0, 1e-5), (1e-5, 1e-5, 1e-5)):
                assert balance_residuals(spec, 1.7, deltas)[0] < 1e-6
        for spec in slim_specs:
            for deltas in ((1e-5, 0.0, 0.0), (0.0, 0.0, 1e-5), (1e-5, 0.0, 1e-5)):
                assert balance_residuals(spec, 1.7, deltas)[0] < 1e-6

    def test_first_law_at_a_volume_near_the_float_limit(self, tmp_path):
        # 2·V overflows at V = 1.7e308, and inf·0 made every increment's residual NaN.
        document = {"task": "transform", "model": {"kind": "cash_only", "n_agents": 10, "volume_y": 1.0},
                    "identity_grid": {"temperatures": [1.0], "volumes": [1.7e308]}}
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(document))
        assert main(["transform", "-c", str(config), "-o", str(tmp_path / "out")]) == 0
        grid = json.loads((tmp_path / "out" / "report.json").read_text())["identity_grid"]
        assert 0.0 < grid["max_first_law"] < 1e-6

    def test_a_non_finite_residual_is_rejected(self):
        # S·2T·h overflows at N = 1e15, T = 1e300; the infinite terms used to reach fsum.
        with pytest.raises(TransformError, match="non-finite residual"):
            balance_residuals(ModelSpec.combined(10**15, 2.0), 1e300, (1e-5, 0.0, 0.0))

    def test_an_overflowing_temperature_map_names_its_residual(self, tmp_path, capsys):
        # m = N·(2T - d) overflows at N = 1e15, T = 1e300; the message used to be
        # "closed-form temperature is non-positive (nan)", naming neither check nor input.
        document = {"task": "analytic", "model": {"kind": "combined", "n_agents": 10**15, "overdraft": 2.0},
                    "temperatures": [1e300]}
        config = tmp_path / "analytic.json"
        config.write_text(json.dumps(document))
        assert main(["analytic", "-c", str(config), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: infeasible analytic: inv_dS_dm_vs_T at T=1e+300, V=None:")
        assert err.count("\n") == 1

    def test_volume_increment_needs_a_volume(self):
        from moneygas.ensembles import UnsupportedModelError

        with pytest.raises(UnsupportedModelError):
            balance_residuals(ModelSpec.combined(10, 2.0), 1.0, (0.0, 1e-5, 0.0))

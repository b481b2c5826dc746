import math

import pytest

from moneygas.ensembles import ModelSpec
from moneygas.transform import (
    CycleReport,
    ProcessPath,
    PATH_POINTS,
    TransformError,
    adiabatic,
    carnot_cycle,
    cycle_with_free_expansion,
    first_law_residual,
    fractional_reserve,
    gibbs_duhem_residual,
    isothermal,
    isothermal_base,
    path_table,
    policy_bound_check,
    work_along_path,
)

CREDIT = ModelSpec.credit_market(1, 1.0)


class TestPaths:
    def test_segment_continuity_enforced(self):
        with pytest.raises(TransformError):
            ProcessPath(CREDIT, (isothermal(4.0, 1.0, 2.0), isothermal(4.0, 3.0, 4.0)))
        with pytest.raises(TransformError):
            ProcessPath(CREDIT, (isothermal(4.0, 1.0, 2.0), isothermal(3.0, 2.0, 4.0)))

    def test_volumeless_model_rejected(self):
        with pytest.raises(TransformError):
            ProcessPath(ModelSpec.combined(3, 1.0), (isothermal(1.0, 1.0, 2.0),))

    def test_path_table_shape(self):
        path = ProcessPath(CREDIT, (isothermal(4.0, 1.0, 2.0), adiabatic(4.0, 2.0, 4.0)))
        rows = path_table(path)
        assert len(rows) == 2 * PATH_POINTS
        v, t, p, s = rows[0]
        assert (v, t) == (1.0, 4.0)
        assert p == pytest.approx(4.0)


class TestWork:
    def test_no_volume_change_no_work(self):
        assert work_along_path(ProcessPath(CREDIT, (isothermal(3.0, 2.0, 2.0),))) == 0.0

    def test_isothermal_log_ratio(self):
        spec = ModelSpec.credit_market(100, 1.0)
        path = ProcessPath(spec, (isothermal(2.0, 1.0, math.e),))
        assert work_along_path(path) == pytest.approx(200.0, rel=1e-9)

    def test_compression_is_negative(self):
        path = ProcessPath(CREDIT, (isothermal(2.0, math.e, 1.0),))
        assert work_along_path(path) == pytest.approx(-2.0, rel=1e-9)


class TestCredit:
    def test_closed_cycle_credit_equals_work(self):
        report = carnot_cycle(ModelSpec.credit_market(3, 1.0), 4.0, 2.0, 1.0, 2.0)
        credit = report.credit_in_hot + report.credit_out_cold
        assert credit == pytest.approx(report.work_L, rel=1e-8)


class TestAdiabat:
    def test_halving_temperature(self):
        assert adiabatic(4.0, 1.0, 2.0).t_end == 2.0

    def test_identity(self):
        assert adiabatic(3.0, 2.0, 2.0).t_end == 3.0

    def test_energy_audit_values(self):
        spec = ModelSpec.credit_market(5, 1.0)
        t_end = adiabatic(4.0, 1.0, 2.0).t_end
        delta_m = 5 * (t_end - 4.0)
        work = work_along_path(ProcessPath(spec, (adiabatic(4.0, 1.0, 2.0),)))
        assert delta_m == pytest.approx(-10.0)
        assert work == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("v_end", [0.25, 0.9, 1.0, 3.7, 40.0])
    def test_entropy_preserved_along_adiabat(self, v_end):
        from moneygas.ensembles import entropy_closed_form

        spec = ModelSpec.credit_market(7, 1.0)
        t_start, v_start = 2.5, 1.5
        t_end = adiabatic(t_start, v_start, v_end).t_end
        before = entropy_closed_form(spec, t_start, volume=v_start)
        after = entropy_closed_form(spec, t_end, volume=v_end)
        assert abs(after - before) <= 1e-10 * abs(before)


class TestQuadratureCrossCheck:
    @pytest.mark.parametrize("segment", [isothermal(2.0, 1.0, math.e), adiabatic(4.0, 1.0, 2.0)])
    def test_wrong_quadrature_raises(self, monkeypatch, segment):
        import scipy.integrate

        monkeypatch.setattr(scipy.integrate, "quad", lambda f, a, b, **options: (1e6, 0.0))
        with pytest.raises(TransformError, match="quadrature"):
            work_along_path(ProcessPath(CREDIT, (segment,)))
        with pytest.raises(TransformError, match="quadrature"):
            carnot_cycle(CREDIT, 4.0, 2.0, 1.0, math.e)


class TestCarnot:
    def test_reference_cycle(self):
        report = carnot_cycle(CREDIT, 4.0, 2.0, 1.0, math.e)
        assert report.delta_s_hot == pytest.approx(1.0, abs=1e-12)
        assert report.work_L == pytest.approx(2.0, abs=1e-9)
        assert report.credit_in_hot == pytest.approx(4.0, abs=1e-9)
        assert report.eta == pytest.approx(0.5, abs=1e-9)
        assert report.eta == pytest.approx(report.carnot_eta, abs=1e-9)

    def test_degenerate_gap_shrinks_everything(self):
        report = carnot_cycle(CREDIT, 2.0 + 1e-9, 2.0, 1.0, 2.0)
        assert report.eta == pytest.approx(0.0, abs=1e-9)
        assert report.work_L == pytest.approx(0.0, abs=1e-8)

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


class TestIrreversibleCycle:
    def test_free_expansion_leg_degrades_efficiency(self):
        spoiled = cycle_with_free_expansion(CREDIT, 4.0, 2.0, 1.0, math.e, 1.5)
        assert spoiled.eta < spoiled.carnot_eta
        assert spoiled.irreversible_delta_s == pytest.approx(math.log(1.5))

    def test_policy_bound_holds_strictly(self):
        spoiled = cycle_with_free_expansion(CREDIT, 4.0, 2.0, 1.0, math.e, 2.0)
        verdict = policy_bound_check(
            spoiled.credit_out_cold, spoiled.credit_in_hot, 2.0, 4.0
        )
        assert verdict.satisfies_temperature_bound
        assert verdict.credit_ratio > verdict.temperature_ratio

    def test_unit_factor_recovers_carnot(self):
        clean = cycle_with_free_expansion(CREDIT, 4.0, 2.0, 1.0, math.e, 1.0)
        assert clean.eta == pytest.approx(clean.carnot_eta, abs=1e-12)

    def test_cycle_through_free_expansion_stays_below_carnot(self):
        for factor in (1.1, 1.5, 3.0):
            spoiled = cycle_with_free_expansion(CREDIT, 5.0, 2.0, 1.0, 4.0, factor)
            clean = carnot_cycle(CREDIT, 5.0, 2.0, 1.0, 4.0)
            assert spoiled.eta < clean.eta
            assert spoiled.work_L < clean.work_L


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
        assert gibbs_duhem_residual(ModelSpec.credit_market(100, 1000.0), 2.0, (0.0, 0.0, 0.0)) == 0.0

    def test_credit_market_temperature_direction(self):
        residual = gibbs_duhem_residual(ModelSpec.credit_market(100, 1000.0), 2.0, (1e-5, 0.0, 0.0))
        assert residual < 1e-6

    def test_first_law_consistency_on_same_grid(self):
        spec = ModelSpec.credit_market(100, 1000.0)
        for deltas in ((1e-5, 0.0, 0.0), (0.0, 1e-5, 0.0), (0.0, 0.0, 1e-5), (1e-5, 1e-5, 1e-5)):
            assert first_law_residual(spec, 2.0, deltas) < 1e-6

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
                assert gibbs_duhem_residual(spec, 1.7, deltas) < 1e-6
        for spec in slim_specs:
            for deltas in ((1e-5, 0.0, 0.0), (0.0, 0.0, 1e-5), (1e-5, 0.0, 1e-5)):
                assert gibbs_duhem_residual(spec, 1.7, deltas) < 1e-6

    def test_volume_increment_needs_a_volume(self):
        from moneygas.ensembles import UnsupportedModelError

        with pytest.raises(UnsupportedModelError):
            gibbs_duhem_residual(ModelSpec.combined(10, 2.0), 1.0, (0.0, 1e-5, 0.0))

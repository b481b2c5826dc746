"""The monetary Carnot cycle and the other monetary-policy transformations.

Works on the "ideal monetary gas" models whose partition function carries
a volume factor (cash-only, overdraft, credit-market): S = N ln(VT) + N,
P = NT/V, so isotherms do NT ln(V2/V1) of work and adiabats keep T·V
fixed. Work is the central bank's monetary-base change, credit heat is
the T dS term, and the Carnot cycle bounds the policy performance factor
eta = L/|C_h| by 1 - T_c/T_h.

``carnot_cycle`` is the one cycle: two isotherms and two adiabats, and an
optional free expansion on the cold branch that pushes eta below the bound.
Its work has one closed form for every cycle, the net credit
L = (T_h - T_c)·N·ln(V2/V1) - T_c·N·ln f, since the adiabats' works
(N·(T1 - T2) each) cancel. A cycle is rejected only for invalid parameters
or for a state, work or credit outside the floating-point range.
``path_table`` tabulates the legs. The tests integrate the model's pressure
along each leg by quadrature as the reference. The module also holds the
fractional-reserve relations and the finite-difference checks of the
thermodynamic identities at the relative step ``FD_STEP``: the Gibbs-Duhem
and first-law residuals (``balance_residuals``) and the eight state
residuals (``finite_diff_thermo_residuals``).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .ensembles import (
    ModelSpec,
    ModelValidationError,
    MoneygasError,
    UnsupportedModelError,
    chemical_potential_closed_form,
    entropy_closed_form,
    invert_increasing,
    log_partition,
    mean_money_closed_form,
    model_volume,
    pressure_closed_form,
    temperature_closed_form,
)

PATH_POINTS = 25
Leg = tuple[float, float, float, float]  # (V_start, V_end, T_start, T_end)


class TransformError(MoneygasError):
    """Invalid state or parameter for a cycle or a reserve relation."""


def _legs(spec: ModelSpec, t_hot: float, t_cold: float, v1: float, v2: float) -> tuple[Leg, ...]:
    """The Carnot cycle's four legs as (V_start, V_end, T_start, T_end): the
    hot isotherm from v1 to v2, the adiabat down to t_cold, the cold isotherm
    and the adiabat back to v1. Even legs are isotherms, odd legs adiabats."""
    if model_volume(spec) is None:
        raise TransformError(f"a cycle needs a model with a volume variable, got {spec.kind.value}")
    if not (t_hot > t_cold > 0):
        raise TransformError(f"need t_hot > t_cold > 0, got {t_hot}, {t_cold}")
    if not (v2 > v1 > 0):
        raise TransformError(f"need v2 > v1 > 0, got {v1}, {v2}")
    ratio = t_hot / t_cold
    legs = (
        (v1, v2, t_hot, t_hot),
        (v2, v2 * ratio, t_hot, t_hot * v2 / (v2 * ratio)),
        (v2 * ratio, v1 * ratio, t_cold, t_cold),
        (v1 * ratio, v1, t_cold, t_cold * (v1 * ratio) / v1),
    )
    for v_start, v_end, t_start, t_end in legs:  # every volume is at least v1 > 0
        if not all(0 < x < math.inf for x in (v_start, v_end, t_start, t_end, v_end / v_start)):
            raise TransformError(f"cycle leg V {v_start} -> {v_end}, T {t_start} -> {t_end}: a state or"
                                 f" the volume ratio is out of floating-point range")
    return legs


def path_table(spec: ModelSpec, t_hot: float, t_cold: float, v1: float,
               v2: float) -> list[tuple[float, float, float, float]]:
    """(V, T, P, S) rows around the Carnot cycle, PATH_POINTS evenly spaced volumes per leg,
    the last at the leg's exact end. TransformError for a P or S outside the floating-point range."""
    rows = []
    for index, (v_start, v_end, t_start, _) in enumerate(_legs(spec, t_hot, t_cold, v1, v2)):
        steps = PATH_POINTS - 1
        for v in [v_start + i / steps * (v_end - v_start) for i in range(steps)] + [v_end]:
            t = t_start if index % 2 == 0 else t_start * v_start / v
            row = (v, t, pressure_closed_form(spec, t, volume=v), entropy_closed_form(spec, t, volume=v))
            if not all(map(math.isfinite, row[2:])):
                raise TransformError(f"cycle path at V {v}, T {t}: the pressure or entropy is out of"
                                     f" floating-point range")
            rows.append(row)
    return rows


@dataclass(frozen=True)
class CycleReport:
    """Work, credit flows, entropy change and performance of one cycle."""

    work_L: float
    credit_in_hot: float
    credit_out_cold: float
    delta_s_hot: float
    eta: float
    carnot_eta: float
    irreversible_delta_s: float


def carnot_cycle(spec: ModelSpec, t_hot: float, t_cold: float, v1: float, v2: float,
                 expansion_factor: float = 1.0) -> CycleReport:
    """The four-leg monetary Carnot cycle between credit levels t_hot > t_cold > 0.

    Isothermal expansion at T_h over the monetary base v1 < v2, adiabat down
    to T_c, isothermal compression at T_c, adiabat back to the start.
    ``expansion_factor`` f >= 1 widens the base by f after the adiabat to
    T_c, with no credit exchanged and no work done; the cold compression
    then dumps N·T_c·ln f more credit, so eta drops below 1 - T_c/T_h.
    The adiabats' works cancel, so for every f the work is the net credit

        L = (T_h - T_c)·dS_hot - T_c·dS_irrev,

    dS_hot = N·ln(v2/v1) and dS_irrev = N·ln f, each evaluated directly (the
    log ratio as log1p((v2 - v1)/v1), accurate for v2 near v1). Raises
    TransformError for invalid parameters, a state out of floating-point
    range, or a work or credit that is not finite.
    """
    _legs(spec, t_hot, t_cold, v1, v2)  # rejects invalid parameters and out-of-range states
    if not expansion_factor >= 1.0:
        raise TransformError(f"expansion factor must be >= 1, got {expansion_factor}")
    n = float(spec.n_agents)
    delta_s_irrev = n * math.log(expansion_factor)
    delta_s_hot = n * math.log1p((v2 - v1) / v1)
    credit_hot = t_hot * delta_s_hot  # > 0 unless it underflows
    credit_cold = -t_cold * (delta_s_hot + delta_s_irrev)  # returns dS_hot + dS_irrev: the cycle closes
    work = (t_hot - t_cold) * delta_s_hot - t_cold * delta_s_irrev
    report = CycleReport(work_L=work, credit_in_hot=credit_hot, credit_out_cold=credit_cold,
                         delta_s_hot=delta_s_hot, eta=work / credit_hot if credit_hot else math.nan,
                         carnot_eta=1.0 - t_cold / t_hot, irreversible_delta_s=delta_s_irrev)
    if not all(map(math.isfinite, astuple(report))):
        raise TransformError(f"the cycle's work or credit is out of floating-point range: {report}")
    return report


@dataclass(frozen=True)
class PolicyBoundVerdict:
    credit_ratio: float
    temperature_ratio: float
    satisfies_temperature_bound: bool


def policy_bound_check(
    credit_cold: float,
    credit_hot: float,
    t_cold: float,
    t_hot: float,
) -> PolicyBoundVerdict:
    """Check |C_c|/|C_h| >= T_c/T_h."""
    if credit_hot == 0:
        raise TransformError("credit_hot must be nonzero")
    if t_cold <= 0 or t_hot <= 0:
        raise TransformError("temperatures must be positive")
    credit_ratio = abs(credit_cold) / abs(credit_hot)
    temperature_ratio = t_cold / t_hot
    return PolicyBoundVerdict(
        credit_ratio=credit_ratio,
        temperature_ratio=temperature_ratio,
        satisfies_temperature_bound=credit_ratio >= temperature_ratio - 1e-12,
    )


def _multiplier(name: str, r: float) -> float:
    """The reserve multiplier 1/r - 1 for r in (0, 1), as (1 - r)/r, which does not cancel as r -> 1."""
    if not 0.0 < r < 1.0:
        raise TransformError(f"{name} must lie in (0, 1), got {r}")
    return (1.0 - r) / r


def fractional_reserve(reserve_ratio: float, volume: float, n_agents: int) -> tuple[float, float]:
    """Money supply and temperature of a fractional-reserve system.

    m = (1/r - 1) * V and T = m/N: the base V is scaled up into supply by
    the reserve multiplier.
    """
    multiplier = _multiplier("reserve ratio", reserve_ratio)
    if volume <= 0 or n_agents < 1:
        raise TransformError("need positive volume and at least one agent")
    money = multiplier * volume
    return money, money / n_agents


def isothermal_base(reserve_ratio: float, volume: float, reserve_ratio_new: float) -> float:
    """Base V' reaching the same temperature under a new reserve ratio.

    Solves (1/r - 1) V = (1/r' - 1) V', which is the bookkeeping identity
    V' - V = V'/r' - V/r: the money-supply variation equals the base
    variation scaled through the multipliers.
    """
    multiplier = _multiplier("reserve_ratio", reserve_ratio)
    multiplier_new = _multiplier("reserve_ratio_new", reserve_ratio_new)
    if volume <= 0:
        raise TransformError(f"volume must be positive, got {volume}")
    return multiplier * volume / multiplier_new


# Relative step of the finite-difference identity checks.
FD_STEP = 1e-5


def _require_finite(temperature: float, volume: float | None, *residuals: float) -> None:
    """The identity checks' one guard: TransformError when a term or residual is NaN or infinite."""
    if not all(map(math.isfinite, residuals)):
        raise TransformError(f"finite differences at T={temperature}, V={volume} give a non-finite residual")


def _balance(terms: list[float]) -> float:
    """|sum of terms| over the largest term, 0 when every term is 0."""
    scale = max(abs(term) for term in terms)
    return abs(math.fsum(terms)) / scale if scale else 0.0


def balance_residuals(
    spec: ModelSpec,
    temperature: float,
    deltas: tuple[float, float, float],
    volume: float | None = None,
) -> tuple[float, float]:
    """First-order residuals (Gibbs-Duhem, first law) along one central increment.

    ``deltas`` are relative steps in (T, V, N), applied centrally; (P, mu, m, S)
    are evaluated once at each end. Each residual is |sum of its terms| over
    the largest term, 0 for a zero increment, and vanishes to second order.

    The Gibbs-Duhem balance follows from the model's Euler combination
    E = T·S - P·V + mu·N. Partition functions with a per-agent volume
    factor have E = -N·d (zero unless an overdraft shifts the mean), so
    the balance reads dm + S dT - V dP + N dmu + d dN = 0; volumeless
    models have E identically m, recovering the textbook
    S dT + N dmu = 0. The first law is T dS - dm - P dV + mu dN = 0.
    Raises TransformError for a term that is not finite.
    """
    if not temperature > 0:
        raise ModelValidationError(f"temperature must be positive, got {temperature}")
    resolved = model_volume(spec, volume)
    rel_t, rel_v, rel_n = deltas
    if resolved is None and rel_v != 0.0:
        raise UnsupportedModelError(f"{spec.kind.value} has no volume to vary")
    if rel_t == rel_v == rel_n == 0.0:
        return 0.0, 0.0
    n = float(spec.n_agents)

    def at(sign: float) -> tuple[float, float, float, float]:
        t = temperature * (1.0 + sign * rel_t)
        v = None if resolved is None else resolved * (1.0 + sign * rel_v)
        nn = n * (1.0 + sign * rel_n)
        return (pressure_closed_form(spec, t, n_agents=nn, volume=v) or 0.0,
                chemical_potential_closed_form(spec, t, volume=v),
                mean_money_closed_form(spec, t, n_agents=nn),
                entropy_closed_form(spec, t, n_agents=nn, volume=v))

    d_p, d_mu, d_m, d_s = (plus - minus for plus, minus in zip(at(+1.0), at(-1.0)))
    entropy0 = entropy_closed_form(spec, temperature, volume=resolved)
    mu0 = chemical_potential_closed_form(spec, temperature, volume=resolved)
    gibbs_duhem = [entropy0 * (2.0 * temperature * rel_t), n * d_mu]
    first_law = [temperature * d_s, -d_m, mu0 * (2.0 * n * rel_n)]
    if resolved is not None:
        gibbs_duhem += [d_m, -resolved * d_p, spec.overdraft * 2.0 * n * rel_n]
        pressure0 = pressure_closed_form(spec, temperature, volume=resolved)
        first_law.append(-pressure0 * (resolved * (2.0 * rel_v)))  # 2·V overflows where V·(2·rel_v) does not
    _require_finite(temperature, volume, *gibbs_duhem, *first_law)
    return _balance(gibbs_duhem), _balance(first_law)


def _relative(value: float, reference: float, scale: float) -> float:
    return abs(value - reference) / max(abs(reference), scale)


def finite_diff_thermo_residuals(
    spec: ModelSpec,
    temperature: float,
    volume: float | None = None,
    h: float = FD_STEP,
) -> dict[str, float]:
    """Central-difference residuals of the thermodynamic state identities.

    Checks, each as a relative residual that should sit well below 1e-6:

    - ``inv_dS_dm_vs_T``:   (dS/dm)^-1 = T at fixed (V, N)
    - ``T_dS_dV_vs_P``:     T * dS/dV = P at fixed (m, N)      [volume models]
    - ``dF_dV_vs_P``:       -dF/dV = P at fixed (T, N)         [volume models]
    - ``dF_dT_vs_S``:       -dF/dT = S at fixed (V, N)
    - ``dF_dN_vs_mu``:      dF/dN = mu at fixed (T, V)
    - ``dm_dN_at_S_vs_mu``: (dm/dN) at fixed (S, V) = mu
    - ``first_law_T``:      T * dS/dT = dm/dT at fixed (V, N)
    - ``first_law_N``:      T * dS/dN + mu = dm/dN at fixed (T, V)

    ``volume`` overrides the model spec's volume variable; ``h`` is the relative
    step. Every model kind has a closed-form state; a multi-account model
    varies N as a count of mean agents, each with K/N accounts of depth Σd/N.
    Raises TransformError for a zero step or scale or a residual that is not finite.
    """
    try:
        residuals = _residuals(spec, temperature, model_volume(spec, volume), h)
    except ZeroDivisionError as exc:
        raise TransformError(
            f"finite differences at T={temperature}, V={volume} underflow to a zero step or scale"
        ) from exc
    _require_finite(temperature, volume, *residuals.values())
    return residuals


def _residuals(spec: ModelSpec, temperature: float, volume: float | None, h: float) -> dict[str, float]:
    n = float(spec.n_agents)
    t = temperature
    money_scale = max(abs(mean_money_closed_form(spec, t)), n * t)

    def entropy_at(tt: float, nn: float = n, vv: float | None = volume) -> float:
        return entropy_closed_form(spec, tt, n_agents=nn, volume=vv)

    def free_energy_at(tt: float, nn: float = n, vv: float | None = volume) -> float:
        return -tt * log_partition(spec, tt, n_agents=nn, volume=vv)

    def mean_money_at(tt: float, nn: float = n) -> float:
        return mean_money_closed_form(spec, tt, n_agents=nn)

    residuals: dict[str, float] = {}

    # (dS/dm)^-1 = T, differentiating S(m) through the temperature map.
    dm = h * money_scale
    m0 = mean_money_at(t)
    try:
        s_plus = entropy_at(temperature_closed_form(spec, m0 + dm))
        s_minus = entropy_at(temperature_closed_form(spec, m0 - dm))
    except ModelValidationError as exc:
        raise TransformError(f"inv_dS_dm_vs_T at T={temperature}, V={volume}: no temperature for the"
                             f" total {m0} ± {dm} ({exc})") from exc
    ds_dm = (s_plus - s_minus) / (2.0 * dm)
    residuals["inv_dS_dm_vs_T"] = _relative(1.0 / ds_dm, t, h * t)

    if volume is not None:
        dv = h * volume
        pressure = pressure_closed_form(spec, t, volume=volume)
        assert pressure is not None
        ds_dv = (entropy_at(t, vv=volume + dv) - entropy_at(t, vv=volume - dv)) / (2.0 * dv)
        residuals["T_dS_dV_vs_P"] = _relative(t * ds_dv, pressure, h * pressure)
        df_dv = (free_energy_at(t, vv=volume + dv) - free_energy_at(t, vv=volume - dv)) / (2.0 * dv)
        residuals["dF_dV_vs_P"] = _relative(-df_dv, pressure, h * pressure)

    dt = h * t
    entropy0 = entropy_at(t)
    df_dt = (free_energy_at(t + dt) - free_energy_at(t - dt)) / (2.0 * dt)
    residuals["dF_dT_vs_S"] = _relative(-df_dt, entropy0, n)

    dn = h * n
    mu = chemical_potential_closed_form(spec, t, volume=volume)
    df_dn = (free_energy_at(t, nn=n + dn) - free_energy_at(t, nn=n - dn)) / (2.0 * dn)
    residuals["dF_dN_vs_mu"] = _relative(df_dn, mu, t)

    # Maxwell relation: (dm/dN) at constant (S, V) equals mu. The entropy is
    # strictly increasing in T, so invert it at each N.
    def temperature_at_entropy(nn: float) -> float:
        return invert_increasing(lambda tt: entropy_at(tt, nn=nn), entropy0, t)

    m_plus = mean_money_at(temperature_at_entropy(n + dn), nn=n + dn)
    m_minus = mean_money_at(temperature_at_entropy(n - dn), nn=n - dn)
    residuals["dm_dN_at_S_vs_mu"] = _relative((m_plus - m_minus) / (2.0 * dn), mu, t)

    ds_dt = (entropy_at(t + dt) - entropy_at(t - dt)) / (2.0 * dt)
    dm_dt = (mean_money_at(t + dt) - mean_money_at(t - dt)) / (2.0 * dt)
    residuals["first_law_T"] = _relative(t * ds_dt, dm_dt, n)

    ds_dn = (entropy_at(t, nn=n + dn) - entropy_at(t, nn=n - dn)) / (2.0 * dn)
    dm_dn = (mean_money_at(t, nn=n + dn) - mean_money_at(t, nn=n - dn)) / (2.0 * dn)
    residuals["first_law_N"] = _relative(t * ds_dn + mu, dm_dn, t)

    return residuals

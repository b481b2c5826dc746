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
fractional-reserve relations and the Gibbs-Duhem and first-law residuals.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Callable

from .ensembles import (
    ModelSpec,
    ModelValidationError,
    MoneygasError,
    UnsupportedModelError,
    chemical_potential_closed_form,
    entropy_closed_form,
    mean_money_closed_form,
    model_volume,
    pressure_closed_form,
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
    """(V, T, P, S) rows around the Carnot cycle, PATH_POINTS evenly spaced volumes per leg."""
    rows = []
    for index, (v_start, v_end, t_start, _) in enumerate(_legs(spec, t_hot, t_cold, v1, v2)):
        for i in range(PATH_POINTS):
            v = v_start + i / (PATH_POINTS - 1) * (v_end - v_start)
            t = t_start if index % 2 == 0 else t_start * v_start / v
            rows.append((v, t, pressure_closed_form(spec, t, volume=v),
                         entropy_closed_form(spec, t, volume=v)))
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


def _balance_residual(
    spec: ModelSpec,
    temperature: float,
    deltas: tuple[float, float, float],
    volume: float | None,
    state: Callable[[float, float | None, float], tuple[float, ...]],
    terms: Callable[..., list[float]],
) -> float:
    """Relative residual of a first-order balance along a central increment.

    ``deltas`` are relative steps in (T, V, N). ``state(T, V, N)`` gives the
    quantities whose central differences enter the balance, and
    ``terms(volume, *differences)`` its terms at the resolved volume. The
    residual is |sum of terms| over the largest term, 0 for a zero increment.
    """
    if not temperature > 0:
        raise ModelValidationError(f"temperature must be positive, got {temperature}")
    volume = model_volume(spec, volume)
    rel_t, rel_v, rel_n = deltas
    if volume is None and rel_v != 0.0:
        raise UnsupportedModelError(f"{spec.kind.value} has no volume to vary")
    if rel_t == rel_v == rel_n == 0.0:
        return 0.0
    n = float(spec.n_agents)

    def at(sign: float) -> tuple[float, ...]:
        return state(
            temperature * (1.0 + sign * rel_t),
            None if volume is None else volume * (1.0 + sign * rel_v),
            n * (1.0 + sign * rel_n),
        )

    found = terms(volume, *(plus - minus for plus, minus in zip(at(+1.0), at(-1.0))))
    scale = max(abs(term) for term in found)
    if scale == 0.0:
        return 0.0
    return abs(math.fsum(found)) / scale


def gibbs_duhem_residual(
    spec: ModelSpec,
    temperature: float,
    deltas: tuple[float, float, float],
    volume: float | None = None,
) -> float:
    """First-order residual of the intensive-variable balance.

    The correct form follows from the model's Euler combination
    E = T·S - P·V + mu·N. Partition functions with a per-agent volume
    factor have E = -N·d (zero unless an overdraft shifts the mean), so
    the balance reads dm + S dT - V dP + N dmu + d dN = 0; volumeless
    models have E identically m, recovering the textbook
    S dT + N dmu = 0. Increments are ``deltas`` = relative steps in
    (T, V, N), applied centrally; the residual is normalized by the
    largest participating term and vanishes to second order.
    """
    rel_t, _, rel_n = deltas
    n = float(spec.n_agents)

    def state(t: float, v: float | None, nn: float) -> tuple[float, float, float]:
        pressure = pressure_closed_form(spec, t, n_agents=nn, volume=v)
        mu = chemical_potential_closed_form(spec, t, volume=v)
        money = mean_money_closed_form(spec, t, n_agents=nn)
        return (0.0 if pressure is None else pressure), mu, money

    def terms(volume: float | None, d_p: float, d_mu: float, d_m: float) -> list[float]:
        entropy0 = entropy_closed_form(spec, temperature, volume=volume)
        found = [entropy0 * (2.0 * temperature * rel_t), n * d_mu]
        if volume is not None:
            found += [d_m, -volume * d_p, spec.overdraft * 2.0 * n * rel_n]
        return found

    return _balance_residual(spec, temperature, deltas, volume, state, terms)


def first_law_residual(
    spec: ModelSpec,
    temperature: float,
    deltas: tuple[float, float, float],
    volume: float | None = None,
) -> float:
    """First-order residual of T dS - dm - P dV + mu dN along an increment."""
    _, rel_v, rel_n = deltas
    n = float(spec.n_agents)

    def state(t: float, v: float | None, nn: float) -> tuple[float, float]:
        entropy = entropy_closed_form(spec, t, n_agents=nn, volume=v)
        return entropy, mean_money_closed_form(spec, t, n_agents=nn)

    def terms(volume: float | None, d_s: float, d_m: float) -> list[float]:
        pressure0 = pressure_closed_form(spec, temperature, volume=volume)
        mu0 = chemical_potential_closed_form(spec, temperature, volume=volume)
        d_v = 0.0 if volume is None else 2.0 * volume * rel_v
        return [temperature * d_s, -d_m, -(pressure0 or 0.0) * d_v, mu0 * (2.0 * n * rel_n)]

    return _balance_residual(spec, temperature, deltas, volume, state, terms)

"""Thermodynamic process engine for monetary-policy transformations.

Works on the "ideal monetary gas" models whose partition function carries
a volume factor (cash-only, overdraft, credit-market): S = N ln(VT) + N,
P = NT/V, so isotherms do NT ln(V2/V1) of work and adiabats keep T·V
fixed. Work is the central bank's monetary-base change, credit heat is
the T dS term, and the Carnot-style cycle bounds the policy performance
factor eta = L/|C_h| by 1 - T_c/T_h.

Each leg's work is a closed form: N·T·ln(V2/V1) on an isotherm and
N·(T1 - T2) on an adiabat. The tests integrate the model's pressure along
the same legs by quadrature as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class TransformError(MoneygasError):
    """Invalid path, state, or parameter for a thermodynamic process."""


def _require_ideal(spec: ModelSpec) -> None:
    if model_volume(spec) is None:
        raise TransformError(
            f"process engine needs a model with a volume variable, got {spec.kind.value}"
        )


@dataclass(frozen=True)
class Segment:
    """One quasi-static leg with explicit endpoint states."""

    kind: str  # "isothermal" | "adiabatic"
    v_start: float
    v_end: float
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if self.v_start <= 0 or self.v_end <= 0 or self.t_start <= 0 or self.t_end <= 0:
            raise TransformError("segment volumes and temperatures must be positive")
        if not 0 < self.v_end / self.v_start < math.inf:
            raise TransformError("segment volume ratio is out of floating-point range")
        if self.kind == "isothermal":
            if self.t_start != self.t_end:
                raise TransformError("isothermal segment with changing temperature")
        elif self.kind == "adiabatic":
            expected = self.t_start * self.v_start / self.v_end
            if abs(self.t_end - expected) > 1e-12 * expected:
                raise TransformError(
                    f"adiabatic segment must keep T*V fixed: expected T_end {expected}"
                )
        else:
            raise TransformError(f"unknown segment kind {self.kind!r}")


def isothermal(temperature: float, v_start: float, v_end: float) -> Segment:
    return Segment("isothermal", v_start, v_end, temperature, temperature)


def adiabatic(t_start: float, v_start: float, v_end: float) -> Segment:
    return Segment("adiabatic", v_start, v_end, t_start, t_start * v_start / v_end)


@dataclass(frozen=True)
class ProcessPath:
    """Chained quasi-static segments for one model."""

    spec: ModelSpec
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        _require_ideal(self.spec)
        if not self.segments:
            raise TransformError("a path needs at least one segment")
        for previous, current in zip(self.segments, self.segments[1:]):
            if not math.isclose(previous.v_end, current.v_start, rel_tol=1e-12) or not math.isclose(
                previous.t_end, current.t_start, rel_tol=1e-12
            ):
                raise TransformError("adjacent segments must share endpoint states")


def _segment_work(n: float, segment: Segment) -> float:
    if segment.kind == "isothermal":
        return n * segment.t_start * math.log(segment.v_end / segment.v_start)
    return n * (segment.t_start - segment.t_end)  # adiabatic: T = c/V, and N·c/V² integrates to this


def work_along_path(path: ProcessPath) -> float:
    """Central-bank work L = integral of P dV along the path."""
    n = float(path.spec.n_agents)
    return math.fsum(_segment_work(n, s) for s in path.segments)


def path_table(path: ProcessPath) -> list[tuple[float, float, float, float]]:
    """(V, T, P, S) rows along the path, PATH_POINTS evenly spaced volumes per segment."""
    rows = []
    for segment in path.segments:
        for i in range(PATH_POINTS):
            frac = i / (PATH_POINTS - 1)
            v = segment.v_start + frac * (segment.v_end - segment.v_start)
            if segment.kind == "isothermal":
                t = segment.t_start
            else:
                t = segment.t_start * segment.v_start / v
            pressure = pressure_closed_form(path.spec, t, volume=v)
            entropy = entropy_closed_form(path.spec, t, volume=v)
            rows.append((v, t, pressure, entropy))
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
    irreversible_delta_s: float = 0.0


def carnot_path(spec: ModelSpec, t_hot: float, t_cold: float, v1: float, v2: float) -> ProcessPath:
    """The Carnot cycle's four legs: the hot isotherm from v1 to v2, the
    adiabat down to t_cold, the cold isotherm and the adiabat back to v1."""
    ratio = t_hot / t_cold
    return ProcessPath(
        spec,
        (
            isothermal(t_hot, v1, v2),
            adiabatic(t_hot, v2, v2 * ratio),
            isothermal(t_cold, v2 * ratio, v1 * ratio),
            adiabatic(t_cold, v1 * ratio, v1),
        ),
    )


def carnot_cycle(
    spec: ModelSpec, t_hot: float, t_cold: float, v1: float, v2: float
) -> CycleReport:
    """The four-leg monetary Carnot cycle between credit levels T_h, T_c.

    Isothermal expansion at T_h from v1 to v2, adiabat down to T_c,
    isothermal compression at T_c, adiabat back to the start. The report
    satisfies L = (T_h - T_c) * dS and eta = 1 - T_c/T_h to 1e-9; both are
    asserted before returning.

    Parameters
    ----------
    spec : model providing N and the volume interpretation.
    t_hot, t_cold : hot/cold credit temperatures, t_hot > t_cold > 0.
    v1, v2 : monetary-base volumes bounding the hot isotherm, v2 > v1.
    """
    _require_ideal(spec)
    if not (t_hot > t_cold > 0):
        raise TransformError(f"need t_hot > t_cold > 0, got {t_hot}, {t_cold}")
    if not (v2 > v1 > 0):
        raise TransformError(f"need v2 > v1 > 0, got {v1}, {v2}")
    n = float(spec.n_agents)
    work = work_along_path(carnot_path(spec, t_hot, t_cold, v1, v2))
    delta_s_hot = n * math.log(v2 / v1)
    credit_hot = t_hot * delta_s_hot
    credit_cold = t_cold * -delta_s_hot
    eta = work / abs(credit_hot)
    carnot_eta = 1.0 - t_cold / t_hot
    if abs(eta - carnot_eta) > 1e-9:
        raise TransformError(f"cycle efficiency {eta} deviates from Carnot {carnot_eta}")
    if abs(work - (t_hot - t_cold) * delta_s_hot) > 1e-9 * max(abs(work), 1.0):
        raise TransformError("cycle work deviates from (T_h - T_c) * dS")
    return CycleReport(
        work_L=work,
        credit_in_hot=credit_hot,
        credit_out_cold=credit_cold,
        delta_s_hot=delta_s_hot,
        eta=eta,
        carnot_eta=carnot_eta,
    )


def cycle_with_free_expansion(
    spec: ModelSpec,
    t_hot: float,
    t_cold: float,
    v1: float,
    v2: float,
    expansion_factor: float,
) -> CycleReport:
    """Carnot cycle spoiled by a spontaneous expansion on the cold branch.

    After the adiabat to T_c the base widens by ``expansion_factor`` with
    no credit exchanged and no work done; the longer cold compression then
    dumps extra credit, so eta drops strictly below the Carnot bound.
    """
    _require_ideal(spec)
    if expansion_factor < 1.0:
        raise TransformError(f"expansion factor must be >= 1, got {expansion_factor}")
    if not (t_hot > t_cold > 0) or not (v2 > v1 > 0):
        raise TransformError("invalid cycle temperatures or volumes")
    n = float(spec.n_agents)
    ratio = t_hot / t_cold
    delta_s_hot = n * math.log(v2 / v1)
    delta_s_irrev = n * math.log(expansion_factor)
    credit_hot = t_hot * delta_s_hot
    # Cold isotherm must return entropy dS_hot + dS_irrev for the cycle to close.
    credit_cold = -t_cold * (delta_s_hot + delta_s_irrev)
    work = credit_hot + credit_cold
    eta = work / abs(credit_hot)
    return CycleReport(
        work_L=work,
        credit_in_hot=credit_hot,
        credit_out_cold=credit_cold,
        delta_s_hot=delta_s_hot,
        eta=eta,
        carnot_eta=1.0 - t_cold / t_hot,
        irreversible_delta_s=delta_s_irrev,
    )


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


def fractional_reserve(reserve_ratio: float, volume: float, n_agents: int) -> tuple[float, float]:
    """Money supply and temperature of a fractional-reserve system.

    m = (1/r - 1) * V and T = m/N: the base V is scaled up into supply by
    the reserve multiplier.
    """
    if not 0.0 < reserve_ratio < 1.0:
        raise TransformError(f"reserve ratio must lie in (0, 1), got {reserve_ratio}")
    if volume <= 0 or n_agents < 1:
        raise TransformError("need positive volume and at least one agent")
    money = (1.0 / reserve_ratio - 1.0) * volume
    return money, money / n_agents


def isothermal_base(reserve_ratio: float, volume: float, reserve_ratio_new: float) -> float:
    """Base V' reaching the same temperature under a new reserve ratio.

    Solves (1/r - 1) V = (1/r' - 1) V' and verifies the bookkeeping
    identity V' - V = V'/r' - V/r (the money-supply variation equals the
    base variation scaled through the multipliers) to 1e-9.
    """
    for name, r in (("reserve_ratio", reserve_ratio), ("reserve_ratio_new", reserve_ratio_new)):
        if not 0.0 < r < 1.0:
            raise TransformError(f"{name} must lie in (0, 1), got {r}")
    if volume <= 0:
        raise TransformError(f"volume must be positive, got {volume}")
    volume_new = (1.0 / reserve_ratio - 1.0) * volume / (1.0 / reserve_ratio_new - 1.0)
    lhs = volume_new - volume
    rhs = volume_new / reserve_ratio_new - volume / reserve_ratio
    if abs(lhs - rhs) > 1e-9 * max(abs(volume), abs(volume_new), 1.0):
        raise TransformError(f"reserve identity violated: {lhs} != {rhs}")
    return volume_new


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

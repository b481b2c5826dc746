"""Closed-form thermodynamics of conserved-money ensembles.

A population of N agents carries monetary coordinates (cash x_i >= 0,
account balances y_i with an overdraft floor, asset holdings). Each model
conserves a total money function M, and at equilibrium the per-agent
coordinates follow an exponential law with scale T, the economic
temperature. Because every partition function here factorizes over agents,
entropy, free energy, pressure and chemical potential all have exact
closed forms; this module is the single home for them.

Conventions: temperatures and money are plain floats in the same units;
entropy is dimensionless. ``n_agents``/``volume`` keyword overrides let
sensitivity analyses treat N and V as continuous parameters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable


class ModelKind(enum.Enum):
    """Supported money-function variants."""

    CASH_ONLY = "cash_only"
    OVERDRAFT = "overdraft"
    MULTI_ACCOUNT = "multi_account"
    COMBINED = "combined"
    RESTRICTED = "restricted"
    CREDIT_MARKET = "credit_market"
    MULTI_ASSET = "multi_asset"


class MoneygasError(ValueError):
    """Base of the errors that mean an input cannot be run; the CLI exits 2 on them."""


class ModelValidationError(MoneygasError):
    """A model description violates its constraints."""


class UnsupportedModelError(MoneygasError):
    """The requested quantity has no closed form for this model kind."""


# d/T below this, the exponential floor term is replaced by its T limit;
# expm1 keeps more digits than the asserted tolerances need down to here.
_FLOOR_TERM_LIMIT = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Description of one monetary model.

    Only the fields relevant to ``kind`` are meaningful; the classmethod
    factories construct validated instances. ``volume_x`` doubles as the
    monetary base M0 for the credit-market model. ``q0`` is the conserved
    account total for the overdraft model and the (always zero) net credit
    position for the credit market.
    """

    kind: ModelKind
    n_agents: int
    overdraft: float = 0.0
    account_overdrafts: tuple[tuple[float, ...], ...] = ()
    accounts_per_agent: tuple[int, ...] = ()
    asset_classes: int = 1
    volume_y: float | None = None
    volume_x: float | None = None
    q0: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_agents, int) or self.n_agents < 1:
            raise ModelValidationError(f"n_agents must be a positive integer, got {self.n_agents}")
        for name in ("volume_y", "volume_x"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ModelValidationError(f"{name} must be positive, got {value}")
        kind = self.kind
        volume_field = PARTITION_FUNCTIONS[kind].volume_field
        if volume_field is not None and getattr(self, volume_field) is None:
            raise ModelValidationError(f"{kind.value} requires {volume_field}")
        if kind is ModelKind.OVERDRAFT:
            if self.q0 is not None and self.overdraft < -self.q0 / self.n_agents:
                raise ModelValidationError(
                    f"overdraft d={self.overdraft} with q0={self.q0} gives a negative temperature;"
                    f" need d >= {-self.q0 / self.n_agents}"
                )
        elif self.overdraft < 0:
            raise ModelValidationError(f"overdraft must be >= 0, got {self.overdraft}")
        if kind is ModelKind.RESTRICTED and self.overdraft == 0:
            raise ModelValidationError(
                "restricted model with d=0 is degenerate (no account configurations)"
            )
        if kind is ModelKind.MULTI_ACCOUNT:
            if not self.accounts_per_agent or len(self.accounts_per_agent) != self.n_agents:
                raise ModelValidationError("multi_account needs one account count per agent")
            if any(r < 1 for r in self.accounts_per_agent):
                raise ModelValidationError("account counts must be >= 1")
            if len(self.account_overdrafts) != self.n_agents or any(
                len(row) != r for row, r in zip(self.account_overdrafts, self.accounts_per_agent)
            ):
                raise ModelValidationError("account_overdrafts must match accounts_per_agent")
            if any(d < 0 for row in self.account_overdrafts for d in row):
                raise ModelValidationError("per-account overdrafts must be >= 0")
            if not self.total_overdraft < math.inf:
                raise ModelValidationError("per-account overdrafts sum past the floating-point range")
        if kind is ModelKind.MULTI_ASSET and self.asset_classes < 1:
            raise ModelValidationError("asset_classes must be >= 1")
        if kind is ModelKind.CREDIT_MARKET and self.q0 not in (None, 0, 0.0):
            raise ModelValidationError(
                "credit_market fixes q0 = 0 so credit and debt distributions coincide"
            )

    @cached_property
    def n_slots(self) -> int:
        """K, the exponential slots: one per account for multi_account, a cash and an
        account slot per agent for combined and restricted, one per asset class for
        multi_asset, else one per agent. The chain exchanges them, every record holds
        K values, and k = K/N in the partition function."""
        if self.kind is ModelKind.MULTI_ACCOUNT:
            return sum(self.accounts_per_agent)
        paired = self.kind in (ModelKind.COMBINED, ModelKind.RESTRICTED)
        return self.n_agents * (2 if paired else self.asset_classes)

    @cached_property
    def total_overdraft(self) -> float:
        """Σd, the overdrafts summed over the accounts (N·d with one account per agent)."""
        if self.kind is not ModelKind.MULTI_ACCOUNT:
            return self.n_agents * self.overdraft
        try:
            return math.fsum(d for row in self.account_overdrafts for d in row)
        except OverflowError:  # the partial sums of nonnegative overdrafts passed the float range
            return math.inf

    # -- factories ---------------------------------------------------------

    @classmethod
    def cash_only(cls, n_agents: int, volume_y: float) -> "ModelSpec":
        return cls(ModelKind.CASH_ONLY, n_agents, volume_y=volume_y)

    @classmethod
    def overdraft_model(
        cls, n_agents: int, volume_x: float, overdraft: float, q0: float | None = None
    ) -> "ModelSpec":
        return cls(ModelKind.OVERDRAFT, n_agents, overdraft=overdraft, volume_x=volume_x, q0=q0)

    @classmethod
    def multi_account(
        cls,
        n_agents: int,
        accounts_per_agent: tuple[int, ...],
        account_overdrafts: tuple[tuple[float, ...], ...],
    ) -> "ModelSpec":
        return cls(
            ModelKind.MULTI_ACCOUNT,
            n_agents,
            accounts_per_agent=tuple(accounts_per_agent),
            account_overdrafts=tuple(tuple(row) for row in account_overdrafts),
        )

    @classmethod
    def combined(cls, n_agents: int, overdraft: float) -> "ModelSpec":
        return cls(ModelKind.COMBINED, n_agents, overdraft=overdraft)

    @classmethod
    def restricted(cls, n_agents: int, overdraft: float) -> "ModelSpec":
        return cls(ModelKind.RESTRICTED, n_agents, overdraft=overdraft)

    @classmethod
    def credit_market(cls, n_agents: int, monetary_base: float) -> "ModelSpec":
        return cls(ModelKind.CREDIT_MARKET, n_agents, volume_x=monetary_base, q0=0.0)

    @classmethod
    def multi_asset(cls, n_agents: int, asset_classes: int) -> "ModelSpec":
        return cls(ModelKind.MULTI_ASSET, n_agents, asset_classes=asset_classes)


@dataclass(frozen=True)
class ThermoState:
    """Equilibrium quantities of one model at one operating point.

    ``pressure``/``volume`` are None for models whose partition function
    carries no volume factor (combined, restricted, multi-asset).
    """

    temperature: float
    mean_money: float
    entropy: float
    free_energy: float
    pressure: float | None
    volume: float | None
    n_agents: float
    chemical_potential: float


def _check_temperature(temperature: float) -> None:
    if not temperature > 0:
        raise ModelValidationError(f"temperature must be positive, got {temperature}")


def _require_kind(spec: ModelSpec, kind: ModelKind) -> None:
    if spec.kind is not kind:
        raise UnsupportedModelError(f"operation requires model kind {kind.value}, got {spec.kind.value}")


def _no_floor(temperature: float, overdraft: float) -> tuple[float, float, float]:
    return 0.0, 0.0, 0.0


def _linear_floor(temperature: float, overdraft: float) -> tuple[float, float, float]:
    """g = d/T: balances unbounded above a floor -d. Its entropy share
    g - d/T is exactly 0, however large d/T."""
    return overdraft / temperature, overdraft, 0.0


def _capped_floor(temperature: float, overdraft: float) -> tuple[float, float, float]:
    """g = ln(e^{d/T} - 1): balances confined to [-d, 0].

    All three terms are evaluated stably for u = d/T anywhere in (0, inf). The
    second, d·e^u/(e^u - 1), tends to T as u -> 0. The share g - u·e^u/(e^u - 1)
    is taken as ln(1 - e^{-u}) - u/(e^u - 1), two terms of one sign, the
    second 0 where e^u overflows.
    """
    u = overdraft / temperature
    if u > 36.0:
        g = u + math.log1p(-math.exp(-u))
    else:
        value = math.expm1(u)
        if value <= 0.0:
            raise ModelValidationError("degenerate account range: exp(d/T) - 1 underflows to zero")
        g = math.log(value)
    occupation = temperature if u < _FLOOR_TERM_LIMIT else overdraft / (-math.expm1(-u))
    tail = math.log1p(-math.exp(-u)) if u > 1.0 else math.log(-math.expm1(-u))
    return g, occupation, tail - (u / math.expm1(u) if u < 709.0 else 0.0)


@dataclass(frozen=True)
class PartitionFunction:
    """Per-agent partition function z(T) = V·T^k·e^{g(T)} of one model kind.

    ``volume_field`` names the ModelSpec field holding V (None: V = 1 and the
    model has no volume variable); k = ``ModelSpec.n_slots`` / N, the
    exponential slots per agent; ``floor`` maps (T, d) to (g, T²·(-dg/dT), s),
    where ``depth`` gives d, the overdraft per agent, and s = g - T·(-dg/dT) is
    the floor's share of the entropy per agent.
    """

    volume_field: str | None
    floor: Callable[[float, float], tuple[float, float, float]] = _no_floor
    depth: Callable[[ModelSpec], float] = lambda spec: spec.overdraft


# The multi-account model's agents differ, but its ln Z is a sum over the K
# accounts of ln T + d_a/T: N mean agents of K/N linear-floor slots and depth Σd/N.
PARTITION_FUNCTIONS: dict[ModelKind, PartitionFunction] = {
    ModelKind.CASH_ONLY: PartitionFunction("volume_y"),
    ModelKind.OVERDRAFT: PartitionFunction("volume_x", _linear_floor),
    ModelKind.MULTI_ACCOUNT: PartitionFunction(
        None, _linear_floor, lambda spec: spec.total_overdraft / spec.n_agents),
    ModelKind.COMBINED: PartitionFunction(None, _linear_floor),
    ModelKind.RESTRICTED: PartitionFunction(None, _capped_floor),
    ModelKind.CREDIT_MARKET: PartitionFunction("volume_x"),
    ModelKind.MULTI_ASSET: PartitionFunction(None),
}


def model_volume(spec: ModelSpec, volume: float | None = None) -> float | None:
    """The model's volume variable, or ``volume`` when given; None when it has none.

    Overriding the volume of a model without one raises UnsupportedModelError.
    """
    entry = PARTITION_FUNCTIONS[spec.kind]
    if entry.volume_field is None:
        if volume is not None:
            raise UnsupportedModelError(f"{spec.kind.value} has no volume variable")
        return None
    return getattr(spec, entry.volume_field) if volume is None else volume


def _terms(
    spec: ModelSpec, temperature: float, n_agents: float | None, volume: float | None
) -> tuple[float, float | None, float, float, tuple[float, float, float]]:
    """(N, V, k·ln T + ln V, k·T, the floor's (g, T²·(-g'), s)) at T, N and V
    overridable: ln z is the third plus g, the mean money per agent the fourth
    less T²·(-g')."""
    _check_temperature(temperature)
    entry = PARTITION_FUNCTIONS[spec.kind]
    v = model_volume(spec, volume)
    k = spec.n_slots / spec.n_agents
    base = k * math.log(temperature) + (0.0 if v is None else math.log(v))
    n = float(spec.n_agents if n_agents is None else n_agents)
    return n, v, base, k * temperature, entry.floor(temperature, entry.depth(spec))


def temperature_closed_form(spec: ModelSpec, conserved_total: float) -> float:
    """Temperature as a function of the conserved money-function total.

    The total is the model's mean conserved quantity: m for cash-only,
    combined, restricted, credit-market and multi-asset models, Q0 for the
    overdraft and multi-account models. Inverting m = N·(k·T - shift) gives
    T = total/(N·k) + shift/k, where shift = T²·(-g') is constant for the
    absent and linear floors. For the multi-account model, k = K/N and
    shift = Σd/N, so T = (Q0 + Σd)/K over its K accounts. The capped floor
    leaves T implicit, so m(T) = total is solved by bisection; the
    attainable totals are (-N·d, inf).
    """
    entry = PARTITION_FUNCTIONS[spec.kind]
    count, slots, d = spec.n_agents, spec.n_slots / spec.n_agents, entry.depth(spec)
    if entry.floor is _capped_floor:
        if conserved_total <= -count * d:
            raise ModelValidationError(f"total {conserved_total} is at or below the floor {-count * d}")
        if conserved_total > 0 and d < _FLOOR_TERM_LIMIT * (conserved_total / count):
            # Same regime in which the floor term collapses to T: m = N·(k-1)·T.
            return conserved_total / (count * (slots - 1))
        # m(start) exceeds the total, so only the lower end moves while bracketing.
        start = max(conserved_total / count + d, d, 1e-300)
        return invert_increasing(lambda t: mean_money_closed_form(spec, t), conserved_total, start)
    shift = entry.floor(1.0, d)[1]
    t = conserved_total / (count * slots) + shift / slots
    if not t > 0:
        raise ModelValidationError(
            f"closed-form temperature is non-positive ({t}); invalid parameter combination"
        )
    return t


def invert_increasing(f: Callable[[float], float], target: float, start: float) -> float:
    """The x > 0 with f(x) = target, for f strictly increasing on (0, inf).

    From ``start`` > 0 the upper end doubles (at most 600 times) and the lower
    end halves (at most 4000 times) until they bracket the target, checking on
    the way that f increases; then bisection runs to a width of 1e-13 of the
    upper end, past the 1e-10 that callers need, so difference quotients are
    not limited by inversion noise. Raises ModelValidationError when f fails
    to increase or no bracket is found within the caps.
    """

    def gap(x: float) -> float:
        return f(x) - target

    hi = start
    previous = gap(hi)
    for _ in range(600):
        if previous >= 0:
            break
        hi *= 2.0
        current = gap(hi)
        if not current > previous:
            raise ModelValidationError("the function failed to increase while bracketing")
        previous = current
    else:
        raise ModelValidationError(f"no sign change while bracketing above {hi}")
    lo = start
    previous = gap(lo)
    for _ in range(4000):
        if previous <= 0:
            break
        lo *= 0.5
        current = gap(lo)
        if not current < previous:
            raise ModelValidationError("the function failed to decrease while bracketing")
        previous = current
    else:
        raise ModelValidationError(f"no sign change while bracketing below {lo}")
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_partition(
    spec: ModelSpec,
    temperature: float,
    *,
    n_agents: float | None = None,
    volume: float | None = None,
) -> float:
    """ln Z = N·ln z of the factorized canonical partition function."""
    n, _, base, _, (g, _, _) = _terms(spec, temperature, n_agents, volume)
    return n * (base + g)


def entropy_closed_form(
    spec: ModelSpec,
    temperature: float,
    *,
    n_agents: float | None = None,
    volume: float | None = None,
) -> float:
    """S = ln Z + m/T, which equals -dF/dT: N·(k·ln T + ln V) + N·k + N·s.

    The floor's g and its money term cancel in s (exactly, for the linear
    floor), so S keeps its digits at any d/T.
    """
    n, _, base, kt, (_, _, share) = _terms(spec, temperature, n_agents, volume)
    return n * base + n * kt / temperature + n * share


def mean_money_closed_form(
    spec: ModelSpec,
    temperature: float,
    *,
    n_agents: float | None = None,
) -> float:
    """Mean conserved total m(T) = F + T·S = N·(k·T - T²·(-g'))."""
    n, _, _, kt, (_, occupation, _) = _terms(spec, temperature, n_agents, None)
    return n * (kt - occupation)


def pressure_closed_form(
    spec: ModelSpec,
    temperature: float,
    *,
    n_agents: float | None = None,
    volume: float | None = None,
) -> float | None:
    """P = -dF/dV = NT/V, or None for models without a volume variable."""
    n, v, *_ = _terms(spec, temperature, n_agents, volume)
    return None if v is None else n * temperature / v


def chemical_potential_closed_form(
    spec: ModelSpec,
    temperature: float,
    *,
    volume: float | None = None,
) -> float:
    """mu = dF/dN = -T·ln z with N treated as continuous; F is linear in N here."""
    _, _, base, _, (g, _, _) = _terms(spec, temperature, None, volume)
    return -temperature * (base + g)


def thermo_state(spec: ModelSpec, temperature: float) -> ThermoState:
    """Bundle (T, m, S, F, P, V, N, mu) at one operating point."""
    return ThermoState(
        temperature=temperature,
        mean_money=mean_money_closed_form(spec, temperature),
        entropy=entropy_closed_form(spec, temperature),
        free_energy=-temperature * log_partition(spec, temperature),
        pressure=pressure_closed_form(spec, temperature),
        volume=model_volume(spec),
        n_agents=spec.n_agents,
        chemical_potential=chemical_potential_closed_form(spec, temperature),
    )


def log_factorial(n: int) -> float:
    """ln n! by log-gamma, within an ulp of exact; inf past the float range (n > ~2.5e305)."""
    try:
        return math.lgamma(n + 1)
    except OverflowError:
        return math.inf


def mean_money_restricted(spec: ModelSpec, temperature: float) -> float:
    """m(T) = 2NT - N·d·e^{d/T}/(e^{d/T}-1) for the no-credit model."""
    _require_kind(spec, ModelKind.RESTRICTED)
    return mean_money_closed_form(spec, temperature)

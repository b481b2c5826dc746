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

import dataclasses
import enum
import math
from dataclasses import dataclass

from scipy.special import gammaln


class ModelKind(enum.Enum):
    """Supported money-function variants."""

    CASH_ONLY = "cash_only"
    OVERDRAFT = "overdraft"
    MULTI_ACCOUNT = "multi_account"
    COMBINED = "combined"
    RESTRICTED = "restricted"
    CREDIT_MARKET = "credit_market"
    MULTI_ASSET = "multi_asset"


class ModelValidationError(ValueError):
    """A model description violates its constraints."""


class UnsupportedModelError(ValueError):
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
        if kind is ModelKind.CASH_ONLY and self.volume_y is None:
            raise ModelValidationError("cash_only requires volume_y")
        if kind is ModelKind.OVERDRAFT:
            if self.volume_x is None:
                raise ModelValidationError("overdraft model requires volume_x")
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
        if kind is ModelKind.MULTI_ASSET and self.asset_classes < 1:
            raise ModelValidationError("asset_classes must be >= 1")
        if kind is ModelKind.CREDIT_MARKET:
            if self.volume_x is None:
                raise ModelValidationError("credit_market requires volume_x (the monetary base)")
            if self.q0 not in (None, 0, 0.0):
                raise ModelValidationError(
                    "credit_market fixes q0 = 0 so credit and debt distributions coincide"
                )

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

    # -- conveniences ------------------------------------------------------

    @property
    def monetary_base(self) -> float:
        if self.kind is not ModelKind.CREDIT_MARKET:
            raise UnsupportedModelError("monetary_base is defined for the credit-market model")
        assert self.volume_x is not None
        return self.volume_x

    @property
    def total_accounts(self) -> int:
        if self.kind is not ModelKind.MULTI_ACCOUNT:
            raise UnsupportedModelError("total_accounts is defined for the multi-account model")
        return int(sum(self.accounts_per_agent))

    def with_volume(self, volume: float) -> "ModelSpec":
        """Copy of this model spec with its volume variable replaced."""
        if self.kind is ModelKind.CASH_ONLY:
            return dataclasses.replace(self, volume_y=volume)
        if self.kind in (ModelKind.OVERDRAFT, ModelKind.CREDIT_MARKET):
            return dataclasses.replace(self, volume_x=volume)
        raise UnsupportedModelError(f"{self.kind.value} has no volume variable")


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


def _require_kind(spec: ModelSpec, *kinds: ModelKind) -> None:
    if spec.kind not in kinds:
        wanted = ", ".join(k.value for k in kinds)
        raise UnsupportedModelError(f"operation requires model kind in {{{wanted}}}, got {spec.kind.value}")


def _log_expm1(u: float) -> float:
    """log(e^u - 1), stable for u anywhere in (0, inf)."""
    if u > 36.0:
        return u + math.log1p(-math.exp(-u))
    value = math.expm1(u)
    if value <= 0.0:
        raise ModelValidationError("degenerate account range: exp(d/T) - 1 underflows to zero")
    return math.log(value)


def _floor_occupation(temperature: float, overdraft: float) -> float:
    """The term d·e^{d/T}/(e^{d/T}-1); tends to T as d/T -> 0."""
    u = overdraft / temperature
    if u < _FLOOR_TERM_LIMIT:
        return temperature
    return overdraft / (-math.expm1(-u))


def model_volume(spec: ModelSpec) -> float | None:
    """The model's volume variable, or None when it has none."""
    if spec.kind is ModelKind.CASH_ONLY:
        return spec.volume_y
    if spec.kind in (ModelKind.OVERDRAFT, ModelKind.CREDIT_MARKET):
        return spec.volume_x
    return None


def temperature_closed_form(spec: ModelSpec, conserved_total: float) -> float:
    """Temperature as a function of the conserved money-function total.

    The total is the model's mean conserved quantity: m for cash-only,
    combined, credit-market and multi-asset models, Q0 for the overdraft
    and multi-account models. The restricted model has no explicit closed
    form; use :func:`invert_temperature_restricted`.
    """
    n = spec.n_agents
    kind = spec.kind
    if kind is ModelKind.CASH_ONLY or kind is ModelKind.CREDIT_MARKET:
        t = conserved_total / n
    elif kind is ModelKind.OVERDRAFT:
        t = conserved_total / n + spec.overdraft
    elif kind is ModelKind.MULTI_ACCOUNT:
        r_total = spec.total_accounts
        d_total = sum(d for row in spec.account_overdrafts for d in row)
        t = conserved_total / r_total + d_total / r_total
    elif kind is ModelKind.COMBINED:
        t = 0.5 * (conserved_total / n + spec.overdraft)
    elif kind is ModelKind.MULTI_ASSET:
        t = conserved_total / (n * spec.asset_classes)
    elif kind is ModelKind.RESTRICTED:
        raise UnsupportedModelError(
            "restricted model temperature is implicit; use invert_temperature_restricted"
        )
    else:  # pragma: no cover - enum is exhaustive
        raise UnsupportedModelError(f"unknown kind {kind}")
    if not t > 0:
        raise ModelValidationError(
            f"closed-form temperature is non-positive ({t}); invalid parameter combination"
        )
    return t


def log_partition(
    spec: ModelSpec,
    temperature: float,
    *,
    n_agents: float | None = None,
    volume: float | None = None,
) -> float:
    """ln Z of the factorized canonical partition function."""
    _check_temperature(temperature)
    n = float(spec.n_agents if n_agents is None else n_agents)
    t = temperature
    kind = spec.kind
    if kind is ModelKind.CASH_ONLY:
        v = spec.volume_y if volume is None else volume
        return n * (math.log(v) + math.log(t))
    if kind is ModelKind.OVERDRAFT:
        v = spec.volume_x if volume is None else volume
        return n * (math.log(v) + math.log(t) + spec.overdraft / t)
    if kind is ModelKind.COMBINED:
        return 2.0 * n * math.log(t) + n * spec.overdraft / t
    if kind is ModelKind.RESTRICTED:
        return 2.0 * n * math.log(t) + n * _log_expm1(spec.overdraft / t)
    if kind is ModelKind.CREDIT_MARKET:
        v = spec.volume_x if volume is None else volume
        return n * (math.log(v) + math.log(t))
    if kind is ModelKind.MULTI_ASSET:
        return n * spec.asset_classes * math.log(t)
    raise UnsupportedModelError(f"no closed-form partition function for {kind.value}")


def entropy_closed_form(
    spec: ModelSpec,
    temperature: float,
    *,
    n_agents: float | None = None,
    volume: float | None = None,
) -> float:
    """S = -dF/dT from the exact derivative of the closed form."""
    _check_temperature(temperature)
    n = float(spec.n_agents if n_agents is None else n_agents)
    t = temperature
    kind = spec.kind
    if kind in (ModelKind.CASH_ONLY, ModelKind.OVERDRAFT, ModelKind.CREDIT_MARKET):
        v = model_volume(spec) if volume is None else volume
        assert v is not None
        return n * math.log(v * t) + n
    if kind is ModelKind.COMBINED:
        return 2.0 * n * math.log(t) + 2.0 * n
    if kind is ModelKind.RESTRICTED:
        d = spec.overdraft
        return (
            2.0 * n * math.log(t)
            + 2.0 * n
            + n * _log_expm1(d / t)
            - n * _floor_occupation(t, d) / t
        )
    if kind is ModelKind.MULTI_ASSET:
        i = spec.asset_classes
        return n * i * math.log(t) + n * i
    raise UnsupportedModelError(f"no closed-form entropy for {kind.value}")


def mean_money_closed_form(
    spec: ModelSpec,
    temperature: float,
    *,
    n_agents: float | None = None,
) -> float:
    """Mean conserved total m(T) = F + T·S."""
    _check_temperature(temperature)
    n = float(spec.n_agents if n_agents is None else n_agents)
    t = temperature
    kind = spec.kind
    if kind in (ModelKind.CASH_ONLY, ModelKind.CREDIT_MARKET):
        return n * t
    if kind is ModelKind.OVERDRAFT:
        return n * t - n * spec.overdraft
    if kind is ModelKind.COMBINED:
        return 2.0 * n * t - n * spec.overdraft
    if kind is ModelKind.RESTRICTED:
        return n * (2.0 * t - _floor_occupation(t, spec.overdraft))
    if kind is ModelKind.MULTI_ASSET:
        return n * spec.asset_classes * t
    raise UnsupportedModelError(f"no closed-form mean money for {kind.value}")


def pressure_closed_form(
    spec: ModelSpec,
    temperature: float,
    *,
    n_agents: float | None = None,
    volume: float | None = None,
) -> float | None:
    """P = -dF/dV, or None for models without a volume variable."""
    _check_temperature(temperature)
    n = float(spec.n_agents if n_agents is None else n_agents)
    v = model_volume(spec) if volume is None else volume
    if v is None:
        return None
    return n * temperature / v


def chemical_potential_closed_form(
    spec: ModelSpec,
    temperature: float,
    *,
    volume: float | None = None,
) -> float:
    """mu = dF/dN with N treated as continuous; F is linear in N here."""
    _check_temperature(temperature)
    t = temperature
    kind = spec.kind
    if kind is ModelKind.CASH_ONLY:
        v = spec.volume_y if volume is None else volume
        return -t * math.log(v * t)
    if kind is ModelKind.OVERDRAFT:
        v = spec.volume_x if volume is None else volume
        return -t * math.log(v * t) - spec.overdraft
    if kind is ModelKind.COMBINED:
        return -2.0 * t * math.log(t) - spec.overdraft
    if kind is ModelKind.RESTRICTED:
        return -2.0 * t * math.log(t) - t * _log_expm1(spec.overdraft / t)
    if kind is ModelKind.CREDIT_MARKET:
        v = spec.volume_x if volume is None else volume
        return -t * math.log(v * t)
    if kind is ModelKind.MULTI_ASSET:
        return -t * spec.asset_classes * math.log(t)
    raise UnsupportedModelError(f"no closed-form chemical potential for {kind.value}")


def thermo_state(spec: ModelSpec, temperature: float) -> ThermoState:
    """Bundle (T, m, S, F, P, V, N, mu) at one operating point."""
    lnz = log_partition(spec, temperature)
    free_energy = -temperature * lnz
    entropy = entropy_closed_form(spec, temperature)
    mean_money = mean_money_closed_form(spec, temperature)
    return ThermoState(
        temperature=temperature,
        mean_money=mean_money,
        entropy=entropy,
        free_energy=free_energy,
        pressure=pressure_closed_form(spec, temperature),
        volume=model_volume(spec),
        n_agents=spec.n_agents,
        chemical_potential=chemical_potential_closed_form(spec, temperature),
    )


def microcanonical_entropy(spec: ModelSpec, total_money: float) -> float:
    """Fixed-total entropy of the cash-only model, S = N ln(m V_y) - ln N!.

    ln N! goes through log-gamma so that N up to 1e9 stays representable.
    """
    _require_kind(spec, ModelKind.CASH_ONLY)
    if not total_money > 0:
        raise ModelValidationError(f"total money must be positive, got {total_money}")
    n = spec.n_agents
    assert spec.volume_y is not None
    return n * (math.log(total_money) + math.log(spec.volume_y)) - float(gammaln(n + 1))


def mean_money_restricted(spec: ModelSpec, temperature: float) -> float:
    """m(T) = 2NT - N·d·e^{d/T}/(e^{d/T}-1) for the no-credit model."""
    _require_kind(spec, ModelKind.RESTRICTED)
    _check_temperature(temperature)
    n, d = spec.n_agents, spec.overdraft
    return n * (2.0 * temperature - _floor_occupation(temperature, d))


def invert_temperature_restricted(spec: ModelSpec, total_money: float) -> float:
    """The unique T > 0 whose restricted-model mean money equals the total.

    Bracketing plus bisection to 1e-10 relative width; m(T) is strictly
    increasing in T (checked while bracketing), so the root is unique.
    Raises when the total lies outside the attainable range (-N·d, inf).
    """
    _require_kind(spec, ModelKind.RESTRICTED)
    n, d = spec.n_agents, spec.overdraft
    if total_money <= -n * d:
        raise ModelValidationError(
            f"total money {total_money} is at or below the floor {-n * d}; no solution"
        )
    if total_money > 0 and d < _FLOOR_TERM_LIMIT * (total_money / n):
        # Same regime in which the forward map collapses to m = N·T.
        return total_money / n

    def gap(t: float) -> float:
        return mean_money_restricted(spec, t) - total_money

    hi = max(total_money / n + d, d, 1e-300)
    previous = gap(hi)
    for _ in range(600):
        if previous >= 0:
            break
        hi *= 2.0
        current = gap(hi)
        if not current > previous:
            raise ModelValidationError("mean money failed to increase with T while bracketing")
        previous = current
    else:
        raise ModelValidationError(f"no sign change while bracketing above T={hi}")
    lo = hi
    previous = gap(lo)
    for _ in range(4000):
        if previous <= 0:
            break
        lo *= 0.5
        current = gap(lo)
        if not current < previous:
            raise ModelValidationError("mean money failed to decrease with T while bracketing")
        previous = current
    else:
        raise ModelValidationError(f"no sign change while bracketing below T={lo}")
    # Iterate past the guaranteed 1e-10 so downstream difference quotients
    # are not limited by inversion noise.
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def temperature_from_total(spec: ModelSpec, conserved_total: float) -> float:
    """Temperature implied by the conserved total, by inversion for the restricted model."""
    if spec.kind is ModelKind.RESTRICTED:
        return invert_temperature_restricted(spec, conserved_total)
    return temperature_closed_form(spec, conserved_total)

"""Power-law income ensemble with a conserved log-income total.

Multiplicative income growth with zero-mean rates conserves
Y = sum_i ln(I_i), and the canonical ensemble over incomes above a floor
J carries the Boltzmann weight (t_max/I)^(t_max/T) per agent. The
partition integral converges only for T < t_max, where incomes follow
the Pareto density p(I) ~ I^(-a) with exponent a = t_max/T; entropy and
its temperature response diverge as T -> t_max, signalling the breakdown
of equilibrium.

Two mean-log-income notions coexist for this weight (its exponent scales
like t_max/T rather than 1/T): the Legendre combination F + T·S equals
T^2 dlnZ/dT (``pareto_mean_logincome``), while the ensemble average of
ln I per agent is ln J + T/(t_max - T) (``pareto_mean_logincome_sampling``);
Monte Carlo estimates converge to the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SampleSet, run_chain
from .ensembles import ModelSpec, MoneygasError, log_factorial


class ParetoError(MoneygasError):
    """Invalid parameters for the power-law income ensemble."""


@dataclass(frozen=True)
class ParetoSpec:
    """Income population: floor J, divergence temperature t_max, volume V."""

    n_agents: int
    floor_j: float
    t_max: float
    volume: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_agents, int) or self.n_agents < 1:
            raise ParetoError(f"n_agents must be a positive integer, got {self.n_agents}")
        if not self.floor_j > 0:
            raise ParetoError(f"income floor must be positive, got {self.floor_j}")
        if not self.t_max > 0:
            raise ParetoError(f"t_max must be positive, got {self.t_max}")
        if not self.volume > 0:
            raise ParetoError(f"volume must be positive, got {self.volume}")


def check_temperature(spec: ParetoSpec, temperature: float) -> float:
    """The tail exponent a = t_max/T, once equilibrium's 0 < T < t_max holds."""
    if not 0.0 < temperature < spec.t_max:
        raise ParetoError(
            f"equilibrium requires 0 < T < t_max ({spec.t_max}); got T={temperature}"
        )
    return spec.t_max / temperature  # exponent a > 1


def pareto_log_partition(spec: ParetoSpec, temperature: float) -> float:
    """ln Z = N [a ln t_max - (a-1) ln J - ln(a-1) + ln V] - ln N!, a = t_max/T."""
    a = check_temperature(spec, temperature)
    per_agent = (
        a * math.log(spec.t_max)
        - (a - 1.0) * math.log(spec.floor_j)
        - math.log(a - 1.0)
        + math.log(spec.volume)
    )
    return spec.n_agents * per_agent - log_factorial(spec.n_agents)


def pareto_entropy(spec: ParetoSpec, temperature: float) -> float:
    """S(T) = N ln(J V T) + N - N ln(t_max - T) + N T/(t_max - T).

    This is the per-agent partition's lnZ + T dlnZ/dT; the permutation
    factor kept in :func:`pareto_log_partition` only shifts it by the
    T-independent constant -ln N!. ln(J V T) is taken as a sum of logs,
    which no product of the factors can underflow or overflow.
    """
    check_temperature(spec, temperature)
    n, t, t_max = spec.n_agents, temperature, spec.t_max
    return (
        n * (math.log(spec.floor_j) + math.log(spec.volume) + math.log(t))
        + n
        - n * math.log(t_max - t)
        + n * t / (t_max - t)
    )


def pareto_mean_logincome(spec: ParetoSpec, temperature: float) -> float:
    """Per-agent Legendre mean: Y/N = T + t_max ln(J/t_max) + T^2/(t_max - T)."""
    check_temperature(spec, temperature)
    t, t_max = temperature, spec.t_max
    return t + t_max * (math.log(spec.floor_j) - math.log(t_max)) + t * t / (t_max - t)


def pareto_mean_logincome_sampling(spec: ParetoSpec, temperature: float) -> float:
    """Per-agent ensemble average of ln I: ln J + T/(t_max - T)."""
    check_temperature(spec, temperature)
    return math.log(spec.floor_j) + temperature / (spec.t_max - temperature)


def pareto_direct_sample(
    spec: ParetoSpec, temperature: float, n_samples: int, seed: int = 0
) -> np.ndarray:
    """Inverse-CDF draws from p(I) ~ I^(-a) on [J, inf), a = t_max/T."""
    check_temperature(spec, temperature)
    if n_samples < 1:
        raise ParetoError(f"n_samples must be positive, got {n_samples}")
    uniforms = np.random.default_rng(seed).random(n_samples)
    return pareto_quantile(spec, temperature, uniforms, out=uniforms)  # in place: no n-sized temporary


def pareto_quantile(spec: ParetoSpec, temperature: float, u, out: np.ndarray | None = None) -> np.ndarray:
    """Quantile function I(u) = J (1-u)^(-1/(a-1)) of the income law, into
    ``out`` when given (which may be ``u`` itself)."""
    a = check_temperature(spec, temperature)
    q = np.subtract(1.0, np.asarray(u, dtype=float), out=out)
    return np.multiply(spec.floor_j, np.power(q, -1.0 / (a - 1.0), out=out), out=out)


# ---------------------------------------------------------------------------
# Conserved-Y pairwise dynamics
# ---------------------------------------------------------------------------


def run_income_chain(
    spec: ParetoSpec,
    mean_log_excess: float,
    steps: int,
    burn_in: int | None = None,
    thin: int | None = None,
    seed: int = 0,
) -> IncomeSampleSet:
    """Conserved-Y chain of pairwise log reshuffles; returns thinned incomes.

    In z = ln(I/J) >= 0 the total Y = N ln J + sum_i z_i is a cash total, so
    the chain is the cash-only kernel on z: a uniform split of z_j + z_k keeps
    the shell measure of the conserved-Y ensemble invariant, and incomes never
    fall below the floor. Every agent starts at I = J e^theta. The window
    (``recording_window``) and every check on N and theta are ``run_chain``'s.
    """
    n = spec.n_agents
    chain = run_chain(ModelSpec.cash_only(n, 1.0), "equal", n * float(mean_log_excess),
                      steps, burn_in, thin, seed)
    incomes = np.exp(chain.coords["x"], out=chain.coords["x"])  # in place: no full-size copy
    incomes *= spec.floor_j
    return IncomeSampleSet({"income": incomes}, chain.meta, spec, steps)


@dataclass
class IncomeSampleSet(SampleSet):
    """The income chain's records, coordinate "income", with its ChainMeta
    (``max_drift`` is the audited relative drift of the z total)."""

    spec: ParetoSpec
    steps: int  # the events asked of the chain

    # Bound here, not inherited, so that wrapping SampleSet.csv_bytes (as the
    # benchmark's tracer does) leaves this class's writer apart from it.
    csv_bytes = SampleSet.csv_bytes


def transition_scan(spec: ParetoSpec, t_grid) -> list[tuple[float, float, float]]:
    """Table of (T, S, T dS/dT) over the grid; the response diverges at t_max.

    T dS/dT = N (t_max/(t_max - T))^2, strictly increasing in T, so its
    blow-up flags the equilibrium breakdown.
    """
    rows = []
    n, t_max = spec.n_agents, spec.t_max
    for t in t_grid:
        check_temperature(spec, t)
        rows.append((float(t), pareto_entropy(spec, t), n * (t_max / (t_max - t)) ** 2))
    return rows

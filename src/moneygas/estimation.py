"""Statistical back-end: exponential fits, goodness of fit, tail indices.

These close the loop between simulated samples and the closed-form
predictions: the shifted-exponential MLE recovers the temperature, the
KS statistic acts as a regression tripwire against the predicted law,
and the Hill estimator reads off power-law tail indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import (
    ModelSpec,
    MoneygasError,
    chemical_potential_closed_form,
    entropy_closed_form,
    invert_increasing,
    log_partition,
    mean_money_closed_form,
    model_volume,
    pressure_closed_form,
    temperature_closed_form,
)

# Asymptotic 1% critical value of the Kolmogorov distribution, sqrt(n)-scaled.
# Used with a fully specified null; with an estimated scale it is conservative.
KS_1PCT_CONSTANT = 1.63
# Ranks per block of the KS maxima, bounding their temporaries at 512 KiB each.
KS_BLOCK = 65_536


class EstimationError(MoneygasError):
    """Raised on degenerate or infeasible estimation input."""


@dataclass(frozen=True)
class FitReport:
    """Shifted-exponential fit: scale t_hat above a known floor."""

    t_hat: float
    stderr: float
    floor: float
    n: int


def fit_shifted_exponential(samples, floor: float = 0.0) -> FitReport:
    """MLE of the exponential scale for samples bounded below by ``floor``.

    t_hat = mean - floor, stderr = t_hat / sqrt(n).
    """
    data = np.asarray(samples, dtype=float)
    if data.ndim != 1:
        data = data.ravel()
    n = data.size
    if n < 2:
        raise EstimationError(f"need at least 2 samples, got {n}")
    if data.min() < floor:
        raise EstimationError(f"samples below the floor {floor} (min {data.min()})")
    if data.max() == data.min():
        raise EstimationError("degenerate input: all samples equal")
    t_hat = float(data.mean() - floor)
    return FitReport(t_hat=t_hat, stderr=t_hat / math.sqrt(n), floor=floor, n=n)


def ks_statistic_exponential(samples, floor: float, temperature: float) -> tuple[float, bool]:
    """Kolmogorov-Smirnov distance to Exp(temperature) shifted by ``floor``.

    Returns (D, pass) where pass means D < 1.63/sqrt(n), the asymptotic 1%
    critical value. Besides the sorted copy of the samples it holds only
    KS_BLOCK values at a time: the copy becomes the CDF in place, and the
    rank differences are taken block by block.

    The exponential is a slot's N -> infinity law. At K slots summing to S
    the exact law is S·Beta(1, K - 1), whose CDF is at most 0.23/K from the
    exponential's, so this check fails n exact samples once n >~ 50·K².
    """
    if not temperature > 0:
        raise EstimationError(f"temperature must be positive, got {temperature}")
    cdf = np.sort(np.asarray(samples, dtype=float).ravel())
    n = cdf.size
    if n < 10:
        raise EstimationError(f"need at least 10 samples for the KS check, got {n}")
    # -expm1(-(x - floor) / T), one operation at a time in the same order.
    np.subtract(cdf, floor, out=cdf)
    np.negative(cdf, out=cdf)
    np.divide(cdf, temperature, out=cdf)
    np.expm1(cdf, out=cdf)
    np.negative(cdf, out=cdf)
    d_plus = d_minus = -np.inf  # np.maximum, unlike max(), keeps a NaN as np.max would
    for start in range(0, n, KS_BLOCK):
        block = cdf[start:start + KS_BLOCK]
        ranks = np.arange(start + 1, start + block.size + 1, dtype=float)
        d_plus = np.maximum(d_plus, np.max(ranks / n - block))
        d_minus = np.maximum(d_minus, np.max(block - (ranks - 1.0) / n))
    d = max(float(d_plus), float(d_minus))
    return d, d < KS_1PCT_CONSTANT / math.sqrt(n)


def hill_default_k(n: int) -> int:
    """Default order-statistic count, the n^(2/3) bias/variance compromise."""
    return max(1, min(n - 1, int(round(n ** (2.0 / 3.0)))))


def hill_tail_index(samples, k: int | None = None) -> float:
    """Hill estimator of the tail index gamma of P(X > x) ~ x^(-gamma).

    gamma_hat = [ (1/k) * sum_{i=1..k} ln(X_(n-i+1) / X_(n-k)) ]^(-1)
    using the k largest order statistics against the (k+1)-th largest.

    Parameters
    ----------
    samples : array_like
        Positive observations.
    k : int, optional
        Number of upper order statistics; defaults to round(n^(2/3)).
    """
    data = np.asarray(samples, dtype=float).ravel()
    n = data.size
    if n < 2:
        raise EstimationError(f"need at least 2 samples, got {n}")
    if k is None:
        k = hill_default_k(n)
    if not 1 <= k < n:
        raise EstimationError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    # The (k+1)-th largest at its sorted index and the k above it, sorted: the values a full sort gives.
    data = np.partition(data, n - k - 1)
    reference = data[n - k - 1]
    top = np.sort(data[n - k :])
    if reference <= 0:
        raise EstimationError("top order statistics must be strictly positive")
    mean_log_excess = float(np.mean(np.log(top / reference)))
    if mean_log_excess <= 0:
        raise EstimationError("degenerate input: top order statistics are all equal")
    return 1.0 / mean_log_excess


@dataclass(frozen=True)
class Histogram:
    """Density histogram with explicit bin edges."""

    edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray
    n: int

    def tsv_rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), float(self.densities[i]))
            for i in range(len(self.counts))
        ]


def histogram(samples) -> Histogram:
    """Density histogram with Freedman-Diaconis binning."""
    data = np.asarray(samples, dtype=float).ravel()
    if data.size == 0:
        raise EstimationError("cannot histogram an empty sample")
    counts, edges = np.histogram(data, bins=np.histogram_bin_edges(data, bins="fd"))
    widths = np.diff(edges)
    densities = counts / (data.size * widths)
    return Histogram(edges=edges, counts=counts, densities=densities, n=int(data.size))


# ---------------------------------------------------------------------------
# Finite-difference verification of the thermodynamic identities
# ---------------------------------------------------------------------------


def _relative(value: float, reference: float, scale: float) -> float:
    return abs(value - reference) / max(abs(reference), scale)


def finite_diff_thermo_residuals(
    spec: ModelSpec,
    temperature: float,
    volume: float | None = None,
    h: float = 1e-5,
) -> dict[str, float]:
    """Central-difference residuals of the thermodynamic identities.

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
    """
    try:
        residuals = _residuals(spec, temperature, model_volume(spec, volume), h)
    except ZeroDivisionError as exc:
        raise EstimationError(
            f"finite differences at T={temperature}, V={volume} underflow to a zero step or scale"
        ) from exc
    if not all(map(math.isfinite, residuals.values())):
        raise EstimationError(
            f"finite differences at T={temperature}, V={volume} give a non-finite residual"
        )
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
    s_plus = entropy_at(temperature_closed_form(spec, m0 + dm))
    s_minus = entropy_at(temperature_closed_form(spec, m0 - dm))
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

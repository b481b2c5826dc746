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

from .ensembles import MoneygasError

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
    return FitReport(t_hat=t_hat, stderr=t_hat / math.sqrt(n), n=n)


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
    return Histogram(edges=edges, counts=counts, densities=densities)

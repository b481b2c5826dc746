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

from .dynamics import STREAM_BLOCK
from .ensembles import MoneygasError

# Asymptotic 1% critical value of the Kolmogorov distribution, sqrt(n)-scaled.
# Used with a fully specified null; with an estimated scale it is conservative.
KS_1PCT_CONSTANT = 1.63


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
    low, high = data.min(), data.max()
    if low < floor:
        raise EstimationError(f"samples below the floor {floor} (min {low})")
    if high == low:
        raise EstimationError("degenerate input: all samples equal")
    t_hat = float(data.mean() - floor)
    return FitReport(t_hat=t_hat, stderr=t_hat / math.sqrt(n), n=n)


def _sorted_values(sorted_samples) -> np.ndarray:
    """``sorted_samples`` as a flat float array; EstimationError unless no value
    is below the one before it. The check reads STREAM_BLOCK + 1 values at a time."""
    data = np.asarray(sorted_samples, dtype=float).ravel()
    for start in range(0, data.size - 1, STREAM_BLOCK):
        block = data[start:start + STREAM_BLOCK + 1]
        if np.any(block[1:] < block[:-1]):
            raise EstimationError("the samples must be sorted in ascending order")
    return data


def ks_statistic_exponential(sorted_samples, floor: float, temperature: float) -> tuple[float, bool]:
    """Kolmogorov-Smirnov distance to Exp(temperature) shifted by ``floor``.

    ``sorted_samples`` must be in ascending order, as ``np.sort`` leaves them;
    they are not changed. Returns (D, pass) where pass means
    D < 1.63/sqrt(n), the asymptotic 1% critical value. The distances are
    taken a block of STREAM_BLOCK values at a time, in temporaries of that
    size: with e = expm1((floor - x_i)/T) = -F(x_i), D+ = max(i/n + e)
    and D- = -min((i - 1)/n + e), the same doubles as i/n - F(x_i) and
    F(x_i) - (i - 1)/n, since fl(a - b) = -fl(b - a).

    The exponential is a slot's N -> infinity law. At K slots summing to S
    the exact law is S·Beta(1, K - 1), whose CDF is at most 0.23/K from the
    exponential's, so this check fails n exact samples once n >~ 50·K².
    """
    if not temperature > 0:
        raise EstimationError(f"temperature must be positive, got {temperature}")
    data = _sorted_values(sorted_samples)
    n = data.size
    if n < 10:
        raise EstimationError(f"need at least 10 samples for the KS check, got {n}")
    d_plus, low = -np.inf, np.inf  # np.maximum and np.minimum, unlike max(), keep a NaN as np.max would
    for start in range(0, n, STREAM_BLOCK):
        e = floor - data[start:start + STREAM_BLOCK]
        e /= temperature
        np.expm1(e, out=e)
        quotients = np.arange(start, start + e.size + 1, dtype=float)  # rank i - 1 for each value, then one more
        quotients /= n  # (i - 1)/n, and [1:] holds i/n
        d_plus = np.maximum(d_plus, np.max(quotients[1:] + e))
        low = np.minimum(low, np.min(quotients[:-1] + e))
    d = max(float(d_plus), -float(low))
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
    # The k + 1 largest, kept a STREAM_BLOCK at a time, sorted: the (k+1)-th largest and the k above it.
    kept = data[:0]
    for start in range(0, n, STREAM_BLOCK):
        kept = np.concatenate([kept, data[start:start + STREAM_BLOCK]])
        kept = np.partition(kept, kept.size - k - 1)[kept.size - k - 1:] if kept.size > k + 1 else kept
    kept = np.sort(kept)
    reference, top = kept[0], kept[1:]
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


def _sorted_quantile(data: np.ndarray, q: float) -> float:
    """``np.quantile(data, q)`` of sorted ``data``, by numpy's default linear
    rule: the value at position q·(n - 1), interpolated as numpy's ``_lerp``."""
    position = (data.size - 1) * q
    below = math.floor(position)
    if below >= data.size - 1:
        return data[-1]
    t = position - below
    a, b = data[below], data[below + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def histogram(sorted_samples) -> Histogram:
    """Density histogram with Freedman-Diaconis binning of ascending samples.

    The same edges, counts and densities as
    ``np.histogram(x, np.histogram_bin_edges(x, "fd"))``, read from the sorted
    values: the quartiles at their positions, the ends at the first and last
    value, and the counts by ``searchsorted`` (half-open bins, the last closed).
    """
    data = _sorted_values(sorted_samples)
    n = data.size
    if n == 0:
        raise EstimationError("cannot histogram an empty sample")
    first, last = data[0], data[-1]
    if not (np.isfinite(first) and np.isfinite(last)):
        raise EstimationError(f"cannot histogram non-finite values (range [{first}, {last}])")
    if first == last:
        first, last = first - 0.5, last + 0.5
    width = 2.0 * (_sorted_quantile(data, 0.75) - _sorted_quantile(data, 0.25)) * n ** (-1.0 / 3.0)
    bins = int(np.ceil((last - first) / width)) if width else 1
    edges = np.linspace(first, last, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        raise EstimationError(f"cannot make {bins} finite-sized bins in [{first}, {last}]")
    below = np.concatenate((data.searchsorted(edges[:-1], "left"), data.searchsorted(edges[-1:], "right")))
    counts = np.diff(below)
    densities = counts / (n * np.diff(edges))
    return Histogram(edges=edges, counts=counts, densities=densities)

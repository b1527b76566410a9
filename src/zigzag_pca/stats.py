"""Empirical summaries and distribution distances for simulated lines.

Standard errors come from batch means with about sqrt(n) batches, which
stays honest for the autocorrelated lines these tools are pointed at.  The
batches' autocorrelations take one ``np.vecdot`` a lag, over chunks of the
batches that hold about _AC_CHUNK doubles at once; each entry has the bits
of one ``np.dot`` a batch.
The distribution test is the one-sample Kolmogorov-Smirnov sup distance
with the fixed asymptotic threshold 1.63 (level about 0.01); no
multiple-testing correction is applied, acceptance suites interpret
isolated failures across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KS_COEFF = 1.63  # asymptotic Kolmogorov quantile, alpha ~ 0.01
MAX_LAG = 5


@dataclass(frozen=True)
class LineSummary:
    n: int
    mean: float
    variance: float
    autocorr: tuple
    se_mean: float
    se_variance: float
    se_autocorr: tuple
    autocorr_defined: bool


# doubles of the batches centred at once by _batch_autocorr
_AC_CHUNK = 1 << 13


def _autocorr(x: np.ndarray) -> np.ndarray:
    n = x.size
    centered = x - x.mean()
    c0 = float(np.dot(centered, centered)) / n
    if c0 == 0.0:
        return np.full(MAX_LAG, np.nan)
    out = np.empty(MAX_LAG)
    for k in range(1, MAX_LAG + 1):
        out[k - 1] = float(np.dot(centered[:-k], centered[k:])) / n / c0
    return out


def _batch_autocorr(batches: np.ndarray, means: np.ndarray) -> np.ndarray:
    """_autocorr of each row of ``batches`` (whose row means are ``means``),
    NaN for a constant row, as an (rows, MAX_LAG) array: one ``np.vecdot``
    a lag over chunks of about _AC_CHUNK doubles.  vecdot runs np.dot's
    kernel on each row, so every entry has _autocorr's bits."""
    rows, blen = batches.shape
    out = np.empty((rows, MAX_LAG))
    step = max(1, _AC_CHUNK // blen)
    for lo in range(0, rows, step):
        centered = batches[lo:lo + step] - means[lo:lo + step, None]
        c0 = np.vecdot(centered, centered) / blen
        for k in range(1, MAX_LAG + 1):
            out[lo:lo + step, k - 1] = np.vecdot(centered[:, :-k], centered[:, k:]) / blen / c0
        out[lo:lo + step][c0 == 0.0] = np.nan
    return out


def summarize_line(values) -> LineSummary:
    """Mean, unbiased variance, lag-1..MAX_LAG autocorrelations, and
    batch-means standard errors.  Needs at least 10 values; a constant line
    reports its autocorrelations as undefined."""
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n < 10:
        raise ValueError(f"need at least 10 values, got {n}")
    mean = float(x.mean())
    variance = float(x.var(ddof=1))

    nb = int(np.sqrt(n))
    blen = n // nb
    batches = x[: nb * blen].reshape(nb, blen)
    bmeans = batches.mean(axis=1)
    bvars = batches.var(axis=1, ddof=1)
    se_mean = float(bmeans.std(ddof=1) / np.sqrt(nb))
    se_variance = float(bvars.std(ddof=1) / np.sqrt(nb))

    defined = variance > 0.0
    if defined:
        ac = _autocorr(x)
        with np.errstate(invalid="ignore"):
            bacs = _batch_autocorr(batches, bmeans)
            se_ac = np.nanstd(bacs, axis=0, ddof=1) / np.sqrt(nb)
    else:
        ac = np.full(MAX_LAG, np.nan)
        se_ac = np.full(MAX_LAG, np.nan)

    return LineSummary(n=n, mean=mean, variance=variance,
                       autocorr=tuple(float(a) for a in ac),
                       se_mean=se_mean, se_variance=se_variance,
                       se_autocorr=tuple(float(s) for s in se_ac),
                       autocorr_defined=bool(defined))


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    threshold: float
    n: int

    @property
    def passed(self) -> bool:
        return self.distance <= self.threshold


def ks_distance(sample, target_cdf) -> DistanceResult:
    """One-sample sup distance against a target CDF; threshold 1.63/sqrt(n)."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(target_cdf(x), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    dist = float(np.maximum(np.abs(hi - f), np.abs(f - lo)).max())
    return DistanceResult(distance=dist, threshold=KS_COEFF / np.sqrt(n), n=n)


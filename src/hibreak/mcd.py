"""Minimum covariance determinant location/scatter and robust distances.

Mirrors the trimmed-squares search: many cheap starts, two concentration
steps each, full refinement of the best few. A concentration step ranks
rows by Mahalanobis distance under the current estimate and recomputes
classical moments from the h closest rows, which never increases the
covariance determinant. The returned scatter carries a consistency factor
so that distances of clean Gaussian data are approximately chi(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import Model, check_search_config, lowest_mask, lowest_rows, run_search
from .core_stats import chi2_cdf, chi2_quantile, cholesky_spd, factor_determinant, finite
from .core_stats import mean_and_cov, spd_factor, spd_inverse, substitute
from .errors import ConstantColumn, NotPositiveDefinite, TooFewRows


@dataclass(frozen=True)
class McdConfig:
    """Search parameters: subset fraction, start budget, determinism."""

    h_fraction: float = 0.75
    n_starts: int = 500
    n_best_kept: int = 10
    seed: int = 0
    max_csteps: int = 100

    def __post_init__(self):
        if not 0.5 < self.h_fraction <= 1.0:
            raise ValueError(f"h_fraction must lie in (0.5, 1], got {self.h_fraction}")
        check_search_config(self)


@dataclass(eq=False)
class McdEstimate:
    """Robust center, consistency-corrected scatter, and per-row distances.

    raw_determinant is the minimized objective: the determinant of the
    uncorrected covariance of best_subset.
    """

    center: np.ndarray
    scatter: np.ndarray
    best_subset: np.ndarray
    raw_determinant: float
    robust_distances: np.ndarray
    consistency_factor: float
    h: int


def subset_size(n: int, h_fraction: float) -> int:
    return math.floor(h_fraction * n)


def scatter_consistency_factor(h: int, n: int, p: int) -> float:
    """Correction q / F_chi2(p+2)(chi2_quantile(q, p)) with q = h/n.

    Makes squared robust distances of clean Gaussian data approximately
    chi-square(p), which the diagnostic distance cutoff presumes.
    """
    if h >= n:
        return 1.0
    q = h / n
    return q / chi2_cdf(chi2_quantile(q, p), p + 2)


def _mahalanobis_sq(x: np.ndarray, center: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances given the scatter's lower Cholesky factor."""
    z = substitute(low, (x - center).T)
    return np.sum(z * z, axis=0)


def evaluate_subsets(x: np.ndarray, subsets: np.ndarray):
    """(kept, determinants, fit) of the classical moments of each subset of a (T, m) stack.

    As lts.evaluate_subsets, for the covariance (denominator m - 1): kept
    drops subsets whose rows lie in a lower-dimensional affine subspace or
    whose determinant is not finite, and fit(j) is the (mean, covariance)
    of subset kept[j].
    """
    # The layout mean_and_cov sums in, so that it copies nothing: from p = 2, each subset's rows
    # outermost ((m, T, p) memory); np.take gives the values of x[subsets] at less cost
    rows = np.take(x, subsets.T, axis=0).swapaxes(0, 1) if x.shape[1] > 1 else np.take(x, subsets, axis=0)
    center, cov = mean_and_cov(rows)
    low, ok = spd_factor(cov)
    with np.errstate(over="ignore"):
        det = factor_determinant(low)
    kept = np.flatnonzero(ok & np.isfinite(det))
    return kept, det[kept], lambda j: (center[kept[j]].copy(), cov[kept[j]].copy())


def _search_model(x: np.ndarray, h: int) -> Model:
    """Batched subset moments from sums of x and x x', and distances as quadratic forms.

    Rows are taken relative to the coordinatewise median, so that a large
    offset of the data does not cancel digits out of the raw moments.
    """
    n, p = x.shape
    xc = x - np.median(x, axis=0)
    squares = (xc[:, :, None] * xc[:, None, :]).reshape(n, p * p)
    terms = np.hstack([xc, squares])

    def fit(sums, count, out=None):
        mean = sums[:, :p] / count
        second = sums[:, p:].reshape(-1, p, p) / count
        cov = (second - mean[:, :, None] * mean[:, None, :]) * (count / (count - 1))
        low, ok = spd_factor(cov)
        precision = spd_inverse(low)
        det = factor_determinant(low)
        # Pivots near underflow overflow the precision, and a spread near the float range
        # the determinant: such a trial is degenerate.
        ok &= np.isfinite(precision).all(axis=(1, 2)) & np.isfinite(det)
        return (mean, precision), det, ok

    def select(params, out=(None, None)):
        mean, precision = params
        pm = (precision @ mean[:, :, None])[:, :, 0]
        scores = np.matmul(precision.reshape(len(mean), p * p), squares.T, out=out[0])
        scores -= np.multiply(np.matmul(pm, xc.T, out=out[1]), 2.0, out=out[1])
        return lowest_mask(np.add(scores, np.sum(mean * pm, axis=1)[:, None], out=scores), h, out[1])

    return Model(terms=terms, fit=fit, select=select,
                 refit=lambda subsets: evaluate_subsets(x, subsets))


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in the documented error
def mcd_c_step(
    x: np.ndarray, center: np.ndarray, scatter: np.ndarray, h: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One concentration step from (center, scatter).

    Selects the h rows closest in Mahalanobis distance (ties toward the
    lowest index) and returns their classical mean, covariance, the row
    subset, and the covariance determinant; starting from the moments of
    any h-row subset the determinant never increases. NotPositiveDefinite
    means the input scatter or the selection is singular, and the trial
    should be discarded; ValueError means h lies outside [p+1, n] or an
    input is not finite.
    """
    x = finite("x", x)
    n, p = x.shape
    if not p + 1 <= h <= n:
        raise ValueError(f"h must lie in [{p + 1}, {n}], got {h}")
    low = cholesky_spd(finite("scatter", scatter))
    subset = lowest_rows(_mahalanobis_sq(x, finite("center", center), low), h)
    kept, det, fit = evaluate_subsets(x, subset[None])
    if not kept.size:
        raise NotPositiveDefinite("the selected rows are singular")
    return *fit(0), subset, float(det[0])


def _validate(x: np.ndarray) -> np.ndarray:
    x = finite("x", x)
    if x.ndim != 2:
        raise ValueError(f"expected an n x p matrix, got shape {x.shape}")
    n, p = x.shape
    if n < 2 * (p + 1):
        raise TooFewRows(f"need at least 2(p+1)={2 * (p + 1)} rows, got {n}")
    for j in range(p):
        if np.ptp(x[:, j]) == 0.0:
            raise ConstantColumn(f"column {j} is constant")
    return x


def fit_mcd(x: np.ndarray, config: McdConfig | None = None) -> McdEstimate:
    """Randomized concentration search for the minimum covariance determinant.

    Starts are (p+1)-row subsets (all of them on small instances, seeded
    draws otherwise, one of every row when h = n); each surviving start
    gets two concentration steps, the n_best_kept lowest-determinant
    trials iterate to convergence, and the winner is chosen by
    (determinant, trial index); above NESTED_MIN_N rows the starts run
    on subsamples first (concentration.run_search). The estimate is
    recomputed from the winner's rows, and the scatter is multiplied by
    the consistency factor before distances are computed.
    """
    config = config or McdConfig()
    x = _validate(x)
    n, p = x.shape
    h = subset_size(n, config.h_fraction)  # >= p+1, since n >= 2(p+1) and h_fraction > 1/2
    search = run_search(lambda rows, h_rows: _search_model(x[rows], h_rows), n, p, h, config)

    center, cov = search.estimate
    factor = scatter_consistency_factor(h, n, p)
    scatter = cov * factor
    distances = np.sqrt(_mahalanobis_sq(x, center, cholesky_spd(scatter)))
    return McdEstimate(
        center=center,
        scatter=scatter,
        best_subset=search.rows,
        raw_determinant=search.objective,
        robust_distances=distances,
        consistency_factor=factor,
        h=h,
    )


def robust_distances(x: np.ndarray, estimate: McdEstimate) -> np.ndarray:
    """Mahalanobis distances of each row under the corrected estimate."""
    low = cholesky_spd(estimate.scatter)
    return np.sqrt(_mahalanobis_sq(finite("x", x), estimate.center, low))

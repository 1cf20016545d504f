"""Exact trimmed-squares and covariance-determinant minima by enumeration.

Evaluates every h-row subset, so it is only feasible for small inputs; the
randomized estimators can never beat these values, which makes this module
the ground truth for their tests. Deliberately naive by design.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core_stats import cho_apply, cholesky_spd, factor_determinant, mean_and_cov
from .errors import AllSubsetsDegenerate, NotPositiveDefinite, TooLarge
from .ols import Dataset

MAX_SUBSETS = 10**6


@dataclass(eq=False)
class OracleResult:
    """Global optimum over all non-degenerate h-subsets.

    coefficients_or_moments is the coefficient vector for the regression
    oracle and the (center, covariance) pair for the covariance oracle.
    """

    best_subset: np.ndarray
    best_objective: float
    coefficients_or_moments: object
    n_subsets_evaluated: int


def _enumerate(n: int, h: int, evaluate, degenerate: str) -> OracleResult:
    """Lowest objective over every h-subset in lexicographic order; the first minimum wins.

    evaluate(rows) returns (objective, fit) or raises NotPositiveDefinite
    for a degenerate subset, which is skipped.
    """
    if math.comb(n, h) > MAX_SUBSETS:
        raise TooLarge(f"C({n}, {h}) = {math.comb(n, h)} exceeds {MAX_SUBSETS} subsets")
    best = None
    evaluated = 0
    for combo in itertools.combinations(range(n), h):
        rows = np.array(combo)
        try:
            objective, fit = evaluate(rows)
        except NotPositiveDefinite:
            continue
        evaluated += 1
        if best is None or objective < best[0]:
            best = (objective, rows, fit)
    if best is None:
        raise AllSubsetsDegenerate(f"all C({n}, {h}) subsets were {degenerate}")
    objective, rows, fit = best
    return OracleResult(
        best_subset=rows,
        best_objective=objective,
        coefficients_or_moments=fit,
        n_subsets_evaluated=evaluated,
    )


def exact_lts(data: Dataset, h: int) -> OracleResult:
    """Exhaustive minimum of the sum of the h smallest squared residuals.

    The optimum coincides with the OLS fit of some h-subset, so OLS on
    every subset (in lexicographic order, first minimum wins) finds the
    global minimum exactly. Rank-deficient subsets are skipped.
    """
    x = data.design_matrix()
    y = data.response_vector()
    n, k = x.shape
    if h < k + 1:
        raise ValueError(f"h={h} is below k+1={k + 1}")

    def evaluate(rows):
        xs = x[rows]
        low = cholesky_spd(xs.T @ xs)
        beta = cho_apply(low, xs.T @ y[rows])
        r = y - x @ beta
        r2 = r * r
        return float(np.sort(r2)[:h].sum()), beta

    return _enumerate(n, h, evaluate, "rank deficient")


def exact_mcd(x: np.ndarray, h: int) -> OracleResult:
    """Exhaustive minimum covariance determinant over all h-subsets.

    Subsets whose rows span a lower-dimensional affine subspace are
    degenerate and skipped, so an exact-fit configuration falls through to
    the best non-degenerate subset.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    if h < p + 1:
        raise ValueError(f"h={h} is below p+1={p + 1}")

    def evaluate(rows):
        center, cov = mean_and_cov(x[rows])
        return float(factor_determinant(cholesky_spd(cov))), (center, cov)

    return _enumerate(n, h, evaluate, "degenerate")

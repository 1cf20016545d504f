"""Exact trimmed-squares and covariance-determinant minima by enumeration.

Evaluates every h-row subset, so it is only feasible for small inputs; the
randomized estimators can never beat these values, which makes this module
the ground truth for their tests. What stays naive: every h-subset is
evaluated, in lexicographic order, and the first minimum wins; nothing is
pruned and no tolerance is applied. The arithmetic is the estimator's own
subset evaluator (lts.evaluate_subsets, mcd.evaluate_subsets), the one
that also ranks the searches' refined trials and serves the public
C-steps, so the oracle and the search compute the same bits for the same
rows. Only the bookkeeping is batched: consecutive subsets are evaluated
together as stacked arrays, in chunks whose memory is bounded by
concentration._BLOCK_ELEMENTS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import concentration, lts, mcd
from .errors import AllStartsDegenerate, TooLarge
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


def _chunks(n: int, h: int, width: int):
    """(T, h) arrays of consecutive lexicographic h-subsets of range(n).

    T * n * width stays within concentration._BLOCK_ELEMENTS (at least one
    subset), which bounds every (T, n) and (T, h, width) array of a chunk.
    """
    size = max(1, concentration._BLOCK_ELEMENTS // (n * width))
    combos = itertools.combinations(range(n), h)
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, size)), dtype=np.intp)
        if not flat.size:
            return
        yield flat.reshape(-1, h)


def _enumerate(n: int, h: int, width: int, evaluate, degenerate: str) -> OracleResult:
    """Lowest objective over every h-subset in lexicographic order; the first minimum wins.

    evaluate(subsets) is the estimator's subset evaluator on a (T, h) chunk:
    (kept, objectives, fit), as lts.evaluate_subsets returns them.
    """
    if h > n:
        raise ValueError(f"h={h} exceeds n={n}")
    if math.comb(n, h) > MAX_SUBSETS:
        raise TooLarge(f"C({n}, {h}) = {math.comb(n, h)} exceeds {MAX_SUBSETS} subsets")
    best = None
    evaluated = 0
    for subsets in _chunks(n, h, width):
        kept, objectives, fit = evaluate(subsets)
        if not kept.size:
            continue
        evaluated += kept.size
        j = int(np.argmin(objectives))
        if best is None or objectives[j] < best[0]:
            best = (float(objectives[j]), subsets[kept[j]].copy(), fit(j))
    if best is None:
        raise AllStartsDegenerate(f"all C({n}, {h}) subsets were {degenerate}")
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
    return _enumerate(n, h, k, lambda subsets: lts.evaluate_subsets(x, y, subsets, h),
                      "rank deficient")


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
    return _enumerate(n, h, p, lambda subsets: mcd.evaluate_subsets(x, subsets), "degenerate")

"""Exact trimmed-squares and covariance-determinant minima by enumeration.

Evaluates every h-row subset, so it is only feasible for small inputs; the
randomized estimators can never beat these values, which makes this module
the ground truth for their tests. What stays naive: every h-subset is
evaluated, in lexicographic order, and the first minimum wins; each subset
gets the same arithmetic as the scalar refit path of fit_lts and fit_mcd
(one OLS or moment fit and one LAPACK Cholesky with the shared pivot
test), so its objective is bit-identical to that path's; nothing is pruned
and no tolerance is applied. Only the bookkeeping is batched: consecutive
subsets are evaluated together as stacked arrays, in chunks whose memory
is bounded by concentration._BLOCK_ELEMENTS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import concentration
from .core_stats import cho_apply, spd_factor
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

    evaluate(subsets) takes a (T, h) chunk and returns (kept, objectives,
    fit): the indices of its non-degenerate subsets in chunk order, their
    objectives, and fit(j), the fit of subset kept[j].
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

    def evaluate(subsets):
        xs = x[subsets]
        xt = xs.swapaxes(1, 2)
        low, ok = spd_factor(xt @ xs)
        rhs = (xt @ y[subsets][..., None])[..., 0]
        kept = np.flatnonzero(ok)
        # dpotrs one subset at a time: no batched solve reproduces its bits
        beta = np.array([cho_apply(low[t], rhs[t]) for t in kept]).reshape(-1, k)
        # x @ beta[..., None], not beta @ x.T, is the scalar path's product
        r = y - (x @ beta[..., None])[..., 0]
        return kept, np.sort(r * r, axis=1)[:, :h].sum(axis=1), lambda j: beta[j].copy()

    return _enumerate(n, h, k, evaluate, "rank deficient")


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

    def evaluate(subsets):
        xs = x[subsets]
        center = xs.sum(axis=1) / h
        centered = xs - center[:, None, :]
        scatter = centered.swapaxes(1, 2) @ centered / (h - 1)
        cov = (scatter + scatter.swapaxes(1, 2)) / 2.0
        low, ok = spd_factor(cov)
        kept = np.flatnonzero(ok)
        # A Python float's ** 2 goes through C pow, as factor_determinant's
        # numpy scalar does; an array's ** 2 multiplies, which can differ in
        # the last bit.
        products = low[kept].diagonal(0, 1, 2).prod(axis=1).tolist()
        objectives = np.array([v**2 for v in products])
        return kept, objectives, lambda j: (center[kept[j]].copy(), cov[kept[j]].copy())

    return _enumerate(n, h, p, evaluate, "degenerate")

"""Least trimmed squares regression via a randomized concentration-step search.

The estimator minimizes the sum of the h smallest squared residuals. Each
concentration step selects the h best-fitting rows under the current
coefficients and refits OLS on exactly those rows, which provably never
increases the objective; the search runs many cheap starts, concentrates
each briefly, and iterates only the most promising trials to convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import Model, check_search_config, lowest_mask, lowest_rows, partitioned, run_search
from .core_stats import cho_apply, finite, gaussian_quantile, spd_factor
from .errors import NotPositiveDefinite
from .ols import Dataset

# A fit whose robust scale is at most this fraction of max |y| over the
# h-subset is exact up to rounding (well-conditioned exact fits leave about
# 1e-16 of it); residuals that small count as zero.
EXACT_FIT_RTOL = 1e-12


@dataclass(frozen=True)
class LtsConfig:
    """Search parameters: trimming fraction, start budget, determinism."""

    alpha: float = 0.25
    n_starts: int = 500
    n_best_kept: int = 10
    seed: int = 0
    max_csteps: int = 100

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 0.5:
            raise ValueError(f"alpha must lie in [0, 0.5], got {self.alpha}")
        check_search_config(self)


@dataclass(eq=False)
class LtsFit:
    """Result of the trimmed-squares search.

    objective is the sum of the h smallest squared residuals at the
    returned coefficients; h_subset holds exactly the rows attaining them
    (ties broken toward the lowest index). robust_scale is 0.0 only in the
    degenerate exact-fit case (scale at most EXACT_FIT_RTOL * max |y| over
    h_subset), where standardized residuals are 0 for rows on the fit
    (|residual| within that bound) and +/-inf sentinels elsewhere;
    raw_residuals keep their computed values either way.
    """

    coefficients: np.ndarray
    objective: float
    h_subset: np.ndarray
    raw_residuals: np.ndarray
    robust_scale: float
    standardized_residuals: np.ndarray
    n_csteps_total: int
    converged: bool
    h: int


def trimmed_size(n: int, k: int, alpha: float) -> int:
    """Subset size h = n - floor(alpha*n), clamped to [k+1, n]."""
    h = n - math.floor(alpha * n)
    return max(min(h, n), k + 1)


def consistency_factor(h: int, n: int) -> float:
    """Correction making sqrt(objective/h) consistent for sigma under Gaussian errors.

    Equals 1/sqrt(variance of a standard normal truncated to its central
    h/n probability mass); 1.0 when nothing is trimmed.
    """
    if h >= n:
        return 1.0
    q = h / n
    k = gaussian_quantile((q + 1.0) / 2.0)
    phi = math.exp(-0.5 * k * k) / math.sqrt(2.0 * math.pi)
    return 1.0 / math.sqrt(1.0 - 2.0 * k * phi / q)


def _squared_residuals(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # for one beta, x @ beta[..., None] is the same BLAS product as x @ beta
    r = y - (x @ beta[..., None])[..., 0]
    return r * r


def _objective(r2: np.ndarray, h: int) -> np.ndarray:
    """Sum of the h smallest squared residuals (of each row of r2), accumulated in sorted order."""
    return np.sort(r2)[..., :h].sum(axis=-1)


def evaluate_subsets(x: np.ndarray, y: np.ndarray, subsets: np.ndarray, h: int):
    """(kept, objectives, fit) of OLS on each row subset of a (T, m) stack.

    kept indexes, in stack order, the subsets whose normal equations pass
    the pivot test and whose objective, the sum of the h smallest squared
    residuals over all rows, is finite; fit(j) gives the coefficients of
    subset kept[j]. The oracle, the search's refit and c_step all use this.
    """
    xs = np.take(x, subsets, axis=0)  # x[subsets], bit for bit and C-contiguous, at less cost
    xt = xs.swapaxes(1, 2)
    low, ok = spd_factor(xt @ xs)
    rhs = (xt @ np.take(y, subsets)[..., None])[..., 0]
    beta = cho_apply(low, rhs)  # elementwise: each subset's bits as if alone
    objective = _objective(_squared_residuals(x, y, beta), h)
    kept = np.flatnonzero(ok & np.isfinite(objective))  # overflowed: degenerate
    return kept, objective[kept], lambda j: beta[kept[j]].copy()


def _search_model(x: np.ndarray, y: np.ndarray, h: int) -> Model:
    """Batched subset OLS: sums of x x' and x y give each trial's normal equations."""
    n, k = x.shape
    terms = np.hstack([(x[:, :, None] * x[:, None, :]).reshape(n, k * k), x * y[:, None]])

    def fit(sums, count, out=(None, None)):
        low, ok = spd_factor(sums[:, : k * k].reshape(-1, k, k))
        beta = cho_apply(low, sums[:, k * k :])
        r2 = np.matmul(beta, x.T, out=out[0])  # (y - beta @ x.T) ** 2, in place
        np.square(np.subtract(y, r2, out=r2), out=r2)
        lowest = partitioned(r2, h - 1, out[1])  # the objective, and the next selection's threshold
        objective = lowest[:, :h].sum(axis=1)
        ok &= np.isfinite(objective)  # overflowed: degenerate
        return (beta, r2, lowest[:, h - 1 : h].copy()), objective, ok  # select overwrites out[1]

    return Model(terms=terms, fit=fit,
                 select=lambda params, out=(None, None): lowest_mask(params[1], h, out[1], params[2]),
                 refit=lambda subsets: evaluate_subsets(x, y, subsets, h))


def lts_objective(data: Dataset, beta: np.ndarray, h: int) -> float:
    """Sum of the h smallest squared residuals of data under beta."""
    if not 1 <= h <= data.n:
        raise ValueError(f"h must lie in [1, {data.n}], got {h}")
    r2 = _squared_residuals(data.design_matrix(), data.response_vector(), finite("beta", beta))
    return float(_objective(r2, h))


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in the documented error
def c_step(
    data: Dataset, beta: np.ndarray, h: int
) -> tuple[np.ndarray, float, np.ndarray]:
    """One concentration step from beta.

    Selects the h rows with the smallest squared residuals under beta
    (ties toward the lowest index), refits OLS on exactly those rows, and
    returns (new_beta, new_objective, selected_rows). In exact arithmetic
    the new objective never exceeds lts_objective(data, beta, h); in
    floating point it can by rounding, as when beta is an exact fit of h
    rows: the objective 0.0 becomes the refit's rounding residue (3.9e-31
    in one case). NotPositiveDefinite means the selected rows are collinear
    or their objective overflows, and the trial should be discarded;
    ValueError means h lies outside [1, n] or beta is not finite.
    """
    if not 1 <= h <= data.n:
        raise ValueError(f"h must lie in [1, {data.n}], got {h}")
    x, y = data.design_matrix(), data.response_vector()
    subset = lowest_rows(_squared_residuals(x, y, finite("beta", beta)), h)
    kept, objective, fit = evaluate_subsets(x, y, subset[None], h)
    if not kept.size:
        raise NotPositiveDefinite("the selected rows are collinear or their objective overflows")
    return fit(0), float(objective[0]), subset


def fit_lts(data: Dataset, config: LtsConfig | None = None) -> LtsFit:
    """Trimmed-squares fit: randomized starts, concentration, refinement.

    Every (K+1)-row start subset gets an OLS fit and two concentration
    steps; the n_best_kept lowest-objective trials iterate to convergence
    and the winner is chosen by (objective, trial index), which makes the
    result deterministic for a given seed. Above NESTED_MIN_N rows the
    starts run on subsamples first; with nothing trimmed the one start is
    every row (concentration.run_search). Trials whose selected rows turn
    collinear are discarded; AllStartsDegenerate means none survived. The
    reported fit is recomputed from the winner's rows; a robust scale
    within EXACT_FIT_RTOL of the size of y is an exact fit (see LtsFit).
    """
    config = config or LtsConfig()
    x = data.design_matrix()
    y = data.response_vector()
    n, k = x.shape
    h = trimmed_size(n, k, config.alpha)
    search = run_search(lambda rows, h_rows: _search_model(x[rows], y[rows], h_rows),
                        n, k, h, config)

    beta = search.estimate
    raw = y - x @ beta
    h_subset = lowest_rows(raw * raw, h)
    scale, standardized = standardize_residuals(search.objective, raw, h, n)
    negligible = EXACT_FIT_RTOL * float(np.abs(y[h_subset]).max())
    if scale <= negligible:  # exact fit up to rounding: scale 0 with 0 / +-inf sentinels
        on_fit = np.abs(raw) <= negligible
        scale, standardized = standardize_residuals(0.0, np.where(on_fit, 0.0, raw), h, n)
    return LtsFit(
        coefficients=beta,
        objective=search.objective,
        h_subset=h_subset,
        raw_residuals=raw,
        robust_scale=scale,
        standardized_residuals=standardized,
        n_csteps_total=search.n_csteps,
        converged=search.converged,
        h=h,
    )


def standardize_residuals(
    objective: float, raw_residuals: np.ndarray, h: int, n: int
) -> tuple[float, np.ndarray]:
    """Robust scale and standardized residuals from a trimmed objective.

    scale = consistency_factor(h, n) * sqrt(objective / h). An exact fit
    (objective 0) yields scale 0; rows with zero residual standardize to 0
    and every other row gets a +/-inf sentinel.
    """
    raw_residuals = np.asarray(raw_residuals, dtype=float)
    scale = consistency_factor(h, n) * math.sqrt(objective / h)
    if scale == 0.0:
        standardized = np.where(
            raw_residuals == 0.0, 0.0, np.where(raw_residuals > 0.0, np.inf, -np.inf)
        )
        return 0.0, standardized
    return scale, raw_residuals / scale

"""Shared numerical primitives: SPD solves, distribution functions, moments.

Everything here is a pure function, safe to call from any thread.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.special import chdtr, chdtri, ndtri, stdtr

from .errors import DomainError, NotPositiveDefinite

# Relative Cholesky pivot below which regressors are reported as collinear.
PIVOT_RTOL = 1e-12


def _pivots_ok(a: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Relative pivot test over the trailing two axes: every L[j, j]**2 > PIVOT_RTOL * max(diag(a)).

    False (including for a NaN factor) is the signature of collinear input.
    """
    smallest_pivot = (low.diagonal(0, -2, -1) ** 2).min(-1)  # NaN if LAPACK failed
    return smallest_pivot > PIVOT_RTOL * a.diagonal(0, -2, -1).max(-1)


def spd_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (T, K, K) stack of symmetric matrices via LAPACK.

    ok[t] is False when a[t] fails the shared pivot test (_pivots_ok, the
    same rule cholesky_spd applies) or LAPACK rejects it; that factor
    becomes the identity, so one bad matrix never fails the others.
    """
    a = np.asarray(a, dtype=float)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:  # LAPACK rejected some matrix: find which
        low = np.full_like(a, np.nan)
        for t, matrix in enumerate(a):
            try:
                low[t] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                pass
    ok = _pivots_ok(a, low)
    low[~ok] = np.eye(a.shape[-1])
    return low, ok


def cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one symmetric matrix via one LAPACK call.

    Raises NotPositiveDefinite when LAPACK rejects the matrix or it fails
    the pivot test of spd_factor; the factor is bit-equal to spd_factor's.
    """
    a = np.asarray(a, dtype=float)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(f"LAPACK Cholesky failed: {err}") from err
    if not _pivots_ok(a, low):
        raise NotPositiveDefinite(f"a Cholesky pivot is at or below {PIVOT_RTOL:g} * max(diag)")
    return low


def cho_apply(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (low @ low.T) x = b for a lower Cholesky factor and a 1-D or 2-D b (LAPACK dpotrs)."""
    x, info = dpotrs(low, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs rejected argument {-info}")
    return x


def factor_determinant(low: np.ndarray) -> np.ndarray:
    """Determinant of L @ L.T from its lower factor (or a stack of factors)."""
    return low.diagonal(0, -2, -1).prod(-1) ** 2


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive-definite a via Cholesky.

    a must be square and symmetric to 1e-10 relative and b finite;
    NotPositiveDefinite signals collinearity (near-zero pivot).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, b has length {b.shape[0]}")
    scale = float(np.max(np.abs(a))) or 1.0
    if not np.allclose(a, a.T, rtol=1e-10, atol=1e-10 * scale):
        raise ValueError("matrix is not symmetric within 1e-10 relative")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    return cho_apply(cholesky_spd(a), b)


def spd_inverse_diag(low: np.ndarray) -> np.ndarray:
    """Diagonal of inv(L @ L.T) given the lower Cholesky factor L."""
    inv_l = solve_triangular(low, np.eye(low.shape[0]), lower=True)
    return np.sum(inv_l * inv_l, axis=0)


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t with df degrees of freedom (regularized incomplete beta)."""
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    return float(stdtr(df, t))


def chi2_cdf(x: float, df: int) -> float:
    """Chi-square CDF with df degrees of freedom."""
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if x <= 0.0:
        return 0.0
    return float(chdtr(df, x))


def chi2_quantile(p: float, df: int) -> float:
    """Inverse chi-square CDF; strictly increasing in p over (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    return float(chdtri(df, 1.0 - p))


def gaussian_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    return float(ndtri(p))


def mean_and_cov(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise mean and sample covariance (denominator n-1) of an n x p matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected an n x p matrix, got shape {x.shape}")
    n, p = x.shape
    if n < p + 1:
        raise ValueError(f"need at least p+1={p + 1} rows for a p={p} covariance, got {n}")
    center = x.sum(axis=0) / n  # what x.mean(axis=0) computes, without its wrapper
    centered = x - center
    scatter = centered.T @ centered / (n - 1)
    return center, (scatter + scatter.T) / 2.0


def determinant(a: np.ndarray) -> float:
    """Determinant of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return float(np.linalg.det(a))

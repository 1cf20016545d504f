"""Shared numerical primitives: SPD solves, distribution functions, moments.

Everything here is a pure function, safe to call from any thread.
"""

from __future__ import annotations

import math
from itertools import count, islice
from statistics import NormalDist

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, NotPositiveDefinite

# Relative Cholesky pivot below which regressors are reported as collinear.
PIVOT_RTOL = 1e-12

_EPS = 2.0**-52  # series and continued fractions stop at this relative change
_TINY = 1e-300  # floor of the modified Lentz algorithm's running terms
_MAX_ITERATIONS = 10_000
_NEWTON_LAST_STEP = 1e-9  # in log(x); Newton's next error is about its square


def finite(name: str, a) -> np.ndarray:
    """a as a float array; ValueError naming it if it holds NaN or an infinity."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def spd_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a float (T, K, K) stack of symmetric matrices via LAPACK.

    ok[t] is False when LAPACK rejects a[t] or it fails the pivot test, every
    L[j, j]**2 > PIVOT_RTOL * a[t][j, j], the signature of collinear input; that factor
    becomes the identity, so one bad matrix never fails the others. L[j, j]**2 / a[j, j]
    is 1 - R**2 of column j on the columns before it, so rescaling a column changes no
    verdict. The factors are stored stack axis innermost (Fortran order), so that
    reductions over their diagonals, here and in factor_determinant, run along the
    stack, not as T reductions over K; the diagonal of a is copied to that layout.
    """
    # No public numpy function factors a stack and reports failures per matrix.
    with np.errstate(all="ignore"):
        low = _umath_linalg.cholesky_lo(a, signature="d->d", out=np.empty(a.shape, order="F"))
    # NaN, where LAPACK failed, fails the comparison
    ok = (low.diagonal(0, -2, -1).T ** 2 > PIVOT_RTOL * a.diagonal(0, -2, -1).T.copy()).all(0)
    if not ok.all():
        low[~ok] = np.eye(a.shape[-1])
    return low, ok


def cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one symmetric matrix: the one-matrix case of spd_factor.

    Raises NotPositiveDefinite where spd_factor rejects the matrix.
    """
    low, ok = spd_factor(np.asarray(a)[None])
    if not ok[0]:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (a squared Cholesky pivot is at or below "
            f"{PIVOT_RTOL:g} times its diagonal entry, or LAPACK rejected it)")
    return low[0]


def substitute(low: np.ndarray, b: np.ndarray | None, back: bool = False) -> np.ndarray:
    """Solve low @ z = b for a lower-triangular factor or a (T, K, K) stack of them.

    With back, also solve low.T @ x = z, so that (low @ low.T) x = b. b is
    a vector or a matrix per factor, or None for the identity, whose
    forward pass skips the upper triangle: row j of inv(low) is zero right
    of column j. Column by column, each unknown is the remaining right-hand
    side times the pivot's reciprocal, as BLAS trsm kernels do. All steps
    are elementwise, so a factor in a stack gets the bits it gets alone.
    """
    low = np.asarray(low, dtype=float)
    n, k, identity = low.ndim, low.shape[-1], b is None
    stack = tuple(range(n - 2))
    # x is (K, M, *stack), no M for a stack of vectors: each step runs along the stack, innermost in low
    if identity:
        x = np.zeros((k, k, *low.shape[:-2]))
        x.reshape(k * k, -1)[:: k + 1] = 1.0  # the diagonal
    else:
        b = np.asarray(b, dtype=float)
        x = np.array(b.reshape(k, -1) if n == 2 else b.transpose(n - 2, *range(n - 1, b.ndim), *stack),
                     order="C")
    factor = low.transpose(n - 2, n - 1, *stack)
    reciprocal = 1.0 / low.diagonal(0, -2, -1).transpose(n - 2, *stack)
    if x.ndim == n:
        factor, reciprocal = factor[:, :, None], reciprocal[:, None]
    for j in range(k):
        row, rest = x[j], x[j + 1 :]
        if identity:  # row j of inv(low) is zero right of column j
            row, rest = row[: j + 1], rest[:, : j + 1]
        row *= reciprocal[j]
        rest -= factor[j + 1 :, j] * row
    for j in reversed(range(k)) if back else ():
        row, rest = x[j], x[:j]
        row *= reciprocal[j]
        rest -= factor[j, :j] * row  # column j of low.T is row j of low
    lead = x.ndim - len(stack)  # K, and M unless b is a stack of vectors
    return np.ascontiguousarray(x.transpose(*range(lead, x.ndim), *range(lead))).reshape(
        low.shape if identity else b.shape)


def cho_apply(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (low @ low.T) x = b for a lower Cholesky factor (or a stack): forward, then back substitution."""
    return substitute(low, b, back=True)


def factor_determinant(low: np.ndarray) -> np.ndarray:
    """Determinant of L @ L.T from its lower factor (or a stack of factors)."""
    root = low.diagonal(0, -2, -1).prod(-1)
    return root * root  # rounds correctly; a scalar's ** 2 is C pow, which need not


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive-definite a via Cholesky.

    a must be square and symmetric to 1e-10 relative and b finite;
    NotPositiveDefinite signals collinearity (near-zero pivot).
    """
    a = np.asarray(a, dtype=float)
    b = finite("right-hand side", b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, b has length {b.shape[0]}")
    scale = float(np.max(np.abs(a))) or 1.0
    if not np.allclose(a, a.T, rtol=1e-10, atol=1e-10 * scale):
        raise ValueError("matrix is not symmetric within 1e-10 relative")
    return cho_apply(cholesky_spd(a), b)


def spd_inverse(low: np.ndarray) -> np.ndarray:
    """inv(L @ L.T) from a lower Cholesky factor L (or a stack): cho_apply on the identity, bit for bit."""
    return substitute(low, None, back=True)


def spd_inverse_diag(low: np.ndarray) -> np.ndarray:
    """Diagonal of inv(L @ L.T) given the lower Cholesky factor L."""
    return np.square(substitute(low, None)).sum(axis=0)  # the column sums of squares of inv(L)


def _gamma_series(a: float, z: float) -> float:
    """S with P(a, z) = z**a e**-z / Gamma(a + 1) * S; for z < a + 1 the terms fall geometrically."""
    term = total = 1.0
    n = a
    while term > total * _EPS:
        n += 1.0
        term *= z / n
        total += term
    return total


def _lentz(b0: float, terms) -> float:
    """b0 + a1/(b1 + a2/(b2 + ...)) over the (a_i, b_i) of terms, by the modified Lentz algorithm."""
    value = c = b0 if abs(b0) >= _TINY else _TINY
    d = 0.0
    for a_i, b_i in islice(terms, _MAX_ITERATIONS):
        d = b_i + a_i * d
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b_i + a_i / c
        c = c if abs(c) >= _TINY else _TINY
        value *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    return value


def _beta_fraction(a: float, b: float, x: float) -> float:
    """C with I_x(a, b) = x**a (1-x)**b / (a B(a, b)) / C; converges fast for x < (a+1)/(a+b+2)."""

    def terms():
        for m in count():
            if m:
                yield m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)), 1.0
            yield -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)), 1.0

    return _lentz(1.0, terms())


def _log_gamma_tail(a: float, u: float, upper: bool) -> tuple[float, float]:
    """log P(a, e**u), or log Q(a, e**u) if upper, and its derivative in u.

    Both are concave in u. A tail is formed as 1 - (the other tail) only
    where it exceeds one half, so neither loses digits.
    """
    z = math.exp(u)
    log_density = a * u - z - math.lgamma(a)  # log of z times the gamma density at z
    if z < a + 1.0:
        log_lower = log_density + math.log(_gamma_series(a, z) / a)
        log_tail = math.log(-math.expm1(log_lower)) if upper else log_lower
    else:
        terms = ((-i * (i - a), z + 2 * i + 1.0 - a) for i in count(1))
        log_upper = log_density - math.log(_lentz(z + 1.0 - a, terms))  # Legendre's fraction
        log_tail = log_upper if upper else math.log(-math.expm1(log_upper))
    slope = math.exp(log_density - log_tail)
    return log_tail, -slope if upper else slope


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t with df degrees of freedom (regularized incomplete beta)."""
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    t = float(t)
    t2 = t * t
    r = t2 / df
    if math.isnan(r) or r == 0.0:  # r underflows only where the CDF is 0.5 to double precision
        return math.nan if math.isnan(r) else 0.5
    # The lower tail is I_x(a, 1/2) / 2 with x = df / (df + t^2); 1 - x is
    # formed as t^2 / (df + t^2), and a * log(x) as -a * log1p(t^2 / df).
    a = 0.5 * df
    x, y = df / (df + t2), t2 / (df + t2)  # y is NaN once t * t overflows; then only x is used
    log_x = -math.log1p(r) if r < math.inf else math.log(df) - 2.0 * math.log(abs(t))
    log_y = math.log(r) + log_x if r < 1.0 else -math.log1p(1.0 / r)
    if a < 50.0:
        log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    else:  # lgamma(a + 1/2) - lgamma(a) by its asymptotic series; the lgamma values would cancel
        log_beta = math.lgamma(0.5) - (
            0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a**3) - 1.0 / (640.0 * a**5))
    front = math.exp(a * log_x + 0.5 * log_y - log_beta)
    # I_x <= 1/2 for t^2 >= 1, and I_y(1/2, a) = 1 - I_x <= 1/2 otherwise: no digits cancel
    if t2 >= 1.0:
        lower = 0.5 * front / (a * _beta_fraction(a, 0.5, x))
    else:
        lower = 0.5 - front / _beta_fraction(0.5, a, y)
    return lower if t < 0.0 else 1.0 - lower


def chi2_cdf(x: float, df: int) -> float:
    """Chi-square CDF with df degrees of freedom."""
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    x = float(x)
    if math.isnan(x) or x <= 0.0:
        return math.nan if math.isnan(x) else 0.0
    if math.isinf(x):
        return 1.0
    return math.exp(_log_gamma_tail(0.5 * df, math.log(x) - math.log(2.0), upper=False)[0])


def chi2_quantile(p: float, df: int) -> float:
    """Inverse chi-square CDF; strictly increasing in p over (0, 1).

    Below the smallest normal float the quantile underflows: for df = 1,
    below p of about 1e-154.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    # Newton on u = log(x / 2) against the smaller tail: log P = log p below
    # the median, log Q = log(1 - p) above it (1 - p is exact there)
    a = 0.5 * df
    upper = p >= 0.5
    target = math.log1p(-p) if upper else math.log(p)
    # P(a, z) <= z**a / Gamma(a + 1), so the lower start is at or below the root
    u = math.log(a + 1.0) if upper else (target + math.lgamma(a + 1.0)) / a
    for _ in range(_MAX_ITERATIONS):
        value, slope = _log_gamma_tail(a, u, upper)
        step = max(-1.0, min(1.0, (target - value) / slope))
        u += step
        if abs(step) <= _NEWTON_LAST_STEP:
            break
    return 2.0 * math.exp(u)


def gaussian_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's AS241, via statistics.NormalDist)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def mean_and_cov(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise mean and sample covariance (denominator n-1) of an n x p matrix or a (T, n, p)
    stack: the bits depend on the values, not the memory layout."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError(f"expected an n x p matrix or a stack of them, got shape {x.shape}")
    n, p = x.shape[-2:]
    if n < p + 1:
        raise ValueError(f"need at least p+1={p + 1} rows for a p={p} covariance, got {n}")
    # Rows outermost, so that each row is added to all T * p sums at once: the order of
    # x.sum(axis=-2), one row after another. At p = 1 that sum runs along a contiguous axis,
    # pairwise, so there the rows stay innermost.
    axis = 0 if p > 1 else -2
    rows = np.ascontiguousarray(np.moveaxis(x, -2, axis))  # may be the caller's own memory
    center = rows.sum(axis=axis) / n
    centered = np.moveaxis(rows - np.expand_dims(center, axis), axis, -2)  # never in place
    scatter = centered.swapaxes(-1, -2) @ centered / (n - 1)
    return center, (scatter + scatter.swapaxes(-1, -2)) / 2.0


def determinant(a: np.ndarray) -> float:
    """Determinant of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return float(np.linalg.det(a))

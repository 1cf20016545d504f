"""Primitives are checked against independent routes: quadrature of the
explicit densities, bisection on erf, and hand cofactor expansions."""

import functools
import math
import operator

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import cho_solve
from scipy.special import chdtr, chdtri, gammaincinv, stdtr

from hibreak import (
    chi2_cdf,
    chi2_quantile,
    determinant,
    exact_lts,
    gaussian_quantile,
    lts_objective,
    mean_and_cov,
    solve_spd,
    student_t_cdf,
)
from hibreak.core_stats import PIVOT_RTOL, cho_apply, cholesky_spd, factor_determinant, spd_factor
from hibreak.core_stats import spd_inverse, substitute
from hibreak.errors import DomainError, NotPositiveDefinite

from conftest import random_regression


# ---------------------------------------------------------------------------
# Independent oracles (quadrature / bisection; no shared code with hibreak)
# ---------------------------------------------------------------------------

def t_cdf_by_quadrature(t, df):
    c = math.gamma((df + 1) / 2) / (math.gamma(df / 2) * math.sqrt(df * math.pi))
    val, _ = quad(lambda u: c * (1 + u * u / df) ** (-(df + 1) / 2), 0.0, t,
                  epsabs=1e-12, epsrel=1e-12)
    return 0.5 + val


def chi2_cdf_by_quadrature(x, k):
    c = 1.0 / (2 ** (k / 2) * math.gamma(k / 2))
    val, _ = quad(lambda u: c * u ** (k / 2 - 1) * math.exp(-u / 2), 0.0, x,
                  epsabs=1e-13, epsrel=1e-13)
    return val


def chi2_quantile_by_bisection(p, k, lo=0.0, hi=400.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_by_quadrature(mid, k) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gaussian_cdf_by_erf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_quantile_by_bisection(p, lo=-40.0, hi=40.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_cdf_by_erf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# solve_spd
# ---------------------------------------------------------------------------

class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=0)

    def test_diagonal(self):
        x = solve_spd(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 5))
        a = m.T @ m + np.eye(5)
        b = rng.normal(size=5)
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.normal(size=(4, 4))
            a = m.T @ m + 0.5 * np.eye(4)
            x_true = rng.normal(size=4)
            x = solve_spd(a, a @ x_true)
            np.testing.assert_allclose(x, x_true, rtol=1e-7, atol=1e-9)

    def test_collinear_raises(self):
        # X'X of a design with a duplicated column has a zero pivot
        col = np.array([1.0, 2.0, 3.0])
        x = np.column_stack([col, col])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(x.T @ x, np.array([1.0, 1.0]))

    def test_small_column_is_judged_at_its_own_scale(self):
        # a pivot is tested against its own diagonal entry, not the largest one
        x = solve_spd(np.diag([1.0, 1e-14, 1.0]), np.array([2.0, 3e-14, 4.0]))
        np.testing.assert_allclose(x, [2.0, 3.0, 4.0], rtol=1e-15)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(3), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("a, b, match", [
        pytest.param(np.ones((2, 3)), np.ones(2), "square matrix", id="non_square"),
        pytest.param(np.eye(2), np.array([1.0, np.inf]), "must be finite", id="non_finite_rhs"),
    ])
    def test_malformed_input_rejected(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            solve_spd(a, b)


# ---------------------------------------------------------------------------
# Scalar Cholesky path (shared by the oracles, the LTS/MCD refit and OLS)
# ---------------------------------------------------------------------------

def random_spd(rng, k):
    m = rng.normal(size=(k + 3, k))
    return m.T @ m


def scalar_cho_solve(low, b):
    """(L L') x = b on Python floats: forward, then back substitution, each
    unknown the remaining right-hand side times its pivot's reciprocal."""
    k = len(b)
    x = list(b)
    for j in range(k):
        x[j] *= 1.0 / low[j][j]
        for i in range(j + 1, k):
            x[i] -= low[i][j] * x[j]
    for j in reversed(range(k)):
        x[j] *= 1.0 / low[j][j]
        for i in range(j):
            x[i] -= low[j][i] * x[j]
    return x


def factor_alone(a):
    """spd_factor's (factor, ok) for one matrix, written per matrix and per pivot."""
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.eye(len(a)), False
    pivots, entries = np.diag(low).tolist(), np.diag(a).tolist()
    if not all(v * v > PIVOT_RTOL * d for v, d in zip(pivots, entries)):  # NaN fails
        return np.eye(len(a)), False
    return low, True


def determinant_alone(low):
    """factor_determinant of one factor: the pivots multiplied in index order, then squared."""
    root = functools.reduce(operator.mul, np.diag(low).tolist())
    return root * root


def reduction_stack(rng, k):
    """SPD matrices at unit, huge and tiny scale, and between them an exactly zero pivot
    (LAPACK rejects it: NaN), a NaN entry (a NaN pivot), a tiny column and, last, a
    near-collinear pair of columns (a tiny pivot against its own diagonal entry; k >= 2)."""
    good = [random_spd(rng, k) for _ in range(3)]
    zero_pivot = np.diag(np.r_[np.ones(k - 1), 0.0])
    nan_entry = good[0].copy()
    nan_entry[-1, -1] = np.nan
    tiny_column = np.diag(np.r_[np.ones(k - 1), 1e-14])
    near = np.eye(k)
    near[-2:, -2:] = 1.0
    near[-1, -1] += 1e-14
    return np.stack([good[0], zero_pivot, good[1] * 1e300, nan_entry, good[2] * 1e-300,
                     tiny_column, good[1], near])


class TestStackReductions:
    @pytest.mark.parametrize("k", [1, 2, 4, 11])
    def test_pivot_test_and_determinant_match_each_matrix(self, rng, k):
        a = reduction_stack(rng, k)
        low, ok = spd_factor(a)
        with np.errstate(over="ignore", under="ignore"):  # a determinant at 1e300 overflows
            det = factor_determinant(low)
            for t, matrix in enumerate(a):
                want_low, want_ok = factor_alone(matrix)
                assert ok[t] == want_ok
                np.testing.assert_array_equal(low[t], want_low)
                assert det[t] == determinant_alone(want_low)
                # one matrix as 2-D input
                alone_low, alone_ok = spd_factor(matrix)
                assert alone_ok == want_ok
                np.testing.assert_array_equal(alone_low, want_low)
                assert factor_determinant(want_low) == det[t]
        assert ok.tolist() == [True, False, True, False, True, True, True, k == 1]


class TestScalarCholesky:
    def test_bit_equal_to_batched_factor(self):
        rng = np.random.default_rng(17)
        for k in range(1, 11):
            for _ in range(5):
                a = random_spd(rng, k)
                low, ok = spd_factor(a[None])
                assert ok[0]
                np.testing.assert_array_equal(cholesky_spd(a), low[0])

    @pytest.mark.parametrize("a", [
        np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),
        np.array([[2.0, np.nan, 0.0], [np.nan, 2.0, 0.0], [0.0, 0.0, 2.0]]),
    ], ids=["singular_outer_product", "tiny_pivot", "nan_entry"])
    def test_rejects_what_the_batched_factor_rejects(self, a):
        _, ok = spd_factor(a[None])
        assert not ok[0]
        with pytest.raises(NotPositiveDefinite):
            cholesky_spd(a)

    @pytest.mark.parametrize("shape", [(4,), (4, 3)], ids=["1d", "2d"])
    def test_solve_bit_equal_to_scalar_substitution(self, shape):
        rng = np.random.default_rng(23)
        for _ in range(10):
            low = cholesky_spd(random_spd(rng, 4))
            b = rng.normal(size=shape)
            x = cho_apply(low, b)
            assert x.shape == shape
            columns = b.reshape(4, -1).T.tolist()
            expected = [scalar_cho_solve(low.tolist(), column) for column in columns]
            np.testing.assert_array_equal(x, np.array(expected).T.reshape(shape))
            np.testing.assert_allclose(x, cho_solve((low, True), b), rtol=1e-13)

    def test_stacked_substitution_bit_equal_to_each_factor(self):
        rng = np.random.default_rng(31)
        low = np.array([cholesky_spd(random_spd(rng, 5)) for _ in range(12)])
        vectors, matrices = rng.normal(size=(12, 5)), rng.normal(size=(12, 5, 3))
        for stack in (low, np.asfortranarray(low)):  # C order, and spd_factor's stack innermost
            for b in (vectors, matrices):
                for back in (False, True):
                    stacked = substitute(stack, b, back)
                    for t in range(12):
                        np.testing.assert_array_equal(stacked[t], substitute(low[t], b[t], back))

    @pytest.mark.parametrize("t", [1, 7, 98])
    @pytest.mark.parametrize("k", [1, 2, 4, 10, 11])
    def test_spd_inverse_bit_equal_to_identity_solves(self, t, k):
        rng = np.random.default_rng(37)
        a = np.array([random_spd(rng, k) for _ in range(t)])
        if t > 1:
            a[t // 2] = np.diag(np.r_[np.ones(k - 1), 0.0])  # LAPACK rejects it: the identity factor
        low, ok = spd_factor(a)
        assert low.flags.f_contiguous and ok.tolist() == [t == 1 or i != t // 2 for i in range(t)]
        inverse = spd_inverse(low)
        assert inverse.tobytes() == cho_apply(low, np.broadcast_to(np.eye(k), low.shape)).tobytes()
        for i in range(t):
            columns = [scalar_cho_solve(low[i].tolist(), column) for column in np.eye(k).tolist()]
            assert inverse[i].tobytes() == np.array(columns).T.tobytes()

    def test_exact_lts_objective_matches_lts_objective(self):
        rng = np.random.default_rng(29)
        for n, k, h in [(8, 2, 6), (10, 3, 7), (12, 2, 9)]:
            data = random_regression(rng, n, k, outlier_fraction=0.2)
            result = exact_lts(data, h)
            assert result.best_objective == lts_objective(data, result.coefficients_or_moments, h)


# ---------------------------------------------------------------------------
# Student-t CDF
# ---------------------------------------------------------------------------

class TestStudentTCdf:
    def test_center(self):
        assert student_t_cdf(0.0, 10) == 0.5

    def test_saturation(self):
        assert abs(student_t_cdf(1e6, 5) - 1.0) <= 1e-9
        assert student_t_cdf(-1e6, 5) <= 1e-9

    def test_against_quadrature(self):
        # frozen from t_cdf_by_quadrature(2.0, 20)
        assert abs(student_t_cdf(2.0, 20) - 0.9703672322767145) <= 1e-8
        for t, df in [(0.5, 3), (1.3, 7), (2.7, 12), (-1.8, 4)]:
            assert abs(student_t_cdf(t, df) - t_cdf_by_quadrature(t, df)) <= 1e-8

    def test_symmetry(self):
        for t in (0.3, 1.1, 2.9):
            assert abs(student_t_cdf(-t, 9) - (1.0 - student_t_cdf(t, 9))) <= 1e-14

    def test_monotone(self):
        grid = np.linspace(-6, 6, 41)
        vals = [student_t_cdf(t, 6) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_large_df_approaches_gaussian(self):
        grid = np.linspace(-4, 4, 81)
        sup = max(abs(student_t_cdf(t, 1000) - gaussian_cdf_by_erf(t)) for t in grid)
        assert sup <= 1e-3

    def test_bad_df(self):
        with pytest.raises(DomainError):
            student_t_cdf(1.0, 0)

    @pytest.mark.parametrize("df", [1, 2])
    def test_closed_forms(self, df):
        def exact(t):  # lower tails without cancellation: atan(1/|t|)/pi, 1/(s (s + |t|))
            if df == 1:
                return math.atan(-1.0 / t) / math.pi if t < 0 else 0.5 + math.atan(t) / math.pi
            s = math.sqrt(2.0 + t * t)
            return 1.0 / (s * (s - t)) if t < 0 else 0.5 + t / (2.0 * s)

        for magnitude in np.geomspace(1e-8, 1e3, 89):
            for t in (-magnitude, magnitude):
                assert student_t_cdf(t, df) == pytest.approx(exact(t), rel=1e-13, abs=0)

    @pytest.mark.parametrize("df", [1, 3, 7, 30, 100, 1000])
    def test_against_stdtr(self, df):
        for magnitude in np.geomspace(1e-3, 1e3, 49):
            for t in (-magnitude, magnitude):
                # stdtr underflows to 0 in the far tail at df = 1000
                np.testing.assert_allclose(student_t_cdf(t, df), stdtr(df, t), rtol=1e-10,
                                           atol=np.finfo(float).tiny)

    def test_lower_tail_near_the_center_at_large_df(self):
        # 0.04 to 0.16 here; as 1/2 - I_y(1/2, df/2) / 2 the value would lose
        # about one digit to cancellation
        for t in np.linspace(-1.75, -1.0, 31):
            assert student_t_cdf(t, 2000) == pytest.approx(stdtr(2000, t), rel=3e-12, abs=0)

    @pytest.mark.parametrize("df", [996, 4996, 20000])
    def test_against_stdtr_at_large_df(self, df):
        # as lgamma(a) - lgamma(a + 1/2) the Beta prefactor would lose about
        # log10(df / 2) digits: 3e-11 relative at df = 20000
        for t in np.linspace(-8.0, 8.0, 321):
            assert student_t_cdf(t, df) == pytest.approx(stdtr(df, t), rel=3e-12, abs=0)

    def test_edges(self):
        assert student_t_cdf(-math.inf, 3) == 0.0
        assert student_t_cdf(math.inf, 3) == 1.0
        assert math.isnan(student_t_cdf(math.nan, 3))
        assert student_t_cdf(-1e-200, 3) == 0.5
        # 1 / (pi |t|) for df = 1, also where t * t overflows
        assert student_t_cdf(-1e200, 1) == pytest.approx(1.0 / (math.pi * 1e200), rel=1e-13, abs=0)
        assert student_t_cdf(1e200, 1) == 1.0
        assert student_t_cdf(-1e3, 1000) == 0.0


# ---------------------------------------------------------------------------
# chi-square quantile / CDF
# ---------------------------------------------------------------------------

class TestChi2:
    def test_round_trip(self):
        for p in (0.1, 0.5, 0.975):
            for k in range(1, 7):
                assert abs(chi2_cdf(chi2_quantile(p, k), k) - p) <= 1e-7

    def test_against_bisection_oracle(self):
        # frozen from chi2_quantile_by_bisection
        assert abs(chi2_quantile(0.975, 2) - 7.377758908227873) <= 1e-6
        assert abs(chi2_quantile(0.975, 3) - 9.34840360449611) <= 1e-6

    def test_oracle_live(self):
        for p, k in [(0.3, 1), (0.9, 4), (0.975, 5)]:
            assert abs(chi2_quantile(p, k) - chi2_quantile_by_bisection(p, k)) <= 1e-6

    def test_strictly_increasing(self):
        qs = [chi2_quantile(p, 3) for p in np.linspace(0.01, 0.99, 25)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_bad_df(self):
        with pytest.raises(DomainError):
            chi2_cdf(1.0, 0)

    def test_cdf_against_chdtr(self):
        for df in range(1, 31):
            for x in np.geomspace(1e-6, 200.0, 41):
                assert chi2_cdf(x, df) == pytest.approx(chdtr(df, x), rel=1e-12, abs=0)

    def test_cdf_edges(self):
        assert chi2_cdf(math.inf, 3) == 1.0
        assert math.isnan(chi2_cdf(math.nan, 3))
        assert chi2_cdf(0.0, 3) == 0.0
        assert chi2_cdf(-math.inf, 3) == 0.0
        assert chi2_cdf(1e300, 1000) == 1.0
        # P(1/2, z) = erf(sqrt(z)) ~ 2 sqrt(z / pi), also where x / 2 underflows
        expected = math.sqrt(2.0 / math.pi) * math.sqrt(5e-324)
        assert chi2_cdf(5e-324, 1) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 100, 1000])
    def test_quantile_both_tails(self, df):
        # gammaincinv inverts the lower tail; for p >= 1/2, 1 - p is exact and
        # chdtri inverts the upper tail. Below the smallest normal float the
        # quantile is only required to underflow alike.
        tiny = np.finfo(float).tiny
        lower = np.geomspace(1e-300, 0.5, 121, endpoint=False)
        upper = 1.0 - np.geomspace(0.5, 2.0**-53, 54)
        for p in lower:
            ref = 2.0 * gammaincinv(df / 2.0, p)
            np.testing.assert_allclose(chi2_quantile(p, df), ref, rtol=1e-12, atol=tiny)
            if df == 2:
                assert chi2_quantile(p, df) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-12, abs=0)
        for p in upper:
            ref = chdtri(df, 1.0 - p)
            np.testing.assert_allclose(chi2_quantile(p, df), ref, rtol=1e-12)
            if df == 2:
                assert chi2_quantile(p, df) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-12, abs=0)

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 1000])
    def test_strictly_increasing_into_both_tails(self, df):
        # for df = 1 the quantile, about p^2 pi / 2, underflows below p = 1e-154
        smallest = 1e-150 if df == 1 else 1e-300
        upper = 1.0 - np.geomspace(0.49, 2.0**-53, 100)
        grid = np.unique(np.concatenate([np.geomspace(smallest, 0.5, 200), upper]))
        qs = [chi2_quantile(p, df) for p in grid]
        assert all(0.0 < a < b for a, b in zip(qs, qs[1:]))

    def test_quantile_tiny_p(self):
        # the exact lower tail for df = 1 is (pi / 2) p^2 (1 + O(p^2))
        for p in (1e-17, 1e-12):
            assert chi2_quantile(p, 1) == pytest.approx(math.pi / 2.0 * p * p, rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 2)
        with pytest.raises(DomainError):
            chi2_quantile(1.0, 2)
        with pytest.raises(DomainError):
            chi2_quantile(-0.2, 2)


# ---------------------------------------------------------------------------
# Gaussian quantile
# ---------------------------------------------------------------------------

class TestGaussianQuantile:
    def test_center(self):
        assert gaussian_quantile(0.5) == 0.0

    def test_upper_tail(self):
        # frozen from gaussian_quantile_by_bisection(0.975)
        assert abs(gaussian_quantile(0.975) - 1.9599639845400536) <= 1e-9

    def test_round_trip(self):
        for p in (0.01, 0.25, 0.6, 0.99):
            assert abs(gaussian_cdf_by_erf(gaussian_quantile(p)) - p) <= 1e-9

    def test_antisymmetry(self):
        assert abs(gaussian_quantile(0.25) + gaussian_quantile(0.75)) <= 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_quantile(1.0)
        with pytest.raises(DomainError):
            gaussian_quantile(0.0)


# ---------------------------------------------------------------------------
# moments and determinant
# ---------------------------------------------------------------------------

class TestMeanAndCov:
    def test_identical_rows(self):
        center, scatter = mean_and_cov(np.array([[3.0], [3.0]]))
        np.testing.assert_allclose(center, [3.0])
        np.testing.assert_allclose(scatter, np.zeros((1, 1)))
        center, scatter = mean_and_cov(np.array([[1.0, 2.0]] * 3))
        np.testing.assert_allclose(center, [1.0, 2.0])
        np.testing.assert_allclose(scatter, np.zeros((2, 2)))

    def test_square_corners(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        center, scatter = mean_and_cov(x)
        np.testing.assert_allclose(center, [1.0, 1.0])
        np.testing.assert_allclose(scatter, [[4.0 / 3.0, 0.0], [0.0, 4.0 / 3.0]])

    def test_single_column(self):
        _, scatter = mean_and_cov(np.arange(1.0, 6.0).reshape(-1, 1))
        assert abs(scatter[0, 0] - 2.5) <= 1e-12

    def test_symmetric(self, rng):
        x = rng.normal(size=(20, 4))
        _, scatter = mean_and_cov(x)
        np.testing.assert_array_equal(scatter, scatter.T)

    def test_matches_numpy(self, rng):
        x = rng.normal(size=(15, 3))
        center, scatter = mean_and_cov(x)
        np.testing.assert_allclose(center, x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(scatter, np.cov(x, rowvar=False, ddof=1), rtol=1e-10)

    def test_stack_matches_each_matrix_bit_for_bit(self, rng):
        def rows_innermost(x):  # the formula written out: a numpy that reorders its sum fails here
            x = np.ascontiguousarray(x)
            n = x.shape[-2]
            center = x.sum(axis=-2) / n
            centered = x - center[..., None, :]
            scatter = centered.swapaxes(-1, -2) @ centered / (n - 1)
            return center, (scatter + scatter.swapaxes(-1, -2)) / 2.0

        for p in (1, 2, 10):
            for n_stack in (1, 300):
                for m in sorted({p + 1, max(p + 1, 9), 130, 300}):
                    rows_outermost = rng.normal(size=(m, n_stack, p)) * 1e3 + 7.0
                    x = np.ascontiguousarray(rows_outermost.swapaxes(0, 1))
                    alone = [mean_and_cov(x[t]) for t in range(n_stack)]
                    expected = rows_innermost(x)
                    # the memory layout moves no bit
                    for stack in (x, np.asfortranarray(x), rows_outermost.swapaxes(0, 1)):
                        before = stack.copy()
                        center, scatter = mean_and_cov(stack)
                        np.testing.assert_array_equal(stack, before)  # the input is not written
                        assert center.shape == (n_stack, p) and scatter.shape == (n_stack, p, p)
                        assert center.tobytes() == expected[0].tobytes()
                        assert scatter.tobytes() == expected[1].tobytes()
                        for t in range(n_stack):
                            assert center[t].tobytes() == alone[t][0].tobytes()
                            assert scatter[t].tobytes() == alone[t][1].tobytes()
                    for t in (0, n_stack - 1):  # one matrix in Fortran order
                        center, scatter = mean_and_cov(np.asfortranarray(x[t]))
                        assert center.tobytes() == alone[t][0].tobytes()
                        assert scatter.tobytes() == alone[t][1].tobytes()

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            mean_and_cov(np.ones((2, 2)))
        with pytest.raises(ValueError):
            mean_and_cov(np.ones((4, 2, 2)))

    def test_not_two_dimensional(self):
        with pytest.raises(ValueError, match="n x p matrix"):
            mean_and_cov(np.arange(5.0))


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert abs(determinant(np.diag([2.0, 3.0])) - 6.0) <= 1e-12

    def test_cofactor_hand_case(self):
        assert abs(determinant(np.array([[1.0, 2.0], [3.0, 4.0]])) - (-2.0)) <= 1e-12

    def test_product_rule(self, rng):
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            lhs = determinant(a @ b)
            rhs = determinant(a) * determinant(b)
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)

    def test_not_square(self):
        with pytest.raises(ValueError):
            determinant(np.ones((2, 3)))

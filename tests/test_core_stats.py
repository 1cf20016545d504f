"""Primitives are checked against independent routes: quadrature of the
explicit densities, bisection on erf, and hand cofactor expansions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import cho_solve

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
from hibreak.core_stats import cho_apply, cholesky_spd, spd_factor
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

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(3), np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Scalar Cholesky path (shared by the oracles, the LTS/MCD refit and OLS)
# ---------------------------------------------------------------------------

def random_spd(rng, k):
    m = rng.normal(size=(k + 3, k))
    return m.T @ m


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
        np.diag([1.0, 1e-14, 1.0]),
        np.array([[2.0, np.nan, 0.0], [np.nan, 2.0, 0.0], [0.0, 0.0, 2.0]]),
    ], ids=["singular_outer_product", "tiny_pivot", "nan_entry"])
    def test_rejects_what_the_batched_factor_rejects(self, a):
        _, ok = spd_factor(a[None])
        assert not ok[0]
        with pytest.raises(NotPositiveDefinite):
            cholesky_spd(a)

    @pytest.mark.parametrize("shape", [(4,), (4, 3)], ids=["1d", "2d"])
    def test_solve_bit_equal_to_cho_solve(self, shape):
        rng = np.random.default_rng(23)
        for _ in range(10):
            low = cholesky_spd(random_spd(rng, 4))
            b = rng.normal(size=shape)
            x = cho_apply(low, b)
            assert x.shape == shape
            np.testing.assert_array_equal(x, cho_solve((low, True), b))

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

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            mean_and_cov(np.ones((2, 2)))


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

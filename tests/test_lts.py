import numpy as np
import pytest

from hibreak import (
    LtsConfig,
    c_step,
    exact_lts,
    fit_lts,
    fit_ols,
    lts_objective,
    standardize_residuals,
)
from hibreak.errors import AllStartsDegenerate, NotPositiveDefinite
from hibreak.lts import consistency_factor, trimmed_size

from conftest import make_dataset, random_regression


def staircase_dataset():
    # y=(0,1,2,100) on x=(0,1,2,3): rows 0..2 sit on the line y=x
    return make_dataset([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 100.0])


class TestLtsObjective:
    def test_no_trimming_is_rss(self, rng):
        data = random_regression(rng, 20, 3)
        beta = rng.normal(size=3)
        r = data.response_vector() - data.design_matrix() @ beta
        assert np.isclose(lts_objective(data, beta, 20), float(r @ r), rtol=1e-12)

    def test_outlier_trimmed_to_zero(self):
        data = make_dataset(
            np.ones(3), [0.0, 0.0, 100.0], has_intercept=False
        )
        assert lts_objective(data, np.array([0.0]), 2) == 0.0

    def test_matches_sort_then_prefix_sum(self, rng):
        # reference built directly from the ordered-residual definition
        for _ in range(20):
            data = random_regression(rng, 12, 2)
            beta = rng.normal(size=2)
            h = int(rng.integers(3, 13))
            r2 = (data.response_vector() - data.design_matrix() @ beta) ** 2
            reference = float(np.sort(r2)[:h].sum())
            assert np.isclose(lts_objective(data, beta, h), reference, rtol=1e-12)

    def test_h_out_of_range(self, rng):
        data = random_regression(rng, 10, 2)
        with pytest.raises(ValueError):
            lts_objective(data, np.zeros(2), 0)


class TestCStep:
    def test_hand_verified_trajectory(self):
        # From beta=(0,33): residuals (0,-32,-64,1), squares (0,1024,4096,1),
        # so the step selects rows {0,1,3}; OLS through (0,0),(1,1),(3,100)
        # is beta=(-97/7, 499/14) and the trimmed objective there is 9409/14.
        data = staircase_dataset()
        beta1, obj1, subset1 = c_step(data, np.array([0.0, 33.0]), 3)
        np.testing.assert_array_equal(subset1, [0, 1, 3])
        np.testing.assert_allclose(beta1, [-97.0 / 7.0, 499.0 / 14.0], rtol=1e-12)
        assert np.isclose(obj1, 9409.0 / 14.0, rtol=1e-12)
        assert obj1 <= lts_objective(data, np.array([0.0, 33.0]), 3)
        # the second step re-selects {0,1,3}: a fixed point, not the optimum
        beta2, obj2, subset2 = c_step(data, beta1, 3)
        np.testing.assert_array_equal(subset2, [0, 1, 3])
        np.testing.assert_allclose(beta2, beta1, rtol=1e-12)
        assert obj2 == obj1

    def test_fixed_point_idempotence(self, rng):
        data = random_regression(rng, 15, 2)
        beta = fit_ols(data).coefficients
        new_beta, obj, _ = c_step(data, beta, 15)
        np.testing.assert_array_equal(new_beta, beta)
        new_beta2, obj2, _ = c_step(data, new_beta, 15)
        assert obj2 == obj

    def test_monotone_chains(self, rng):
        # objective never increases across a step, exact comparison
        for _ in range(100):
            n = int(rng.integers(8, 16))
            data = random_regression(rng, n, 2, outlier_fraction=0.2)
            h = trimmed_size(n, 2, 0.25)
            beta = rng.normal(size=2) * 5.0
            prev = lts_objective(data, beta, h)
            for _ in range(12):
                beta, obj, _ = c_step(data, beta, h)
                assert obj <= prev
                prev = obj

    def test_collinear_subset_raises(self):
        # duplicated predictor values make every selected subset collinear
        x = np.ones(6)
        data = make_dataset(x, np.arange(6.0))
        with pytest.raises(NotPositiveDefinite):
            c_step(data, np.array([0.0, 0.0]), 4)

    @pytest.mark.parametrize("h", [-1, 0, 21])
    def test_h_out_of_range(self, rng, h):
        # h = -1 used to partition at kth = -2 and return an 18-row step
        data = random_regression(rng, 20, 3)
        with pytest.raises(ValueError, match=r"h must lie in \[1, 20\]"):
            c_step(data, np.zeros(3), h)


class TestFitLts:
    def test_no_trimming_equals_ols(self, rng):
        data = random_regression(rng, 25, 3)
        lts = fit_lts(data, LtsConfig(alpha=0.0))
        ols = fit_ols(data)
        np.testing.assert_allclose(lts.coefficients, ols.coefficients, rtol=1e-8)
        assert lts.converged

    def test_planted_line_recovery(self):
        rng = np.random.default_rng(99)
        x = rng.uniform(0, 10, size=50)
        y = 2.0 + 3.0 * x + rng.normal(scale=0.1, size=50)
        y[rng.choice(50, size=15, replace=False)] = -50.0
        fit = fit_lts(make_dataset(x, y), LtsConfig(alpha=0.3, seed=5))
        assert 2.9 <= fit.coefficients[1] <= 3.1

    def test_never_beats_oracle_small_instances(self, rng):
        wins = 0
        for _ in range(40):
            n = int(rng.integers(8, 13))
            data = random_regression(rng, n, 2, outlier_fraction=0.25)
            h = trimmed_size(n, 2, 0.25)
            fit = fit_lts(data, LtsConfig(alpha=0.25))
            exact = exact_lts(data, h)
            assert fit.objective >= exact.best_objective
            if fit.objective <= exact.best_objective * (1.0 + 1e-6):
                wins += 1
        assert wins >= 38  # >= 95%

    def test_regression_equivariance(self, rng):
        data = random_regression(rng, 14, 2, outlier_fraction=0.2)
        v = np.array([1.5, -2.0])
        shifted = make_dataset(
            data.predictor_matrix(), data.response_vector() + data.design_matrix() @ v
        )
        base = fit_lts(data, LtsConfig(alpha=0.25, seed=3))
        moved = fit_lts(shifted, LtsConfig(alpha=0.25, seed=3))
        np.testing.assert_allclose(moved.coefficients, base.coefficients + v, rtol=1e-8)
        np.testing.assert_array_equal(moved.h_subset, base.h_subset)

    def test_scale_equivariance(self, rng):
        data = random_regression(rng, 14, 2, outlier_fraction=0.2)
        c = 4.0
        scaled = make_dataset(data.predictor_matrix(), c * data.response_vector())
        base = fit_lts(data, LtsConfig(alpha=0.25, seed=3))
        moved = fit_lts(scaled, LtsConfig(alpha=0.25, seed=3))
        np.testing.assert_allclose(moved.coefficients, c * base.coefficients, rtol=1e-8)
        np.testing.assert_allclose(moved.robust_scale, c * base.robust_scale, rtol=1e-8)
        np.testing.assert_allclose(
            moved.standardized_residuals, base.standardized_residuals, rtol=1e-7
        )
        np.testing.assert_array_equal(moved.h_subset, base.h_subset)

    def test_breakdown_contrast(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-5, 5, size=60)
        y = 2.0 + 3.0 * x + rng.normal(scale=0.2, size=60)
        corrupt = rng.choice(60, size=15, replace=False)  # 25% of rows
        y_bad = y.copy()
        y_bad[corrupt] = 1e6
        clean_fit = fit_lts(make_dataset(x, y), LtsConfig(alpha=0.3, seed=1))
        robust_fit = fit_lts(make_dataset(x, y_bad), LtsConfig(alpha=0.3, seed=1))
        assert abs(robust_fit.coefficients[1] - clean_fit.coefficients[1]) < 0.2
        ols_bad = fit_ols(make_dataset(x, y_bad))
        assert abs(ols_bad.coefficients[1] - 3.0) > 10.0

    def test_objective_matches_h_smallest_invariant(self, rng):
        data = random_regression(rng, 30, 3, outlier_fraction=0.2)
        fit = fit_lts(data, LtsConfig(alpha=0.25, seed=2))
        r2 = fit.raw_residuals**2
        assert np.isclose(fit.objective, np.sort(r2)[: fit.h].sum(), rtol=1e-10)
        assert len(fit.h_subset) == fit.h
        # the subset attains the h smallest squared residuals
        assert np.isclose(r2[fit.h_subset].sum(), fit.objective, rtol=1e-10)

    def test_deterministic_given_seed(self, rng):
        data = random_regression(rng, 40, 3, outlier_fraction=0.25)
        a = fit_lts(data, LtsConfig(alpha=0.25, seed=9))
        b = fit_lts(data, LtsConfig(alpha=0.25, seed=9))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(a.h_subset, b.h_subset)
        assert a.objective == b.objective

    def test_exact_fit_sentinels(self):
        x = np.arange(10.0)
        y = x.copy()
        y[7] = 50.0
        fit = fit_lts(make_dataset(x, y), LtsConfig(alpha=0.2, seed=0))
        assert fit.objective == 0.0
        assert fit.robust_scale == 0.0
        assert np.isposinf(fit.standardized_residuals[7])
        on_line = np.delete(np.arange(10), 7)
        np.testing.assert_array_equal(fit.standardized_residuals[on_line], 0.0)

    @pytest.mark.parametrize("magnitude", [1e-6, 1.0, 1e6])
    def test_exact_fit_up_to_rounding(self, magnitude):
        # y = 3.7x + 1.3 with three rows shifted off the line; rounding leaves
        # residuals of about 1e-16 * |y| on the line, which must not set the scale
        x = np.arange(30.0)
        y = magnitude * (3.7 * x + 1.3)
        shifted = [4, 12, 25]
        shift = magnitude * np.array([20.0, -15.0, 30.0])
        y[shifted] += shift
        data = make_dataset(x, y)
        fit = fit_lts(data, LtsConfig(seed=0))
        assert fit.robust_scale == 0.0
        sentinels = fit.standardized_residuals[shifted]
        np.testing.assert_array_equal(sentinels, [np.inf, -np.inf, np.inf])
        on_line = np.delete(np.arange(30), shifted)
        np.testing.assert_array_equal(fit.standardized_residuals[on_line], 0.0)
        raw = data.response_vector() - data.design_matrix() @ fit.coefficients
        np.testing.assert_array_equal(fit.raw_residuals, raw)
        np.testing.assert_allclose(fit.raw_residuals[shifted], shift)

    def test_all_starts_degenerate(self):
        data = make_dataset(np.ones(8), np.arange(8.0))
        with pytest.raises(AllStartsDegenerate):
            fit_lts(data, LtsConfig(alpha=0.25))

    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_objective_past_the_float_range_degenerates(self, scale):
        # pytest turns a RuntimeWarning into an error, so the overflow must stay silent
        x, y = np.random.default_rng(0).standard_normal((2, 30))
        if scale == 1e160:  # X'X overflows
            with pytest.raises(AllStartsDegenerate):
                fit_lts(make_dataset(x * scale, y * scale))
            return
        # at 1e150 the objective, about 1e301, is still finite: the fit is the unscaled one
        fit, big = fit_lts(make_dataset(x, y)), fit_lts(make_dataset(x * scale, y * scale))
        np.testing.assert_array_equal(big.h_subset, fit.h_subset)
        np.testing.assert_allclose(big.coefficients, fit.coefficients * [scale, 1.0], rtol=1e-9)
        assert np.isclose(big.objective, fit.objective * scale**2, rtol=1e-9)

    def test_csteps_counted_and_converged(self, rng):
        data = random_regression(rng, 40, 2, outlier_fraction=0.2)
        fit = fit_lts(data, LtsConfig(alpha=0.25, seed=4))
        assert fit.n_csteps_total > 0
        assert fit.converged


class TestTrimmedSize:
    def test_formula(self):
        assert trimmed_size(100, 2, 0.25) == 75
        assert trimmed_size(61, 5, 0.25) == 46
        assert trimmed_size(10, 2, 0.0) == 10

    def test_clamped_to_k_plus_one(self):
        assert trimmed_size(8, 5, 0.5) == 6


class TestStandardizeResiduals:
    def test_no_trim_factor_is_one(self, rng):
        assert consistency_factor(20, 20) == 1.0
        raw = rng.normal(size=20)
        rss = float(raw @ raw)
        scale, std = standardize_residuals(rss, raw, 20, 20)
        assert np.isclose(scale, np.sqrt(rss / 20), rtol=1e-12)
        np.testing.assert_allclose(std, raw / scale, rtol=1e-12)

    def test_factor_against_closed_form(self):
        # for q=0.75: k=Phi^-1(0.875), c = 1/sqrt(1 - 2 k phi(k)/q);
        # frozen from an erf/bisection evaluation of that expression
        assert np.isclose(consistency_factor(75, 100), 1.6472786958421826, rtol=1e-10)
        assert consistency_factor(50, 100) > consistency_factor(90, 100) > 1.0

    def test_gaussian_calibration(self):
        # clean unit-normal responses, intercept-only model: the 2.5 band
        # should flag only a few percent (nominal rate about 1.24%)
        rng = np.random.default_rng(31)
        n = 5000
        y = rng.normal(size=n)
        data = make_dataset(np.ones(n), y, has_intercept=False)
        fit = fit_lts(data, LtsConfig(alpha=0.25, seed=8))
        assert np.mean(np.abs(fit.standardized_residuals) > 2.5) <= 0.03
        assert 0.9 <= fit.robust_scale <= 1.1

    def test_flags_severe_outlier_at_band(self):
        scale_target = 2.0
        raw = np.array([0.1, -0.2, -5.41 * scale_target])
        objective = scale_target**2 * 2 / consistency_factor(2, 3) ** 2
        scale, std = standardize_residuals(objective, raw, 2, 3)
        assert abs(std[2]) > 2.5

    def test_zero_objective_sentinels(self):
        raw = np.array([0.0, 0.0, 3.0, -4.0])
        scale, std = standardize_residuals(0.0, raw, 2, 4)
        assert scale == 0.0
        np.testing.assert_array_equal(std[:2], 0.0)
        assert np.isposinf(std[2]) and np.isneginf(std[3])

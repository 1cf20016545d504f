from dataclasses import replace

import numpy as np
import pytest

from hibreak import Dataset, fit_ols, predict
from hibreak.errors import MissingColumn, NotPositiveDefinite, TooFewRows
from hibreak.ols import t_and_p

from conftest import make_dataset, random_regression


class TestFitOls:
    def test_exact_linear_fit(self):
        x = np.arange(5.0)
        fit = fit_ols(make_dataset(x, 2.0 * x + 1.0))
        np.testing.assert_allclose(fit.coefficients, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)
        assert fit.r_squared == 1.0

    def test_hand_solved_normal_equations(self):
        # 2x2 normal equations for (0,0),(1,1),(2,1),(3,2):
        # [[4,6],[6,14]] beta = [4,9]  ->  beta = (0.1, 0.6)
        fit = fit_ols(make_dataset([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0]))
        np.testing.assert_allclose(fit.coefficients, [0.1, 0.6], rtol=1e-12)

    def test_t_is_coeff_over_se(self, rng):
        fit = fit_ols(random_regression(rng, 30, 3))
        np.testing.assert_allclose(
            fit.t_values, fit.coefficients / fit.standard_errors, rtol=1e-12
        )

    def test_published_t_ratios(self):
        # growth-regression coefficient/SE pairs with internally consistent
        # printed t values at two decimals
        cases = [
            (4.78, 1.37, 3.49),
            (0.265, 0.0653, 4.06),
            (-0.030, 0.1984, -0.15),
            (-3.59, 8.58, -0.42),
            (-1.05, 1.15, -0.91),
            (-2.97, 1.16, -2.56),
            (3.26, 7.82, 0.42),
        ]
        coeffs = np.array([c for c, _, _ in cases])
        ses = np.array([s for _, s, _ in cases])
        t, p = t_and_p(coeffs, ses, 25)
        for (_, _, printed), computed in zip(cases, t):
            assert round(float(computed), 2) == printed
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_p_values_in_range_and_residual_sum(self, rng):
        fit = fit_ols(random_regression(rng, 40, 4))
        assert np.all((fit.p_values >= 0.0) & (fit.p_values <= 1.0))
        assert abs(fit.residuals.sum()) <= 1e-8 * np.abs(fit.residuals).max()

    def test_orthogonality(self, rng):
        data = random_regression(rng, 50, 3)
        fit = fit_ols(data)
        x = data.design_matrix()
        y = data.response_vector()
        assert np.linalg.norm(x.T @ fit.residuals) <= 1e-8 * np.linalg.norm(y)

    def test_regression_equivariance(self, rng):
        data = random_regression(rng, 35, 3)
        v = rng.normal(size=3)
        shifted = make_dataset(
            data.predictor_matrix(), data.response_vector() + data.design_matrix() @ v
        )
        base = fit_ols(data)
        moved = fit_ols(shifted)
        np.testing.assert_allclose(moved.coefficients, base.coefficients + v, rtol=1e-8)

    def test_scale_equivariance(self, rng):
        data = random_regression(rng, 35, 3)
        scaled = make_dataset(data.predictor_matrix(), 3.5 * data.response_vector())
        base = fit_ols(data)
        moved = fit_ols(scaled)
        np.testing.assert_allclose(moved.coefficients, 3.5 * base.coefficients, rtol=1e-8)
        np.testing.assert_allclose(moved.r_squared, base.r_squared, rtol=1e-8)
        np.testing.assert_allclose(moved.t_values, base.t_values, rtol=1e-8)

    def test_exclusion_matches_physical_reduction(self, rng):
        data = random_regression(rng, 25, 3)
        exclude = {data.row_labels[3], data.row_labels[17]}
        keep = np.array([i for i, lab in enumerate(data.row_labels) if lab not in exclude])
        full = fit_ols(data, exclude=exclude)
        reduced = fit_ols(data.subset(keep))
        np.testing.assert_array_equal(full.coefficients, reduced.coefficients)
        np.testing.assert_array_equal(full.standard_errors, reduced.standard_errors)
        assert full.n_used == reduced.n_used == 23

    def test_unknown_exclude_label(self, rng):
        with pytest.raises(KeyError):
            fit_ols(random_regression(rng, 20, 2), exclude={"nope"})

    def test_collinear_raises(self):
        x = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
        with pytest.raises(NotPositiveDefinite):
            fit_ols(make_dataset(x, np.arange(6.0)))

    def test_too_few_rows_after_exclusion(self, rng):
        data = random_regression(rng, 5, 3)
        with pytest.raises(TooFewRows):
            fit_ols(data, exclude=set(data.row_labels[:2]))

    def test_f_value_intercept_only(self, rng):
        data = Dataset(
            row_labels=("a", "b", "c", "d"),
            column_names=("y", "x1"),
            response="y",
            predictors=("x1",),
            values=np.column_stack([rng.normal(size=4), np.ones(4)]),
            has_intercept=False,
        )
        fit = fit_ols(data)
        assert fit.f_value >= 0.0

    def test_f_value_of_a_true_intercept_only_fit(self):
        data = Dataset(
            row_labels=("a", "b", "c", "d"),
            column_names=("y",),
            response="y",
            predictors=(),
            values=np.array([[1.0], [2.0], [4.0], [3.5]]),
        )
        fit = fit_ols(data)
        assert fit.coefficient_names == ("const",)
        assert fit.f_value == 0.0

    @pytest.mark.parametrize("level", [0.0, 3.0])
    def test_constant_response_r_squared(self, level):
        # TSS = 0: R^2 is 1 for an exact fit (RSS = 0) and 0 otherwise
        fit = fit_ols(make_dataset(np.arange(8.0), np.full(8, level)))
        rss = float(fit.residuals @ fit.residuals)
        assert fit.r_squared == (1.0 if rss == 0.0 else 0.0)
        if level == 0.0:
            assert fit.r_squared == 1.0

    def test_duplicate_row_labels_rejected(self):
        from hibreak.errors import DuplicateLabel

        with pytest.raises(DuplicateLabel):
            Dataset(
                row_labels=("a", "a", "b", "c"),
                column_names=("y", "x1"),
                response="y",
                predictors=("x1",),
                values=np.arange(8.0).reshape(4, 2),
            )

    def test_repeated_column_names_rejected(self):
        from hibreak.errors import InputError

        with pytest.raises(InputError, match="repeated column names"):
            Dataset(
                row_labels=("a", "b", "c", "d"),
                column_names=("y", "x1", "x1"),
                response="y",
                predictors=("x1",),
                values=np.arange(12.0).reshape(4, 3),
            )

    @pytest.mark.parametrize("change, match", [
        pytest.param({"values": np.arange(12.0).reshape(4, 3)}, "named columns", id="shape"),
        pytest.param({"row_labels": ("a", "b", "c")}, "row count", id="row_labels"),
        pytest.param({"values": np.array([[1.0, 2.0], [3.0, np.inf], [5.0, 6.0], [7.0, 8.0]])},
                     "finite", id="non_finite"),
        pytest.param({"predictors": ("x1", "y")}, "also a predictor", id="response_as_predictor"),
    ])
    def test_malformed_dataset_rejected(self, change, match):
        fields = dict(row_labels=("a", "b", "c", "d"), column_names=("y", "x1"), response="y",
                      predictors=("x1",), values=np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError, match=match):
            Dataset(**{**fields, **change})

    def test_no_intercept_r_squared_uncentered(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = fit_ols(make_dataset(x, 2.0 * x, has_intercept=False))
        assert len(fit.coefficients) == 1
        np.testing.assert_allclose(fit.coefficients, [2.0], rtol=1e-12)
        assert fit.r_squared == 1.0


class TestPredict:
    def test_single_point(self):
        x = np.arange(5.0)
        fit = fit_ols(make_dataset(x, 2.0 * x + 1.0))
        out = predict(fit, make_dataset([0.0, 10.0, 4.0], [0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 21.0, 9.0], atol=1e-10)

    def test_training_identity(self, rng):
        data = random_regression(rng, 30, 3)
        fit = fit_ols(data)
        np.testing.assert_allclose(
            predict(fit, data), data.response_vector() - fit.residuals, rtol=1e-12
        )

    def test_missing_column(self, rng):
        data = random_regression(rng, 20, 3)
        fit = fit_ols(data)
        slim = Dataset(
            row_labels=data.row_labels,
            column_names=("y", "x1"),
            response="y",
            predictors=("x1",),
            values=data.values[:, :2],
        )
        with pytest.raises(MissingColumn):
            predict(fit, slim)

    def test_width_mismatch(self):
        data = make_dataset(np.arange(5.0), np.arange(5.0) ** 2)
        fit = replace(fit_ols(data), has_intercept=False)  # two coefficients, one column
        with pytest.raises(MissingColumn, match="design width 1"):
            predict(fit, data)

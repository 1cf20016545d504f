"""The batched concentration engine shared by fit_lts and fit_mcd."""

import numpy as np
import pytest

from hibreak import LtsConfig, McdConfig, c_step, fit_lts, fit_mcd, lts_objective, mcd_c_step
from hibreak import concentration, lts, mcd
from hibreak.core_stats import mean_and_cov, spd_factor
from hibreak.errors import RankDeficientSubset, SingularSubset

from conftest import make_dataset, random_points, random_regression


def start_mask(n, rows):
    mask = np.zeros((1, n))
    mask[0, rows] = 1.0
    return mask


class TestTieRule:
    def test_matches_stable_argsort(self, rng):
        # small integers force many exact ties at the h-th value
        scores = rng.integers(0, 4, size=(50, 12)).astype(float)
        for h in range(1, 13):
            mask = concentration.lowest_mask(scores, h)
            for row, selected in zip(scores, mask):
                reference = np.sort(np.argsort(row, kind="stable")[:h])
                np.testing.assert_array_equal(np.flatnonzero(selected), reference)

    def test_tied_residuals_select_lowest_rows(self):
        # beta = 0: residuals are y, squared (0, 1, 1, 1, 1, 4); three 1s tie for h=3
        data = make_dataset([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, -1.0, 1.0, -1.0, 2.0])
        _, _, subset = c_step(data, np.zeros(2), 3)
        np.testing.assert_array_equal(subset, [0, 1, 2])

    def test_tied_distances_select_lowest_rows(self):
        # unit scatter at the origin: squared distances (0, 1, 1, 1, 1, 4, 9)
        x = np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [2, 0], [0, 3]], float)
        _, _, subset, _ = mcd_c_step(x, np.zeros(2), np.eye(2), 3)
        np.testing.assert_array_equal(subset, [0, 1, 2])


class TestDiscard:
    def test_singular_matrix_mid_stack(self, rng):
        m = rng.normal(size=(2, 6, 3))
        good = m.transpose(0, 2, 1) @ m
        col = rng.normal(size=3)
        singular = np.outer(col, col)  # LAPACK rejects it
        tiny_pivot = np.diag([1.0, 1e-14, 1.0])  # LAPACK factors it; the pivot test does not
        low, ok = spd_factor(np.stack([good[0], singular, good[1], tiny_pivot]))
        np.testing.assert_array_equal(ok, [True, False, True, False])
        np.testing.assert_array_equal(low[1], np.eye(3))
        np.testing.assert_array_equal(low[3], np.eye(3))
        for t, g in ((0, good[0]), (2, good[1])):
            np.testing.assert_array_equal(low[t], np.linalg.cholesky(g))

    def test_collinear_lts_trial_dropped_alone(self, rng):
        x = rng.normal(size=20)
        x[[3, 4, 5]] = 1.0  # rows 3..5 share x, so their normal equations are singular
        data = make_dataset(x, 2.0 * x + rng.normal(size=20))
        model = lts._search_model(data.design_matrix(), data.response_vector(), 15)
        masks = np.vstack([start_mask(20, rows) for rows in ([0, 1, 2], [3, 4, 5], [6, 7, 9])])
        params, objective, ok = model.fit(masks @ model.terms, 3)
        np.testing.assert_array_equal(ok, [True, False, True])
        alone_params, alone_objective, _ = model.fit(masks[[0, 2]] @ model.terms, 3)
        np.testing.assert_allclose(params[0][[0, 2]], alone_params[0], rtol=1e-12)
        np.testing.assert_allclose(objective[[0, 2]], alone_objective, rtol=1e-12)

    def test_collinear_start_leaves_the_search_unchanged(self, rng):
        x = rng.normal(size=20)
        x[[3, 4, 5]] = 1.0
        data = make_dataset(x, 2.0 * x + rng.normal(size=20))
        model = lts._search_model(data.design_matrix(), data.response_vector(), 15)
        config = LtsConfig(n_best_kept=3)
        good = [[0, 1, 2], [6, 7, 9]]
        starts = np.array([good[0], [3, 4, 5], good[1]])
        with_bad = concentration.concentrate(model, starts, 15, config)
        without = concentration.concentrate(model, np.array(good), 15, config)
        assert with_bad.n_csteps == without.n_csteps
        np.testing.assert_array_equal(with_bad.rows, without.rows)
        np.testing.assert_array_equal(with_bad.estimate, without.estimate)

    def test_singular_mcd_trial_dropped_alone(self, rng):
        x = rng.normal(size=(20, 2))
        x[[3, 4, 6]] = [[0.5, 0.0], [0.5, 1.0], [0.5, 3.0]]  # collinear: singular covariance
        model = mcd._search_model(x, 15)
        masks = np.vstack([start_mask(20, rows) for rows in ([0, 1, 2], [3, 4, 6], [7, 8, 9])])
        params, det, ok = model.fit(masks @ model.terms, 3)
        np.testing.assert_array_equal(ok, [True, False, True])
        alone_params, alone_det, _ = model.fit(masks[[0, 2]] @ model.terms, 3)
        np.testing.assert_allclose(det[[0, 2]], alone_det, rtol=1e-12)
        np.testing.assert_allclose(params[0][[0, 2]], alone_params[0], rtol=1e-12)


class TestBlockInvariance:
    @pytest.mark.parametrize("elements", [1, 1 << 40])
    def test_lts_bit_identical(self, rng, monkeypatch, elements):
        data = random_regression(rng, 60, 3, outlier_fraction=0.2)
        config = LtsConfig(n_starts=80, seed=5)
        base = fit_lts(data, config)
        monkeypatch.setattr(concentration, "_BLOCK_ELEMENTS", elements)
        moved = fit_lts(data, config)
        np.testing.assert_array_equal(moved.coefficients, base.coefficients)
        np.testing.assert_array_equal(moved.h_subset, base.h_subset)
        np.testing.assert_array_equal(moved.raw_residuals, base.raw_residuals)
        assert moved.objective == base.objective
        assert moved.n_csteps_total == base.n_csteps_total
        assert moved.converged == base.converged

    @pytest.mark.parametrize("elements", [1, 1 << 40])
    def test_mcd_bit_identical(self, rng, monkeypatch, elements):
        x = random_points(rng, 60, 3, outliers=10)
        config = McdConfig(n_starts=80, seed=5)
        base = fit_mcd(x, config)
        monkeypatch.setattr(concentration, "_BLOCK_ELEMENTS", elements)
        moved = fit_mcd(x, config)
        np.testing.assert_array_equal(moved.center, base.center)
        np.testing.assert_array_equal(moved.scatter, base.scatter)
        np.testing.assert_array_equal(moved.best_subset, base.best_subset)
        np.testing.assert_array_equal(moved.robust_distances, base.robust_distances)
        assert moved.raw_determinant == base.raw_determinant


class TestPublicStepsAgreeWithDriver:
    def test_c_step_matches_first_driver_step(self, rng):
        for _ in range(20):
            data = random_regression(rng, 30, 3, outlier_fraction=0.2)
            x, y, h = data.design_matrix(), data.response_vector(), 23
            start = np.sort(rng.choice(30, size=4, replace=False))
            model = lts._search_model(x, y, h)
            params, _, ok = model.fit(start_mask(30, start) @ model.terms, 4)
            if not ok[0]:
                continue
            beta0 = params[0][0]
            _, objective, ok, mask = concentration._c_step(model, params, h)
            try:
                _, public_objective, subset = c_step(data, beta0, h)
            except RankDeficientSubset:
                assert not ok[0]
                continue
            np.testing.assert_array_equal(subset, np.flatnonzero(mask[0]))
            np.testing.assert_allclose(objective[0], public_objective, rtol=1e-9)
            assert public_objective <= lts_objective(data, beta0, h)

    def test_mcd_c_step_matches_first_driver_step(self, rng):
        for _ in range(20):
            x = random_points(rng, 30, 2, outliers=5)
            h = 22
            start = np.sort(rng.choice(30, size=3, replace=False))
            model = mcd._search_model(x, h)
            params, _, ok = model.fit(start_mask(30, start) @ model.terms, 3)
            if not ok[0]:
                continue
            _, det, ok, mask = concentration._c_step(model, params, h)
            center, cov = mean_and_cov(x[start])
            try:
                new_center, new_cov, subset, public_det = mcd_c_step(x, center, cov, h)
            except SingularSubset:
                assert not ok[0]
                continue
            np.testing.assert_array_equal(subset, np.flatnonzero(mask[0]))
            np.testing.assert_allclose(det[0], public_det, rtol=1e-9)
            # from the moments of an h-row subset the determinant never rises
            assert mcd_c_step(x, new_center, new_cov, h)[3] <= public_det

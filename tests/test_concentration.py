"""The batched concentration engine shared by fit_lts and fit_mcd."""

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from hibreak import (
    LtsConfig, McdConfig, c_step, chi2_cdf, fit_lts, fit_mcd, lts_objective, mcd_c_step)
from hibreak import cli, concentration, lts, mcd
from hibreak.core_stats import chi2_quantile, mean_and_cov, spd_factor
from hibreak.errors import AllStartsDegenerate, NotPositiveDefinite

from conftest import make_dataset, random_points, random_regression


def start_mask(n, rows):
    mask = np.zeros((1, n))
    mask[0, rows] = 1.0
    return mask


def stack_fit(model, sums, count, out=(None, None)):
    """The fits of one stack of trials from their sums, completed as the phase loop completes a
    row block's (LTS: model.rows, in out); out=(None, None) allocates."""
    params, objective, ok = model.fit(sums, count)
    return model.rows(params, ok, out) if model.rows else (params, objective, ok)


def stack_c_step(model, params, h, work=None):
    """One C-step of one stack of trials, in the workspace work (None: fresh arrays)."""
    out = concentration._views(work, (len(params[0]), model.terms.shape[0]))
    return stack_fit(model, model.select(params, out) @ model.terms, h, out)


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
        near = np.eye(3)
        near[1:, 1:] = [[1.0, 1.0], [1.0, 1.0 + 1e-14]]  # LAPACK factors it; the pivot test does not
        small = np.diag([1.0, 1e-14, 1.0])  # a column at its own scale, not a collinear one
        low, ok = spd_factor(np.stack([good[0], singular, good[1], near, small]))
        np.testing.assert_array_equal(ok, [True, False, True, False, True])
        np.testing.assert_array_equal(low[1], np.eye(3))
        np.testing.assert_array_equal(low[3], np.eye(3))
        for t, g in ((0, good[0]), (2, good[1]), (4, small)):
            np.testing.assert_array_equal(low[t], np.linalg.cholesky(g))

    def test_collinear_lts_trial_dropped_alone(self, rng):
        x = rng.normal(size=20)
        x[[3, 4, 5]] = 1.0  # rows 3..5 share x, so their normal equations are singular
        data = make_dataset(x, 2.0 * x + rng.normal(size=20))
        model = lts._search_model(data.design_matrix(), data.response_vector(), 15)
        masks = np.vstack([start_mask(20, rows) for rows in ([0, 1, 2], [3, 4, 5], [6, 7, 9])])
        params, objective, ok = stack_fit(model, masks @ model.terms, 3)
        np.testing.assert_array_equal(ok, [True, False, True])
        alone_params, alone_objective, _ = stack_fit(model, masks[[0, 2]] @ model.terms, 3)
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
        params, det, ok = stack_fit(model, masks @ model.terms, 3)
        np.testing.assert_array_equal(ok, [True, False, True])
        alone_params, alone_det, _ = stack_fit(model, masks[[0, 2]] @ model.terms, 3)
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

    @pytest.mark.parametrize("elements", [1, 1 << 11, 1 << 40])
    @pytest.mark.parametrize("design", ["several_row_blocks", "nested", "degenerate_between_steps"])
    def test_batches_bit_identical(self, monkeypatch, design, elements):
        # by default 500 rows hold 98 trials a row block and a batch all 500 starts; 2^11
        # entries make row blocks of 6 trials and batches of 11 to 56 of them; 700 rows take
        # the nested search; with 100 ones of a dummy in 500 rows most starts are degenerate
        # and MCD trials turn degenerate at both screening steps, so the live trials move up
        # inside a batch
        rng = np.random.default_rng(35)
        if design == "degenerate_between_steps":
            x, y = dummy_design(500, 100)
        else:
            data = random_regression(rng, 700 if design == "nested" else 500,
                                     3 if design == "nested" else 5, outlier_fraction=0.2)
            x, y = data.design_matrix()[:, 1:], data.response_vector()
        seen = spy_on_steps(monkeypatch)
        base = searches(x, y)
        if design == "degenerate_between_steps":
            assert not all(ok.all() for ok in seen) and isinstance(base[1], str)
        monkeypatch.setattr(concentration, "_BLOCK_ELEMENTS", elements)
        moved = searches(x, y)
        assert_same_fit(moved[0], base[0])
        if isinstance(base[1], str):
            assert moved[1] == base[1]
        else:
            for a, b in zip((*moved[1].estimate, moved[1].rows), (*base[1].estimate, base[1].rows)):
                assert_same_bits(a, b)
            assert (moved[1].objective, moved[1].converged, moved[1].n_csteps) == (
                base[1].objective, base[1].converged, base[1].n_csteps)


def searches(x, y):
    """fit_lts on (x, y) and the Search of fit_mcd on x, which counts its C-steps, or the
    AllStartsDegenerate message of each."""
    n, p = x.shape
    found = []
    for search in (lambda: fit_lts(make_dataset(x, y)),
                   lambda: concentration.run_search(lambda rows, h: mcd._search_model(x[rows], h),
                                                    n, p, mcd.subset_size(n, 0.75), McdConfig())):
        try:
            found.append(search())
        except AllStartsDegenerate as error:
            found.append(str(error))
    return found


class TestPublicStepsAgreeWithDriver:
    def test_c_step_matches_first_driver_step(self, rng):
        for _ in range(20):
            data = random_regression(rng, 30, 3, outlier_fraction=0.2)
            x, y, h = data.design_matrix(), data.response_vector(), 23
            start = np.sort(rng.choice(30, size=4, replace=False))
            model = lts._search_model(x, y, h)
            params, _, ok = stack_fit(model, start_mask(30, start) @ model.terms, 4)
            if not ok[0]:
                continue
            beta0 = params[0][0]
            mask = model.select(params)
            _, objective, ok = stack_c_step(model, params, h)
            try:
                _, public_objective, subset = c_step(data, beta0, h)
            except NotPositiveDefinite:
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
            params, _, ok = stack_fit(model, start_mask(30, start) @ model.terms, 3)
            if not ok[0]:
                continue
            mask = model.select(params)
            _, det, ok = stack_c_step(model, params, h)
            center, cov = mean_and_cov(x[start])
            try:
                new_center, new_cov, subset, public_det = mcd_c_step(x, center, cov, h)
            except NotPositiveDefinite:
                assert not ok[0]
                continue
            np.testing.assert_array_equal(subset, np.flatnonzero(mask[0]))
            np.testing.assert_allclose(det[0], public_det, rtol=1e-9)
            # from the moments of an h-row subset the determinant never rises
            assert mcd_c_step(x, new_center, new_cov, h)[3] <= public_det


class TestWinnerPick:
    def test_skips_trials_whose_refit_is_degenerate(self, rng):
        # rows 0-19 lie near y = x, rows 20-39 near y = 30 - x; one start on each line
        x = rng.uniform(0.0, 10.0, size=40)
        noise = np.where(np.arange(40) < 20, 0.1, 1.0) * rng.normal(size=40)
        y = np.where(np.arange(40) < 20, x, 30.0 - x) + noise
        data = make_dataset(x, y)
        model = lts._search_model(data.design_matrix(), data.response_vector(), 20)
        starts, config = np.array([[0, 5, 10], [20, 25, 30]]), LtsConfig(n_best_kept=2)

        def search(degenerate):
            """The search with an evaluator that keeps no subset of the given rows."""
            def refit(subsets):
                kept, objectives, fit = model.refit(subsets)
                keep = [j for j, t in enumerate(kept) if not np.array_equal(subsets[t], degenerate)]
                return kept[keep], objectives[keep], lambda j: fit(keep[j])
            return concentration.concentrate(replace(model, refit=refit), starts, 20, config)

        best, runner_up = search(None), search(np.arange(20))
        np.testing.assert_array_equal(best.rows, np.arange(20))
        np.testing.assert_array_equal(runner_up.rows, np.arange(20, 40))
        assert runner_up.objective > best.objective
        nothing_kept = replace(model, refit=lambda subsets: (np.arange(0), np.zeros(0), None))
        with pytest.raises(AllStartsDegenerate):
            concentration.concentrate(nothing_kept, starts, 20, config)

    def test_ties_go_to_the_lower_trial_index(self, rng):
        # trial 1 starts on the tighter line y = x, so it ranks and, after
        # its one C-step, finishes ahead of trial 0 on y = 30 - x
        x = rng.uniform(0.0, 10.0, size=40)
        noise = np.where(np.arange(40) < 20, 0.1, 1.0) * rng.normal(size=40)
        y = np.where(np.arange(40) < 20, x, 30.0 - x) + noise
        data = make_dataset(x, y)
        model = lts._search_model(data.design_matrix(), data.response_vector(), 20)
        starts = np.array([[20, 25, 30], [0, 5, 10]])
        stacks = []

        def refit(subsets):
            """The evaluator, with every kept subset's objective set to 1.0."""
            stacks.append(subsets)
            kept, objectives, fit = model.refit(subsets)
            return kept, np.ones_like(objectives), fit

        config = LtsConfig(n_best_kept=2, max_csteps=1)
        search = concentration.concentrate(replace(model, refit=refit), starts, 20, config)
        assert len(stacks) == 1
        np.testing.assert_array_equal(stacks[0], [np.arange(20), np.arange(20, 40)])
        np.testing.assert_array_equal(search.rows, np.arange(20, 40))


class TestStartDraw:
    def test_rows_are_sorted_distinct_and_in_range(self):
        for n, dim, count in [(7, 2, 50), (30, 3, 500), (300, 10, 50), (17, 0, 40)]:
            starts = concentration._draw(np.random.default_rng(n), n, dim, count)
            assert starts.shape == (count, dim + 1)
            assert np.issubdtype(starts.dtype, np.integer)
            assert np.all(np.diff(starts, axis=1) > 0)
            assert starts.min() >= 0 and starts.max() < n

    def test_all_rows_when_the_subset_is_every_row(self):
        starts = concentration._draw(np.random.default_rng(0), 5, 4, 20)
        np.testing.assert_array_equal(starts, np.tile(np.arange(5), (20, 1)))

    def test_uniform_over_subsets_and_rows(self):
        n, m, count = 7, 3, 70_000
        starts = concentration._draw(np.random.default_rng(11), n, m - 1, count)

        def p_value(counts):
            """Chi-square goodness of fit to equal counts."""
            expected = counts.sum() / len(counts)
            return 1.0 - chi2_cdf(((counts - expected) ** 2 / expected).sum(), len(counts) - 1)

        subsets, counts = np.unique(starts, axis=0, return_counts=True)
        np.testing.assert_array_equal(subsets, list(itertools.combinations(range(n), m)))
        assert p_value(counts) > 1e-6
        # rows of one draw are distinct, so this statistic is if anything too small
        assert p_value(np.bincount(starts.ravel(), minlength=n)) > 1e-6

    def test_same_seed_same_starts(self):
        def draw():
            return concentration._draw(np.random.default_rng(3), 600, 4, 500)

        np.testing.assert_array_equal(draw(), draw())
        config = McdConfig(seed=3)
        starts = concentration.draw_starts(40, 2, config)
        np.testing.assert_array_equal(
            starts, concentration._draw(np.random.default_rng(3), 40, 2, config.n_starts))

    @pytest.mark.parametrize("n, dim", [(4, 3), (12, 1), (16, 3)])
    def test_small_instances_enumerate_every_subset(self, n, dim):
        starts = concentration.draw_starts(n, dim, LtsConfig(seed=5))
        np.testing.assert_array_equal(starts, list(itertools.combinations(range(n), dim + 1)))

    def test_exhaustive_starts_are_the_combinations_in_one_array(self, monkeypatch):
        # one lexicographic array whatever the chunk budget
        monkeypatch.setattr(concentration, "_BLOCK_ELEMENTS", 1)
        for n in range(1, concentration.EXHAUSTIVE_MAX_N + 1):
            for dim in range(min(n, concentration.EXHAUSTIVE_MAX_DIM + 1)):
                starts = concentration.draw_starts(n, dim, LtsConfig(seed=5))
                expected = np.array(list(itertools.combinations(range(n), dim + 1)))
                assert starts.dtype == expected.dtype
                np.testing.assert_array_equal(starts, expected)


def full_search_lts(data, config):
    """fit_lts's search without subsamples: concentrate on every row."""
    x, y = data.design_matrix(), data.response_vector()
    h = lts.trimmed_size(data.n, data.k, config.alpha)
    starts = concentration.draw_starts(data.n, data.k, config)
    return concentration.concentrate(lts._search_model(x, y, h), starts, h, config)


def full_search_mcd(x, config):
    """fit_mcd's search without subsamples: concentrate on every row."""
    h = mcd.subset_size(len(x), config.h_fraction)
    starts = concentration.draw_starts(len(x), x.shape[1], config)
    return concentration.concentrate(mcd._search_model(x, h), starts, h, config)


class TestNestedSearch:
    def test_phases_and_bit_identical_rerun(self, rng, monkeypatch):
        data = random_regression(rng, 1000, 3, outlier_fraction=0.2)
        x = random_points(rng, 1000, 2, outliers=200)
        built = {"lts": [], "mcd": []}
        for name, module in (("lts", lts), ("mcd", mcd)):
            def spy(rows, *args, _build=module._search_model, _sizes=built[name]):
                _sizes.append(len(rows))
                return _build(rows, *args)
            monkeypatch.setattr(module, "_search_model", spy)
        config = LtsConfig(seed=3)
        first, again = fit_lts(data, config), fit_lts(data, config)
        estimate, estimate_again = fit_mcd(x, McdConfig(seed=3)), fit_mcd(x, McdConfig(seed=3))
        # three subsamples of 300 rows, their 900-row union, then every row, per fit
        assert built["lts"] == built["mcd"] == [300, 300, 300, 900, 1000] * 2
        for name in ("coefficients", "h_subset", "raw_residuals", "standardized_residuals"):
            np.testing.assert_array_equal(getattr(again, name), getattr(first, name))
        assert (again.objective, again.robust_scale, again.n_csteps_total, again.converged) == (
            first.objective, first.robust_scale, first.n_csteps_total, first.converged)
        for name in ("center", "scatter", "best_subset", "robust_distances"):
            np.testing.assert_array_equal(getattr(estimate_again, name), getattr(estimate, name))
        assert estimate_again.raw_determinant == estimate.raw_determinant
        # the subsample and union C-steps are counted; refining 10 trials takes far fewer
        assert first.n_csteps_total > 2 * config.n_starts

    @pytest.mark.parametrize("n", [601, 1000, 2000, 5000])
    @pytest.mark.parametrize("p", [2, 4])
    def test_close_to_the_full_search(self, n, p):
        for seed in (0, 1):
            rng = np.random.default_rng(1000 * n + 10 * p + seed)
            data = random_regression(rng, n, p + 1, outlier_fraction=0.2)
            config = LtsConfig(seed=seed)
            fit, full = fit_lts(data, config), full_search_lts(data, config)
            assert fit.objective <= 1.01 * full.objective
            raw = data.response_vector() - data.design_matrix() @ full.estimate
            _, standardized = lts.standardize_residuals(full.objective, raw, fit.h, n)
            np.testing.assert_array_equal(
                np.abs(fit.standardized_residuals) > 2.5, np.abs(standardized) > 2.5)

            x = random_points(rng, n, p, outliers=n // 5)
            config = McdConfig(seed=seed)
            estimate, full = fit_mcd(x, config), full_search_mcd(x, config)
            assert estimate.raw_determinant <= 1.01 * full.objective
            center, cov = full.estimate
            full_estimate = replace(
                estimate, center=center, scatter=cov * estimate.consistency_factor)
            cutoff = np.sqrt(chi2_quantile(0.975, p))
            np.testing.assert_array_equal(
                estimate.robust_distances > cutoff,
                mcd.robust_distances(x, full_estimate) > cutoff)

    @pytest.mark.parametrize("n", [60, 600])
    def test_unchanged_up_to_600_rows(self, rng, n):
        data = random_regression(rng, n, 4, outlier_fraction=0.2)
        config = LtsConfig(n_starts=100, seed=2)
        fit, full = fit_lts(data, config), full_search_lts(data, config)
        np.testing.assert_array_equal(fit.coefficients, full.estimate)
        assert (fit.objective, fit.n_csteps_total, fit.converged) == (
            full.objective, full.n_csteps, full.converged)

        x = random_points(rng, n, 3, outliers=n // 5)
        config = McdConfig(n_starts=100, seed=2)
        estimate, full = fit_mcd(x, config), full_search_mcd(x, config)
        np.testing.assert_array_equal(estimate.center, full.estimate[0])
        np.testing.assert_array_equal(
            estimate.scatter, full.estimate[1] * estimate.consistency_factor)
        np.testing.assert_array_equal(estimate.best_subset, full.rows)
        assert estimate.raw_determinant == full.objective


def dummy_design(n, ones, seed=0):
    """A normal predictor and a 0/1 dummy with the given count of ones, and y."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.standard_normal(n), np.zeros(n)])
    x[rng.choice(n, size=ones, replace=False), 1] = 1.0
    return x, 1.0 + x[:, 0] + 2.0 * x[:, 1] + rng.standard_normal(n)


def spy_on_steps(monkeypatch, on_fit=lambda sums: None):
    """The ok mask of every C-step the search takes, in call order, of each row block for LTS,
    which completes its fits there; on_fit sees the sums each C-step's batch fit takes.

    A C-step's fit follows the phase loop's selections, made in the workspace; a phase's
    opening fit follows none, and its closing selection allocates."""
    seen, state = [], {"selected": False, "step": False}

    def build(*args, _build):
        model = _build(*args)

        def select(params, out=(None, None)):
            state["selected"] |= out[0] is not None
            return model.select(params, out)

        def fit(sums, count):
            fitted = model.fit(sums, count)
            state["step"], state["selected"] = state["selected"], False
            if state["step"]:
                on_fit(sums)
                if not model.rows:
                    seen.append(fitted[2])
            return fitted

        def rows(*args):
            fitted = model.rows(*args)
            if state["step"]:
                seen.append(fitted[2])
            return fitted
        return replace(model, select=select, fit=fit, rows=model.rows and rows)
    for module in (lts, mcd):
        monkeypatch.setattr(module, "_search_model",
                            lambda *args, _build=module._search_model: build(*args, _build=_build))
    return seen


def spy_on_phases(monkeypatch):
    """(args, kwargs, result) of every _phase call, in call order."""
    seen, phase = [], concentration._phase

    def spy(*args, **kwargs):
        out = phase(*args, **kwargs)
        seen.append((args, kwargs, out))
        return out
    monkeypatch.setattr(concentration, "_phase", spy)
    return seen


def leverage_design():
    """200 rows, 3 predictors, 40 vertical outliers of which 33 are leverage points."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 3))
    y = x @ [1.0, 2.0, 3.0] + rng.standard_normal(200)
    y[:40] += 20.0
    x[:33] += 5.0
    return x, y


PHASE = concentration._phase  # the phase loop itself, also while a test spies on it


def keep_every_trial(monkeypatch):
    """Have every phase hand on all the trials it keeps, copies of a row set too."""
    monkeypatch.setattr(concentration, "_distinct", lambda masks, h: (np.arange(len(masks)),) * 2)


def rerun_keeping_every_trial(monkeypatch, args, kwargs):
    """The _phase call of args and kwargs again, handing on every trial it keeps."""
    with monkeypatch.context() as patched:
        keep_every_trial(patched)
        return PHASE(*args, **kwargs)


def assert_each_row_set_once(got, every):
    """got, a _phase result, is every (the same call handing on all its kept trials) without
    the later copies of a row set, in order; each carries the objective of its last copy."""
    keys = [r.tobytes() for r in every[1]]
    first = [keys.index(k) for k in dict.fromkeys(keys)]
    last = [len(keys) - 1 - keys[::-1].index(k) for k in dict.fromkeys(keys)]
    trial, rows, objective, converged, n_csteps = got
    assert len({r.tobytes() for r in rows}) == len(rows)  # pairwise distinct
    for a, b in ((trial, every[0][first]), (rows, every[1][first]),
                 (objective, every[2][last]), (converged, every[3][first])):
        assert_same_bits(a, b)
    assert n_csteps == every[4]


class TestPhaseLoop:
    def test_screening_takes_both_steps_of_every_trial(self, rng, monkeypatch):
        # a trial stopped at convergence would stop after one step: its first
        # comparison is of a (p+1)-row determinant with an h-row one
        x = random_points(rng, 200, 3, outliers=40)
        starts = concentration._draw(rng, 200, 3, 120)
        seen = spy_on_steps(monkeypatch)
        model = mcd._search_model(x, 150)
        got = concentration._phase(model, starts, 150, 2, 7)
        assert all(ok.all() for ok in seen)
        assert got[4] == 2 * len(starts) == sum(len(ok) for ok in seen)
        trial, rows, *_ = every = rerun_keeping_every_trial(monkeypatch, (model, starts, 150, 2, 7), {})
        assert rows.shape == (7, 150) and np.all(np.diff(rows, axis=1) > 0)
        assert len(set(trial)) == 7
        assert_each_row_set_once(got, every)

    def test_max_csteps_counts_the_opening_fit_of_refinement(self, monkeypatch):
        # refinement opens with a fit of the rows the screened fits select,
        # the first of its max_csteps fits: at one, only screening takes C-steps,
        # although leverage outliers leave the refined trials short of convergence
        x, y = leverage_design()
        seen = spy_on_steps(monkeypatch)
        fit = fit_lts(make_dataset(x, y), LtsConfig(max_csteps=1))
        assert not fit.converged
        assert fit.n_csteps_total == sum(len(ok) for ok in seen) == 2 * LtsConfig().n_starts

    @pytest.mark.parametrize("estimator", ["lts", "mcd"])
    def test_refinement_ranks_its_trials(self, monkeypatch, estimator):
        # as screening does: by (objective, trial), not in the order they stop;
        # the leverage points leave local optima that converge at different steps
        x, y = leverage_design()
        phases = spy_on_phases(monkeypatch)
        if estimator == "lts":
            fit_lts(make_dataset(x, y))
        else:
            fit_mcd(x)
        (screen_args, screen_kwargs, screened), (args, kwargs, refined) = phases
        trial, rows, objective, converged, _ = every = rerun_keeping_every_trial(
            monkeypatch, args, kwargs)
        np.testing.assert_array_equal(np.lexsort((trial, objective)), np.arange(len(trial)))
        assert len(trial) == len(args[1])
        assert converged.all()
        assert_each_row_set_once(refined, every)
        # screening hands on each row set its n_best_kept best select once, and refinement
        # starts from those
        every_screened = rerun_keeping_every_trial(monkeypatch, screen_args, screen_kwargs)
        assert len(every_screened[0]) == McdConfig().n_best_kept
        assert_each_row_set_once(screened, every_screened)
        assert_same_bits(args[1], screened[1])
        assert len(args[1]) < McdConfig().n_best_kept

    def test_a_capped_trial_hands_on_the_rows_its_last_fit_selects(self, monkeypatch):
        # max_csteps = 1: refinement's one fit is on the rows screening handed on,
        # and an unconverged trial hands on the rows that fit selects, not those
        x, y = leverage_design()
        data = make_dataset(x, y)
        h = lts.trimmed_size(200, 4, 0.25)
        model = lts._search_model(data.design_matrix(), y, h)
        phases = spy_on_phases(monkeypatch)
        config = LtsConfig(max_csteps=1)
        search = concentration.concentrate(
            model, concentration.draw_starts(200, 4, config), h, config)
        (_, given, *_), _, got = phases[1]
        trial, rows, _, converged, _ = every = rerun_keeping_every_trial(monkeypatch, *phases[1][:2])
        masks = np.zeros((len(given), 200))
        np.put_along_axis(masks, given, 1.0, axis=1)
        params, _, _ = stack_fit(model, masks @ model.terms, h)
        selected = model.select(params)
        for i, t in enumerate(trial):
            np.testing.assert_array_equal(rows[i], np.flatnonzero(selected[t]))
        moved = [not np.array_equal(rows[i], given[t]) for i, t in enumerate(trial)]
        assert not converged.all() and any(moved)
        assert_each_row_set_once(got, every)
        assert any(np.array_equal(search.rows, r) for r in got[1])

    def test_screening_takes_at_most_keep_fits_out_of_the_workspace(self, rng, monkeypatch):
        # 500 starts on 200 rows run in 3 blocks of at most 245 trials; each
        # block's stopped LTS trials carry (T, 200) squared residuals in the
        # workspace, and only the best 3 of them may be copied out
        data = random_regression(rng, 200, 5, outlier_fraction=0.2)
        model = lts._search_model(data.design_matrix(), data.response_vector(), 150)
        starts = concentration.draw_starts(200, 4, LtsConfig())
        work, taken, take = [np.empty(0)] * 2, [], concentration._take

        def spy(params, index):
            out = take(params, index)
            taken.extend(len(b) for a, b in zip(params, out)
                          if any(np.shares_memory(a, w) for w in work))
            return out
        monkeypatch.setattr(concentration, "_take", spy)
        got = concentration._phase(model, starts, 150, 2, 3, work=work)
        assert taken and max(taken) <= 3 and sum(taken) <= 3 * 3
        trial, rows, *_ = every = rerun_keeping_every_trial(
            monkeypatch, (model, starts, 150, 2, 3), {})
        assert rows.shape == (3, 150) and len(set(trial)) == 3
        assert_each_row_set_once(got, every)

    def test_screening_drops_trials_that_turn_degenerate_at_the_first_step(self, monkeypatch):
        # an MCD selection without a one of the dummy (rows 1, 6, 8, 17) is singular: of the
        # 12 starts, 5 fit, one of those turns degenerate at the first C-step, 4 take both
        x, _ = dummy_design(24, 4, seed=28)
        starts = concentration._draw(np.random.default_rng(28), 24, 2, 12)
        seen = spy_on_steps(monkeypatch)
        trial, rows, objective, converged, n_csteps = concentration._phase(
            mcd._search_model(x, 18), starts, 18, 2, 3)
        assert [ok.tolist() for ok in seen] == [[True, True, True, False, True], [True] * 4]
        assert trial.tolist() == [3, 0]
        assert [np.setdiff1d(np.arange(24), r).tolist() for r in rows] == [
            [5, 10, 14, 18, 21, 22], [0, 7, 13, 14, 18, 21]]
        assert objective.tolist() == [0.04738042080503414, 0.05520709236925362]
        assert converged.tolist() == [False, False] and n_csteps == 8
        # with 2 ones, both starts that fit turn degenerate at the first C-step: no second step
        x, _ = dummy_design(24, 2, seed=17)
        starts = concentration._draw(np.random.default_rng(17), 24, 2, 12)
        seen.clear()
        with pytest.raises(AllStartsDegenerate, match="all 12 trials on 24 rows with h=18 "):
            concentration._phase(mcd._search_model(x, 18), starts, 18, 2, 3)
        assert [ok.tolist() for ok in seen] == [[False, False]]

    @pytest.mark.parametrize("n, alpha", [(300, 0.25), (900, 0.25), (700, 0.0)])
    def test_csteps_total_counts_every_step_taken(self, monkeypatch, n, alpha):
        # starts without a one of the dummy drop at their opening fit, which is no C-step
        x, y = dummy_design(n, n // 20)
        seen = spy_on_steps(monkeypatch)
        fit = fit_lts(make_dataset(x, y), LtsConfig(alpha=alpha, seed=1))
        assert fit.n_csteps_total == sum(int(ok.sum()) for ok in seen)

    def test_csteps_leave_out_trials_that_turn_degenerate(self, monkeypatch):
        x, _ = dummy_design(900, 235)  # a few MCD selections hold no one of the dummy
        seen = spy_on_steps(monkeypatch)
        search = concentration.run_search(
            lambda rows, h_rows: mcd._search_model(x[rows], h_rows), 900, 2, 675, McdConfig(seed=1))
        assert not all(ok.all() for ok in seen)
        assert search.n_csteps == sum(int(ok.sum()) for ok in seen)

    @pytest.mark.parametrize("n", [40, 1000])
    def test_one_start_of_every_row_when_nothing_is_trimmed(self, rng, monkeypatch, n):
        x = random_points(rng, n, 3, outliers=n // 5)
        seen = spy_on_steps(monkeypatch)
        estimate = fit_mcd(x, McdConfig(h_fraction=1.0))
        # two screening steps; refinement converges at its opening fit
        assert [len(ok) for ok in seen] == [1, 1]
        center, cov = mean_and_cov(x)
        np.testing.assert_array_equal(estimate.best_subset, np.arange(n))
        np.testing.assert_allclose(estimate.center, center, rtol=1e-12)
        np.testing.assert_allclose(estimate.scatter, cov, rtol=1e-12)
        fit = fit_lts(random_regression(rng, n, 3), LtsConfig(alpha=0.0))
        np.testing.assert_array_equal(fit.h_subset, np.arange(n))
        assert fit.n_csteps_total == 2

    def test_all_degenerate_names_the_failing_phase(self, tmp_path, capsys, monkeypatch):
        x = np.ones((20, 2))
        x[:, 1] = np.arange(20.0)
        x[[3, 4, 5], 1] = 1.0  # rows 3..5 share x, so no fit on them alone exists
        model = lts._search_model(x, x[:, 1] + 1.0, 15)
        with pytest.raises(AllStartsDegenerate, match="all 2 trials on 20 rows with h=15 "):
            concentration.concentrate(model, np.array([[3, 4, 5], [3, 4, 5]]), 15, LtsConfig())
        # in 1000 rows a dummy with 150 ones leaves MCD trials in each subsample,
        # but none of those the union screens
        x, y = dummy_design(1000, 150)
        path = tmp_path / "dummy.csv"
        path.write_text("row,y,x,d\n" + "".join(
            f"r{i},{y[i]:.17g},{x[i, 0]:.17g},{x[i, 1]:.17g}\n" for i in range(1000)))
        argv = ["analyze", str(path), "--response", "y", "--predictors", "x,d"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "stage 'mcd': all 13 trials on 900 rows with h=675 turned degenerate" in err
        # the union's 13 starts are the distinct row sets among the 30 its subsamples hand on
        keep_every_trial(monkeypatch)
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "stage 'mcd': all 30 trials on 900 rows with h=675 turned degenerate" in err

    def test_a_union_left_with_no_start_names_it(self):
        # the one row with d = 1 lies outside the three subsamples, so the
        # dummy is constant in each, all their trials are degenerate and the
        # union phase has no start at all
        left_out = np.random.default_rng(0).permutation(1000)[900:]
        x, y = dummy_design(1000, 0)
        x[left_out[0], 1] = 1.0
        with pytest.raises(AllStartsDegenerate, match="all 0 trials on 900 rows with h=675 "):
            fit_lts(make_dataset(x, y), LtsConfig())

    def test_a_subsample_left_with_no_trial_hands_on_no_rows(self):
        # 3 ones in 1000 rows: the first subsample holds none, so its dummy
        # column is constant and every LTS trial there is degenerate; the
        # other two hold the ones
        x, y = dummy_design(1000, 3)
        fit = fit_lts(make_dataset(x, y), LtsConfig())
        assert fit.h_subset.shape == (750,) and np.isfinite(fit.coefficients).all()


def assert_same_bits(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def assert_same_fit(got, expected, skip=()):
    """Every field of two LtsFit or McdEstimate equal, arrays bit for bit, but those in skip."""
    for field in fields(expected):
        if field.name not in skip:
            a, b = getattr(got, field.name), getattr(expected, field.name)
            if isinstance(b, np.ndarray):
                assert_same_bits(a, b)
            else:
                assert a == b, field.name


class TestWorkspace:
    @pytest.mark.parametrize("estimator", ["lts", "mcd"])
    def test_c_steps_match_the_allocating_path(self, estimator):
        # a dummy with 6 ones in 60 rows: starts without a one are degenerate,
        # and MCD trials turn degenerate between steps too, so the live trials
        # move into fewer rows of the workspace
        x, y = dummy_design(60, 6)
        if estimator == "lts":
            model = lts._search_model(make_dataset(x, y).design_matrix(), y, 45)
        else:
            model = mcd._search_model(x, 45)
        starts = concentration._draw(np.random.default_rng(1), 60, 2, 40)
        mask = np.zeros((40, 60))
        np.put_along_axis(mask, starts, 1.0, axis=1)
        fresh, _, ok = stack_fit(model, mask @ model.terms, 3)
        kept, work, compacted = fresh, [np.empty(0)] * 2, 0
        for step in range(4):
            if not ok.any():
                break
            # as _phase: the workspace path compacts only when a trial dropped
            fresh = concentration._take(fresh, ok)
            kept = kept if ok.all() else concentration._take(kept, ok)
            compacted += not ok.all()
            selected = model.select(fresh)
            assert_same_bits(model.select(kept), selected)  # kept's LTS scores are in work[0]
            expected = stack_c_step(model, fresh, 45)
            got = stack_c_step(model, kept, 45, work)
            for a, b in zip((*got[0], *got[1:]), (*expected[0], *expected[1:])):
                assert_same_bits(a, b)
            scratch = work[1][: selected.size].reshape(selected.shape)
            assert len(work) == 2
            if estimator == "lts":  # the squared residuals, the next step's scores, and their partition
                assert np.shares_memory(got[0][1], work[0])
                assert_same_bits(scratch[:, 44:45], got[0][2])
            else:  # the step's mask, which its fit leaves in place
                assert_same_bits(scratch, selected)
            fresh, kept, ok = expected[0], got[0], expected[2]
        assert step >= 2 and compacted >= (3 if estimator == "mcd" else 1)

    def test_searches_in_threads_match_sequential_runs(self, rng):
        # n = 700 takes the nested search; each call owns its workspace
        data = random_regression(rng, 700, 3, outlier_fraction=0.2)
        x = random_points(rng, 700, 2, outliers=140)
        jobs = [lambda s=s: fit_lts(data, LtsConfig(seed=s)) for s in range(4)]
        jobs += [lambda s=s: fit_mcd(x, McdConfig(seed=s)) for s in range(4)]
        sequential = [job() for job in jobs]
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda job: job(), jobs))
        for got, expected in zip(threaded, sequential):
            assert_same_fit(got, expected)


class TestOnePartitionPerStep:
    @pytest.mark.parametrize("estimator", ["lts", "mcd"])
    def test_a_c_step_partitions_once(self, rng, monkeypatch, estimator):
        # LTS partitions in its fit, which hands the threshold on to the next
        # selection; MCD in its selection, from the fresh distances
        calls, part = [], concentration.partitioned

        def spy(where):
            def counted(*args):
                calls.append(where)
                return part(*args)
            return counted
        if estimator == "lts":
            data = random_regression(rng, 60, 3, outlier_fraction=0.2)
            model = lts._search_model(data.design_matrix(), data.response_vector(), 45)
        else:
            model = mcd._search_model(random_points(rng, 60, 3, outliers=12), 45)
        starts = concentration._draw(rng, 60, 3, 20)
        mask = np.zeros((20, 60))
        np.put_along_axis(mask, starts, 1.0, axis=1)
        params, _, ok = stack_fit(model, mask @ model.terms, 4)
        params = concentration._take(params, ok)
        monkeypatch.setattr(concentration, "partitioned", spy("concentration"))
        monkeypatch.setattr(lts, "partitioned", spy("lts"))
        work = [np.empty(0)] * 2
        for _ in range(3):
            params, _, ok = stack_c_step(model, params, 45, work)
            assert calls == ["lts" if estimator == "lts" else "concentration"]
            params, calls[:] = concentration._take(params, ok), []

    def test_the_carried_threshold_selects_as_a_fresh_partition(self, rng):
        # an intercept-only fit of 4 rows is their exact mean, so integer y leaves
        # integer squared residuals, with ties at the h-th value of most trials
        x, y = np.ones((40, 1)), rng.integers(0, 6, size=40).astype(float)
        model = lts._search_model(x, y, 30)
        starts = concentration._draw(rng, 40, 3, 200)
        starts = starts[y[starts].sum(axis=1) % 4 == 0]  # an integer mean
        mask = np.zeros((len(starts), 40))
        np.put_along_axis(mask, starts, 1.0, axis=1)
        work = concentration._views(None, mask.shape)  # shared by fit and select, as in a C-step
        params, _, ok = stack_fit(model, mask @ model.terms, 4, work)
        r2 = params[1].copy()
        assert ok.all() and np.array_equal(r2, np.round(r2))
        assert ((r2 <= params[2]).sum(axis=1) > 30).mean() > 0.5  # the tie fix-up runs
        expected = concentration.lowest_mask(r2, 30)
        assert_same_bits(model.select(params), expected)
        assert_same_bits(model.select(params, work), expected)


class TestBlockRule:
    # a row block holds the trials whose two (T, n) arrays fit the rows budget, a batch the most
    # row blocks whose (T, c) sums fit the terms budget, and at least one
    BATCH = {50: 248, 200: 980, 500: 1078, 20000: 1092}

    @pytest.mark.parametrize("n, k, block", [(50, 11, 248), (200, 5, 245), (500, 5, 98),
                                             (20000, 5, 2)])
    def test_blocks_fit_the_rows_and_terms_budgets(self, rng, n, k, block):
        # k coefficients give k * k + k terms a row: 132 at k = 11, 30 at k = 5
        model = lts._search_model(rng.standard_normal((n, k)), rng.standard_normal(n), n // 2)
        c, batch = model.terms.shape[1], self.BATCH[n]
        assert block == max(1, min(3 * 2**15 // (2 * n), 2**15 // c))
        assert batch == block * max(1, 2**15 // c // block) and batch * c <= 2**15
        fits, rows = [], []

        def fit(sums, *args):
            fits.append(len(sums))
            return model.fit(sums, *args)

        def complete(params, *args):
            rows.append(len(params[0]))
            return model.rows(params, *args)
        # a full batch, then a batch of a full row block and one trial
        starts = concentration._draw(rng, n, k - 1, batch + block + 1)
        work = [np.empty(0)] * 2
        concentration._phase(replace(model, fit=fit, rows=complete), starts, n // 2, 0, 1, work=work)
        assert fits == ([batch, block + 1] if batch > block else [block, block, 1])
        assert rows == [block] * (batch // block) + [block, 1]
        # within the three (T, n) buffers of at most max(2^15, n) entries of before
        assert len(work) == 2 and sum(map(len, work)) <= 3 * max(2**15, n)

    @pytest.mark.parametrize("estimator, n, p, per_step", [
        ("lts", 500, 2, 1), ("mcd", 500, 2, 1), ("lts", 50, 10, 3), ("mcd", 50, 10, 2)])
    def test_fit_calls_per_step(self, rng, estimator, n, p, per_step):
        # at n = 500, 500 starts fill six row blocks of 98 trials, and one batch fits them all at
        # each step; at n = 50, p = 10 a batch is one row block of 248 LTS or 297 MCD trials, so
        # each step takes one fit call per row block
        if estimator == "lts":
            data = random_regression(rng, n, p + 1, outlier_fraction=0.2)
            model = lts._search_model(data.design_matrix(), data.response_vector(), 3 * n // 4)
        else:
            model = mcd._search_model(random_points(rng, n, p, outliers=n // 5), 3 * n // 4)
        sizes = []

        def fit(sums, *args):
            sizes.append(len(sums))
            return model.fit(sums, *args)
        starts = concentration._draw(rng, n, p + (estimator == "lts"), 500)
        got = concentration._phase(replace(model, fit=fit), starts, 3 * n // 4, 2, 10)
        assert got[4] == 2 * 500  # no trial turns degenerate
        assert len(sizes) == 3 * per_step and sum(sizes) == 3 * 500


def search_fits(x, y):
    return fit_lts(make_dataset(x, y)), fit_mcd(x)


class TestEachRowSetOnce:
    @pytest.mark.parametrize("pattern", [
        [], [0], [0, 1, 2, 3], [0, 1, 2, 1], [0, 0, 0, 0], [2, 0, 2, 1, 0, 2]])
    def test_first_and_last_copy_of_each_row_set(self, pattern):
        # the masks of the pool differ by one swapped row, so h - 1 of their h rows overlap
        pool = np.zeros((4, 12))
        pool[:, :5] = 1.0
        for i in range(1, 4):
            pool[i, [i, 5 + i]] = 0.0, 1.0
        masks = pool[pattern].reshape(len(pattern), 12)
        first, last = concentration._distinct(masks, 5)
        distinct = list(dict.fromkeys(pattern))
        np.testing.assert_array_equal(first, [pattern.index(v) for v in distinct])
        np.testing.assert_array_equal(
            last, [len(pattern) - 1 - pattern[::-1].index(v) for v in distinct])

    def test_searches_up_to_600_rows_match_refining_every_copy(self, monkeypatch):
        # duplicates share every fit after refinement's opening one, and the kept copy
        # stops no earlier than any of them, so the winner does not move; only the
        # C-step count falls
        designs = [leverage_design()]
        for n in (16, 40, 120, 300, 600):
            for seed in range(4):
                rng = np.random.default_rng(100 * n + seed)
                data = random_regression(rng, n, 2 + seed % 3, outlier_fraction=0.2)
                designs.append((data.design_matrix()[:, 1:], data.response_vector()))
        dropped, distinct = [], concentration._distinct

        def spy(masks, h):
            first, last = distinct(masks, h)
            dropped[-1] += len(masks) - len(first)
            return first, last
        monkeypatch.setattr(concentration, "_distinct", spy)
        for x, y in designs:
            dropped.append(0)
            fits = search_fits(x, y)
            with monkeypatch.context() as patched:
                keep_every_trial(patched)
                every = search_fits(x, y)
            for got, expected in zip(fits, every):
                assert_same_fit(got, expected, skip={"n_csteps_total"})
            assert fits[0].n_csteps_total <= every[0].n_csteps_total
        assert all(dropped)

    @pytest.mark.parametrize("n", [601, 1000, 2000])
    def test_nested_searches_find_no_higher_objective(self, monkeypatch, n):
        # copies no longer take the union phase's keep slots, so more distinct row
        # sets reach refinement
        for p, seed in ((2, 0), (4, 1)):
            rng = np.random.default_rng(10 * n + seed)
            data = random_regression(rng, n, p + 1, outlier_fraction=0.2)
            x, y = data.design_matrix()[:, 1:], data.response_vector()
            fits = search_fits(x, y)
            with monkeypatch.context() as patched:
                keep_every_trial(patched)
                every = search_fits(x, y)
            assert fits[0].objective <= every[0].objective
            assert fits[1].raw_determinant <= every[1].raw_determinant

    @pytest.mark.parametrize("estimator", ["lts", "mcd"])
    def test_refinement_runs_one_trial_per_distinct_row_set(self, monkeypatch, estimator):
        # the refinement C-steps fit the same row sets as the search that refines
        # every copy, in fewer trials
        x, y = leverage_design()
        runs = []
        for keep_every in (False, True):
            with monkeypatch.context() as patched:
                if keep_every:
                    keep_every_trial(patched)
                phases, steps = spy_on_phases(patched), []
                # a fit's sums of terms over its rows tell its row set; sums of the same rows
                # have the same bits wherever they stand in a batch
                spy_on_steps(patched, lambda sums: steps.append(
                    (len(phases), {s.tobytes() for s in sums}, len(sums))))
                fit_lts(make_dataset(x, y)) if estimator == "lts" else fit_mcd(x)
            given = phases[-1][0][1]  # the rows refinement starts from
            runs.append((given, [s[1:] for s in steps if s[0] == len(phases) - 1]))
        (given, once), (given_every, every) = runs
        assert len(given) < len(given_every) == LtsConfig().n_best_kept
        assert len({r.tobytes() for r in given}) == len(given)
        assert once and len(once) == len(every)
        for (row_sets, trials), (row_sets_every, _) in zip(once, every):
            assert row_sets == row_sets_every and trials <= len(given)
        assert sum(t for _, t in once) < sum(t for _, t in every)

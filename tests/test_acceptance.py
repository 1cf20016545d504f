"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. Tolerances are pinned here and never
loosened at runtime.
"""

import math
import time

import numpy as np

from hibreak import (
    Classification,
    Dataset,
    DiagnosticThresholds,
    LtsConfig,
    McdConfig,
    chi2_quantile,
    classify,
    exact_lts,
    exact_mcd,
    fit_lts,
    fit_mcd,
    fit_ols,
    lts_objective,
    mcd_c_step,
    render_report,
    run_analysis,
)
from hibreak.core_stats import mean_and_cov
from hibreak.errors import NotPositiveDefinite
from hibreak.lts import c_step, trimmed_size
from hibreak.pipeline import AnalysisConfig, ModelSpec

from conftest import make_dataset

THRESHOLDS = DiagnosticThresholds()


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


def random_instance(rng, n, k):
    x = rng.normal(size=(n, k - 1))
    beta = rng.normal(size=k)
    y = beta[0] + x @ beta[1:] + rng.normal(size=n)
    if rng.random() < 0.5:
        y[rng.integers(0, n)] += 25.0
    return make_dataset(x, y)


def test_criterion_1_lts_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    within = below = 0
    for _ in range(200):
        n = int(rng.integers(8, 13))
        k = int(rng.integers(2, 4))
        data = random_instance(rng, n, k)
        h = n - n // 4
        fit = fit_lts(data, LtsConfig(alpha=0.25))
        assert fit.h == h
        exact = exact_lts(data, h)
        if fit.objective < exact.best_objective:
            below += 1
        if fit.objective <= exact.best_objective * (1.0 + 1e-6):
            within += 1
    elapsed = time.perf_counter() - start
    assert below == 0, f"{below} instances beat the exhaustive oracle"
    assert within >= 190, f"only {within}/200 within 1e-6 of the oracle"
    assert elapsed <= 30.0, f"took {elapsed:.1f}s (budget 30s)"
    _passed(1, f"LTS oracle equivalence {within}/200 within 1e-6, 0 below, {elapsed:.1f}s")


def test_criterion_2_mcd_oracle_equivalence():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    within = below = 0
    for _ in range(200):
        n = int(rng.integers(8, 13))
        p = int(rng.integers(2, 4))
        x = rng.normal(size=(n, p))
        if rng.random() < 0.5:
            x[rng.integers(0, n)] += 10.0
        h = n - n // 4
        est = fit_mcd(x, McdConfig(h_fraction=(h + 0.5) / n))
        assert est.h == h
        exact = exact_mcd(x, h)
        if est.raw_determinant < exact.best_objective:
            below += 1
        if est.raw_determinant <= exact.best_objective * (1.0 + 1e-6):
            within += 1
    elapsed = time.perf_counter() - start
    assert below == 0, f"{below} instances beat the exhaustive oracle"
    assert within >= 190, f"only {within}/200 within 1e-6 of the oracle"
    assert elapsed <= 30.0, f"took {elapsed:.1f}s (budget 30s)"
    _passed(2, f"MCD oracle equivalence {within}/200 within 1e-6, 0 below, {elapsed:.1f}s")


def test_criterion_3_cstep_monotonicity():
    rng = np.random.default_rng(1003)
    steps = increases = 0
    # regression chains, started from arbitrary coefficients
    while steps < 6000:
        n = int(rng.integers(15, 35))
        data = random_instance(rng, n, int(rng.integers(2, 4)))
        h = trimmed_size(n, data.k, 0.25)
        for _ in range(6):
            beta = 3.0 * rng.normal(size=data.k)
            before = lts_objective(data, beta, h)
            for _ in range(8):
                try:
                    beta, after, _ = c_step(data, beta, h)
                except NotPositiveDefinite:
                    break
                assert after <= before, f"objective rose {before} -> {after}"
                increases += after > before
                steps += 1
                if after == before:
                    break
                before = after
    # covariance chains, started from the moments of random subsets
    while steps < 10500:
        n = int(rng.integers(14, 30))
        p = int(rng.integers(2, 4))
        x = rng.normal(size=(n, p))
        x[rng.choice(n, size=2, replace=False)] += 8.0
        h = (3 * n) // 4
        for _ in range(5):
            rows = np.sort(rng.choice(n, size=h, replace=False))
            try:
                center, cov = mean_and_cov(x[rows])
                before = float(np.linalg.det(cov))
                for _ in range(8):
                    center, cov, _, after = mcd_c_step(x, center, cov, h)
                    assert after <= before, f"determinant rose {before} -> {after}"
                    increases += after > before
                    steps += 1
                    if after == before:
                        break
                    before = after
            except NotPositiveDefinite:
                continue
    assert steps >= 10000, f"only {steps} concentration steps recorded"
    assert increases == 0
    _passed(3, f"{steps} C-steps recorded, zero objective increases")


def test_criterion_4_breakdown_contrast():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, size=100)
        y = 2.0 + 3.0 * x + rng.normal(scale=0.5, size=100)
        rows = rng.choice(100, size=30, replace=False)
        x[rows] = 10.0 + 0.1 * rng.normal(size=30)
        y[rows] = -30.0 + 0.5 * rng.normal(size=30)
        data = make_dataset(x, y)
        lts_slope = fit_lts(data, LtsConfig(alpha=0.3, seed=seed)).coefficients[1]
        ols_slope = fit_ols(data).coefficients[1]
        assert 2.8 <= lts_slope <= 3.2, f"seed {seed}: LTS slope {lts_slope}"
        assert abs(ols_slope - 3.0) > 1.0, f"seed {seed}: OLS slope {ols_slope}"
    _passed(4, "20/20 seeds: LTS slope within [2.8, 3.2], OLS slope error > 1")


def test_criterion_5_gaussian_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    n = 5000
    y = rng.normal(size=n)
    data = Dataset(
        row_labels=tuple(map(str, range(n))),
        column_names=("y", "one"),
        response="y",
        predictors=("one",),
        values=np.column_stack([y, np.ones(n)]),
        has_intercept=False,
    )
    fit = fit_lts(data, LtsConfig(alpha=0.25, seed=1))
    flagged = float(np.mean(np.abs(fit.standardized_residuals) > 2.5))
    assert flagged <= 0.03, f"flag rate {flagged:.4f} above 3%"

    x = rng.normal(size=(2000, 2))
    est = fit_mcd(x, McdConfig(h_fraction=0.75, seed=1))
    median = float(np.median(est.robust_distances))
    target = math.sqrt(chi2_quantile(0.5, 2))
    assert abs(median - target) <= 0.10 * target, f"median {median} vs {target}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"took {elapsed:.1f}s (budget 60s)"
    _passed(
        5,
        f"flag rate {100 * flagged:.2f}% <= 3%, median distance "
        f"{median:.3f} within 10% of {target:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_published_classification_vectors():
    # severe vertical outlier: dropped
    rec = classify(-5.41, 0.5, THRESHOLDS, p=4)
    assert rec.classification is Classification.VERTICAL_OUTLIER and rec.drop_recommended
    # three bad leverage points at p=3
    for sr, rd in [(4.21, 7.25), (-6.14, 9.36), (-3.16, 5.98)]:
        rec = classify(sr, rd, THRESHOLDS, p=3)
        assert rec.classification is Classification.BAD_LEVERAGE and rec.drop_recommended
    # two mildly leveraged years at p=2: flagged and dropped
    for sr, rd in [(2.60, 3.65), (2.82, 3.55)]:
        rec = classify(sr, rd, THRESHOLDS, p=2)
        assert rec.classification is not Classification.REGULAR
        assert rec.drop_recommended
    # band exceedance without leverage, below the severe cutoff: retained
    for sr in (2.5, 2.8, 3.2):
        rec = classify(sr, 1.0, THRESHOLDS, p=3)
        assert rec.classification is Classification.VERTICAL_OUTLIER
        assert not rec.drop_recommended
    _passed(6, "all published residual/distance vectors reproduce the reported calls")


def test_criterion_7_table_arithmetic_consistency():
    from hibreak.ols import t_and_p

    cases = [
        (4.78, 1.37, 3.49),      # growth coefficient
        (0.265, 0.0653, 4.06),   # equipment investment
        (-0.030, 0.1984, -0.15),
        (-3.59, 8.58, -0.42),
        (-1.05, 1.15, -0.91),
        (-2.97, 1.16, -2.56),
        (3.26, 7.82, 0.42),
    ]
    t, _ = t_and_p(
        np.array([c for c, _, _ in cases]),
        np.array([s for _, s, _ in cases]),
        25,
    )
    for (coeff, se, printed), computed in zip(cases, t):
        assert round(float(computed), 2) == printed, (coeff, se, printed, computed)
    _passed(7, "t = coeff/SE matches every internally consistent printed row")


def test_criterion_8_equivariance_suite():
    rng = np.random.default_rng(1008)
    # OLS
    x = rng.normal(size=(14, 2))
    y = 1.0 + x @ np.array([2.0, -1.0]) + rng.normal(size=14)
    y[3] += 12.0
    data = make_dataset(x, y)
    v = np.array([0.7, -1.1, 2.2])
    shifted = make_dataset(x, y + data.design_matrix() @ v)
    scaled = make_dataset(x, 2.5 * y)
    base = fit_ols(data)
    np.testing.assert_allclose(
        fit_ols(shifted).coefficients, base.coefficients + v, rtol=1e-6
    )
    np.testing.assert_allclose(
        fit_ols(scaled).coefficients, 2.5 * base.coefficients, rtol=1e-6
    )
    # LTS with deterministic exhaustive starts (n <= 16)
    cfg = LtsConfig(alpha=0.25, seed=0)
    lts_base = fit_lts(data, cfg)
    lts_shift = fit_lts(shifted, cfg)
    lts_scale = fit_lts(scaled, cfg)
    np.testing.assert_allclose(
        lts_shift.coefficients, lts_base.coefficients + v, rtol=1e-6, atol=1e-9
    )
    np.testing.assert_array_equal(lts_shift.h_subset, lts_base.h_subset)
    np.testing.assert_allclose(
        lts_scale.coefficients, 2.5 * lts_base.coefficients, rtol=1e-6
    )
    np.testing.assert_allclose(lts_scale.robust_scale, 2.5 * lts_base.robust_scale, rtol=1e-6)
    np.testing.assert_array_equal(lts_scale.h_subset, lts_base.h_subset)
    # MCD affine equivariance and distance invariance
    pts = rng.normal(size=(14, 2))
    pts[:2] += 9.0
    a = np.array([[1.8, 0.4], [-0.6, 1.2]])
    b = np.array([5.0, -3.0])
    mcd_base = fit_mcd(pts, McdConfig(h_fraction=0.75))
    mcd_moved = fit_mcd(pts @ a.T + b, McdConfig(h_fraction=0.75))
    np.testing.assert_allclose(
        mcd_moved.center, mcd_base.center @ a.T + b, rtol=1e-6, atol=1e-8
    )
    np.testing.assert_allclose(
        mcd_moved.scatter, a @ mcd_base.scatter @ a.T, rtol=1e-6, atol=1e-8
    )
    np.testing.assert_allclose(
        mcd_moved.robust_distances, mcd_base.robust_distances, rtol=1e-6
    )
    _passed(8, "OLS/LTS regression and scale equivariance, MCD affine equivariance at 1e-6")


def test_criterion_9_pipeline_determinism_and_fixed_point():
    rng = np.random.default_rng(1009)
    x = rng.uniform(0, 3, size=40)
    y = 2.0 + 3.0 * x + rng.normal(scale=0.3, size=40)
    x[:4] = 10.0
    y[:4] = -20.0
    data = make_dataset(x, y)
    config = AnalysisConfig(
        model=ModelSpec("y", ("x1",)), lts=LtsConfig(seed=11), mcd=McdConfig(seed=11)
    )
    first = render_report(run_analysis(data, config), "json")
    second = render_report(run_analysis(data, config), "json")
    assert first.encode("utf-8") == second.encode("utf-8")

    clean_x = rng.uniform(-2, 2, size=30)
    clean = make_dataset(clean_x, 1.0 + 2.0 * clean_x + rng.normal(scale=0.1, size=30))
    report = run_analysis(clean, AnalysisConfig(model=ModelSpec("y", ("x1",))))
    assert report.dropped == []
    np.testing.assert_array_equal(
        report.robust_fit.coefficients, report.ols_fit.coefficients
    )
    np.testing.assert_array_equal(report.robust_fit.residuals, report.ols_fit.residuals)
    assert report.robust_fit.r_squared == report.ols_fit.r_squared
    _passed(9, "byte-identical JSON across seeded runs; robust fit equals OLS with no flags")

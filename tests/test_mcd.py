import numpy as np
import pytest

from hibreak import (
    McdConfig,
    c_step,
    exact_mcd,
    fit_mcd,
    lts_objective,
    mcd_c_step,
    robust_distances,
)
from hibreak.core_stats import mean_and_cov
from hibreak.errors import AllStartsDegenerate, ConstantColumn, NotPositiveDefinite
from hibreak.mcd import evaluate_subsets, scatter_consistency_factor, subset_size

from conftest import make_dataset, random_points


def cluster_with_far_points(rng, n_cluster=10, n_far=2, spread=0.1, dist=100.0):
    x = spread * rng.normal(size=(n_cluster, 2))
    far = dist + rng.normal(size=(n_far, 2))
    return np.vstack([x, far])


class TestMcdCStep:
    def test_one_step_isolates_cluster(self, rng):
        # classical moments of cluster + far points are wildly inflated, yet
        # the far points are still farther in Mahalanobis distance
        x = cluster_with_far_points(rng)
        center, scatter = mean_and_cov(x)
        new_center, new_cov, subset, det = mcd_c_step(x, center, scatter, 10)
        np.testing.assert_array_equal(subset, np.arange(10))
        assert det < np.linalg.det(scatter)
        assert np.linalg.norm(new_center) < 1.0

    def test_fixed_point_idempotence(self, rng):
        x = rng.normal(size=(20, 2))
        center, cov, subset, det = mcd_c_step(x, x.mean(axis=0), np.cov(x, rowvar=False), 15)
        for _ in range(30):
            center, cov, new_subset, new_det = mcd_c_step(x, center, cov, 15)
            if np.array_equal(new_subset, subset):
                break
            subset, det = new_subset, new_det
        center2, cov2, subset2, det2 = mcd_c_step(x, center, cov, 15)
        np.testing.assert_array_equal(subset2, subset)
        assert det2 == new_det

    def test_determinant_monotone_chains(self, rng):
        for _ in range(100):
            n = int(rng.integers(10, 18))
            x = random_points(rng, n, 2, outliers=2)
            h = max(3, (3 * n) // 4)
            start = np.sort(rng.choice(n, size=3, replace=False))
            try:
                center, cov = mean_and_cov(x[start])
                prev = None
                for _ in range(10):
                    center, cov, _, det = mcd_c_step(x, center, cov, h)
                    if prev is not None:
                        assert det <= prev
                    prev = det
            except NotPositiveDefinite:
                continue

    def test_singular_input_scatter(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(NotPositiveDefinite):
            mcd_c_step(x, np.zeros(2), np.zeros((2, 2)), 8)

    @pytest.mark.parametrize("h", [-1, 0, 2, 21])
    def test_h_out_of_range(self, rng, h):
        # h = p leaves a singular covariance; h = -1 used to return an 18-row step
        x = rng.normal(size=(20, 2))
        with pytest.raises(ValueError, match=r"h must lie in \[3, 20\]"):
            mcd_c_step(x, np.zeros(2), np.eye(2), h)


class TestFitMcd:
    def test_matches_oracle_small_instances(self, rng):
        wins = 0
        for _ in range(40):
            n = int(rng.integers(8, 13))
            x = random_points(rng, n, 2, outliers=1)
            h = n - n // 4
            est = fit_mcd(x, McdConfig(h_fraction=(h + 0.5) / n))
            exact = exact_mcd(x, h)
            assert est.raw_determinant >= exact.best_objective
            if est.raw_determinant <= exact.best_objective * (1.0 + 1e-6):
                wins += 1
        assert wins >= 38

    def test_excludes_planted_far_points(self, rng):
        x = cluster_with_far_points(rng, n_cluster=12, n_far=3)
        est = fit_mcd(x, McdConfig(h_fraction=0.75, seed=2))
        assert set(est.best_subset) <= set(range(12))
        assert np.all(est.robust_distances[12:] > est.robust_distances[:12].max())

    def test_affine_equivariance_and_distance_invariance(self, rng):
        x = random_points(rng, 14, 2, outliers=2)
        a = np.array([[2.0, 0.5], [-0.3, 1.5]])
        b = np.array([10.0, -4.0])
        base = fit_mcd(x, McdConfig(h_fraction=0.75))
        moved = fit_mcd(x @ a.T + b, McdConfig(h_fraction=0.75))
        np.testing.assert_array_equal(moved.best_subset, base.best_subset)
        np.testing.assert_allclose(moved.center, base.center @ a.T + b, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(
            moved.scatter, a @ base.scatter @ a.T, rtol=1e-6, atol=1e-8
        )
        np.testing.assert_allclose(
            moved.robust_distances, base.robust_distances, rtol=1e-6
        )

    def test_permutation_invariant_objective(self, rng):
        x = random_points(rng, 12, 2, outliers=2)
        perm = rng.permutation(12)
        a = fit_mcd(x, McdConfig(h_fraction=0.75))
        b = fit_mcd(x[perm], McdConfig(h_fraction=0.75))
        assert np.isclose(a.raw_determinant, b.raw_determinant, rtol=1e-10)

    def test_deterministic_given_seed(self, rng):
        x = random_points(rng, 40, 3, outliers=4)
        a = fit_mcd(x, McdConfig(seed=6))
        b = fit_mcd(x, McdConfig(seed=6))
        np.testing.assert_array_equal(a.center, b.center)
        np.testing.assert_array_equal(a.best_subset, b.best_subset)
        assert a.raw_determinant == b.raw_determinant

    def test_identical_rows_with_one_far_point_degenerates(self):
        # every concentration step lands on the zero-variance subset of
        # identical rows, so no trial survives
        x = np.array([[5.0], [5.0], [5.0], [5.0], [5.0], [100.0]])
        with pytest.raises(AllStartsDegenerate):
            fit_mcd(x, McdConfig(h_fraction=(5 + 0.5) / 6))

    def test_scatter_near_underflow_degenerates(self):
        # each start's variance (about 1e-316) factors, but its inverse
        # overflows; such trials are dropped instead of ranking rows by inf
        x = np.zeros((8, 1))
        x[7, 0] = 4.33932732e-158
        with pytest.raises(AllStartsDegenerate):
            fit_mcd(x)

    @pytest.mark.parametrize("scale", [1e140, 1e150, 1e155, 1e160])
    def test_determinant_past_the_float_range_degenerates(self, scale):
        # the moments are finite, but every determinant (about scale**4) is not
        x = np.random.default_rng(0).standard_normal((30, 2)) * scale
        with pytest.raises(AllStartsDegenerate):
            fit_mcd(x)

    def test_subset_with_an_infinite_determinant_is_dropped_alone(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e100, 0.0], [0.0, 1e100]])
        kept, det, fit = evaluate_subsets(x, np.array([[2, 3, 4], [0, 1, 2], [1, 3, 4]]))
        alone = evaluate_subsets(x, np.array([[0, 1, 2]]))
        assert kept.tolist() == [1]
        assert det.tobytes() == alone[1].tobytes()
        np.testing.assert_array_equal(fit(0)[1], alone[2](0)[1])

    def test_constant_column(self, rng):
        x = np.column_stack([np.ones(12), rng.normal(size=12)])
        with pytest.raises(ConstantColumn):
            fit_mcd(x, McdConfig())

    def test_h_fraction_must_exceed_half(self):
        with pytest.raises(ValueError):
            McdConfig(h_fraction=0.5)
        with pytest.raises(ValueError):
            McdConfig(h_fraction=1.2)

    def test_too_few_rows(self, rng):
        with pytest.raises(ValueError):
            fit_mcd(rng.normal(size=(5, 2)), McdConfig())

    def test_not_two_dimensional(self, rng):
        with pytest.raises(ValueError, match="n x p matrix"):
            fit_mcd(rng.normal(size=12))


class TestRobustDistances:
    def test_center_maps_to_zero(self, rng):
        x = random_points(rng, 16, 2)
        est = fit_mcd(x, McdConfig(h_fraction=0.75))
        d = robust_distances(np.vstack([est.center, x]), est)
        assert d[0] <= 1e-12
        np.testing.assert_allclose(d[1:], est.robust_distances, rtol=1e-12)

    def test_one_dimensional_hand_case(self, rng):
        # center 0, corrected variance 4 -> x=6 sits 3 sigma out
        x = random_points(rng, 12, 1)
        est = fit_mcd(x, McdConfig(h_fraction=0.75))
        est.center = np.array([0.0])
        est.scatter = np.array([[4.0]])
        d = robust_distances(np.array([[6.0]]), est)
        assert np.isclose(d[0], 3.0, rtol=1e-12)

    def test_all_distances_nonnegative(self, rng):
        x = random_points(rng, 30, 3, outliers=3)
        est = fit_mcd(x, McdConfig(seed=1))
        assert np.all(est.robust_distances >= 0.0)


class TestConsistencyFactor:
    def test_no_trim_is_one(self):
        assert scatter_consistency_factor(20, 20, 2) == 1.0

    def test_closed_form_hand_value(self):
        # q=0.75, p=2: chi2_quantile(0.75,2) = 2*ln(4) and the chi2(4) CDF is
        # elementary, so factor = 0.75 / (1 - 0.25*(1 + ln(4))) = 1.8590751...
        assert np.isclose(
            scatter_consistency_factor(75, 100, 2), 1.8590751173689652, rtol=1e-12
        )

    def test_subset_size(self):
        assert subset_size(100, 0.75) == 75
        assert subset_size(11, 0.75) == 8


def _with(a, value):
    """A float copy of a with its last entry set to value."""
    a = np.array(a, dtype=float)
    a.flat[-1] = value
    return a


X12 = random_points(np.random.default_rng(0), 12, 2)
DATA12 = make_dataset(X12[:, 0], X12[:, 1])


@pytest.mark.parametrize("call, name", [
    (lambda: fit_mcd(_with(X12, np.nan)), "x"),
    (lambda: mcd_c_step(_with(X12, np.nan), np.zeros(2), np.eye(2), 9), "x"),
    (lambda: mcd_c_step(X12, _with(np.zeros(2), np.nan), np.eye(2), 9), "center"),
    (lambda: mcd_c_step(X12, np.zeros(2), _with(np.eye(2), np.inf), 9), "scatter"),
    (lambda: exact_mcd(_with(X12, np.nan), 9), "x"),
    (lambda: robust_distances(_with(X12, -np.inf), fit_mcd(X12, McdConfig(n_starts=20))), "x"),
    (lambda: c_step(DATA12, _with(np.zeros(2), np.inf), 9), "beta"),
    (lambda: lts_objective(DATA12, _with(np.zeros(2), np.nan), 9), "beta"),
], ids=["fit_mcd", "mcd_c_step_x", "mcd_c_step_center", "mcd_c_step_scatter", "exact_mcd",
        "robust_distances", "c_step_beta", "lts_objective_beta"])
def test_raw_array_input_must_be_finite(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        call()

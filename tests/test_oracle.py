import itertools
import math
import re

import numpy as np
import pytest

from hibreak import OracleResult, concentration, exact_lts, exact_mcd, fit_ols, lts, mcd
from hibreak.core_stats import cho_apply, cholesky_spd, factor_determinant, mean_and_cov
from hibreak.errors import AllStartsDegenerate, NotPositiveDefinite, TooLarge
from hibreak.lts import trimmed_size
from hibreak.mcd import subset_size
from hibreak.oracle import MAX_SUBSETS

from conftest import make_dataset, random_points, random_regression


# The plain one-subset-at-a-time loop that the chunked oracles must
# reproduce bit for bit.


def reference_enumerate(n, h, evaluate, degenerate):
    best = None
    evaluated = 0
    for combo in itertools.combinations(range(n), h):
        rows = np.array(combo)
        try:
            objective, fit = evaluate(rows)
        except NotPositiveDefinite:
            continue
        evaluated += 1
        if best is None or objective < best[0]:
            best = (objective, rows, fit)
    if best is None:
        raise AllStartsDegenerate(f"all C({n}, {h}) subsets were {degenerate}")
    objective, rows, fit = best
    return OracleResult(rows, objective, fit, evaluated)


def lts_subset(x, y, rows, h):
    xs = x[rows]
    low = cholesky_spd(xs.T @ xs)
    beta = cho_apply(low, xs.T @ y[rows])
    r = y - x @ beta
    return float(np.sort(r * r)[:h].sum()), beta


def mcd_subset(x, rows):
    center, cov = mean_and_cov(x[rows])
    return float(factor_determinant(cholesky_spd(cov))), (center, cov)


def reference_lts(data, h):
    x = data.design_matrix()
    y = data.response_vector()
    return reference_enumerate(len(y), h, lambda rows: lts_subset(x, y, rows, h), "rank deficient")


def reference_mcd(x, h):
    x = np.asarray(x, dtype=float)
    return reference_enumerate(len(x), h, lambda rows: mcd_subset(x, rows), "degenerate")


def assert_bit_identical(result, reference):
    np.testing.assert_array_equal(result.best_subset, reference.best_subset)
    assert result.best_objective == reference.best_objective
    assert result.n_subsets_evaluated == reference.n_subsets_evaluated
    fit, expected = result.coefficients_or_moments, reference.coefficients_or_moments
    if isinstance(expected, tuple):
        assert len(fit) == len(expected)
        for got, want in zip(fit, expected):
            assert np.array_equal(got, want)
    else:
        assert np.array_equal(fit, expected)


def assert_lts_matches_reference(data, h):
    try:
        expected = reference_lts(data, h)
    except AllStartsDegenerate as err:
        with pytest.raises(AllStartsDegenerate, match=re.escape(str(err))):
            exact_lts(data, h)
        return None
    assert_bit_identical(exact_lts(data, h), expected)
    return expected


def assert_mcd_matches_reference(x, h):
    try:
        expected = reference_mcd(x, h)
    except AllStartsDegenerate as err:
        with pytest.raises(AllStartsDegenerate, match=re.escape(str(err))):
            exact_mcd(x, h)
        return None
    assert_bit_identical(exact_mcd(x, h), expected)
    return expected


class TestExactLts:
    def test_h_equals_n_is_ols(self, rng):
        data = random_regression(rng, 12, 3)
        result = exact_lts(data, 12)
        ols = fit_ols(data)
        np.testing.assert_allclose(
            result.coefficients_or_moments, ols.coefficients, rtol=1e-10
        )
        r = data.response_vector() - data.design_matrix() @ ols.coefficients
        assert np.isclose(result.best_objective, float(r @ r), rtol=1e-10)
        assert result.n_subsets_evaluated == 1

    def test_staircase_hand_enumeration(self):
        # C(4,3)=4 subsets; rows {0,1,2} lie exactly on y=x, objective 0
        data = make_dataset([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 100.0])
        result = exact_lts(data, 3)
        np.testing.assert_array_equal(result.best_subset, [0, 1, 2])
        np.testing.assert_allclose(result.coefficients_or_moments, [0.0, 1.0], atol=1e-12)
        assert result.best_objective <= 1e-24
        assert result.n_subsets_evaluated == 4

    def test_permutation_invariant_objective(self, rng):
        data = random_regression(rng, 10, 2, outlier_fraction=0.2)
        perm = rng.permutation(10)
        shuffled = make_dataset(
            data.predictor_matrix()[perm], data.response_vector()[perm]
        )
        a = exact_lts(data, 8)
        b = exact_lts(shuffled, 8)
        assert np.isclose(a.best_objective, b.best_objective, rtol=1e-10)

    def test_budget_guard(self, rng):
        data = random_regression(rng, 40, 2)
        with pytest.raises(TooLarge):
            exact_lts(data, 20)

    def test_all_subsets_degenerate(self):
        data = make_dataset(np.ones(6), np.arange(6.0))
        with pytest.raises(AllStartsDegenerate):
            exact_lts(data, 4)

    def test_h_below_k_plus_one(self, rng):
        data = random_regression(rng, 8, 2)
        with pytest.raises(ValueError):
            exact_lts(data, 2)

    def test_h_above_n(self, rng):
        with pytest.raises(ValueError, match="exceeds n"):
            exact_lts(random_regression(rng, 8, 2), 9)


class TestExactMcd:
    def test_skips_degenerate_exact_fit(self):
        # the all-identical 4-subset has zero variance: degenerate, skipped;
        # the winner must include the far point
        x = np.array([[5.0], [5.0], [5.0], [5.0], [100.0]])
        result = exact_mcd(x, 4)
        assert 4 in result.best_subset
        assert result.best_objective > 0.0
        assert result.n_subsets_evaluated == math.comb(5, 4) - 1

    def test_cluster_wins(self, rng):
        x = np.vstack([0.1 * rng.normal(size=(8, 2)), 50.0 + rng.normal(size=(2, 2))])
        result = exact_mcd(x, 6)
        assert set(result.best_subset) <= set(range(8))
        center, cov = result.coefficients_or_moments
        assert np.linalg.norm(center) < 1.0
        assert cov.shape == (2, 2)

    def test_permutation_invariant_objective(self, rng):
        x = random_points(rng, 10, 2, outliers=2)
        perm = rng.permutation(10)
        a = exact_mcd(x, 7)
        b = exact_mcd(x[perm], 7)
        assert np.isclose(a.best_objective, b.best_objective, rtol=1e-10)

    def test_budget_guard(self, rng):
        with pytest.raises(TooLarge):
            exact_mcd(rng.normal(size=(45, 2)), 22)

    def test_h_below_p_plus_one(self, rng):
        with pytest.raises(ValueError):
            exact_mcd(rng.normal(size=(8, 3)), 3)

    def test_h_above_n(self, rng):
        with pytest.raises(ValueError, match="exceeds n"):
            exact_mcd(rng.normal(size=(8, 2)), 9)


@pytest.mark.parametrize("size", [1, 2, 5, 97, 1 << 40])
def test_chunks_are_the_combinations_in_order(size):
    # every chunk but the last holds size subsets; the last holds at least one
    for n in range(1, 13):
        for h in range(1, n + 1):
            chunks = list(concentration.lexicographic_chunks(n, h, size))
            expected = np.array(list(itertools.combinations(range(n), h)))
            np.testing.assert_array_equal(np.concatenate(chunks), expected)
            assert all(chunk.dtype == np.intp and chunk.shape[1] == h for chunk in chunks)
            assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
            assert 1 <= len(chunks[-1]) <= size


@pytest.mark.parametrize("n, h, size", [(3000, 1, 10**9), (3000, 1, 7), (300, 2, 10**9),
                                        (3000, 2999, 7), (200, 198, 40), (40, 37, 1000)])
def test_chunks_of_long_ranges(n, h, size):
    # thousands of rows, on either side of h = n / 2: the smaller of h and n - h
    # members are read off by rank, and the larger side is their complement
    chunks = list(concentration.lexicographic_chunks(n, h, size))
    expected = np.array(list(itertools.combinations(range(n), h)))
    np.testing.assert_array_equal(np.concatenate(chunks), expected)
    assert len(chunks) == -(-len(expected) // size)


@pytest.mark.parametrize("elements", [1, 97, 1 << 40], ids=["one", "middle", "all"])
def test_oracle_chunks_stay_within_the_budget(monkeypatch, elements):
    # the chunks exact_mcd evaluates, on one column (width 1) and on two
    monkeypatch.setattr(concentration, "_BLOCK_ELEMENTS", elements)
    evaluate, seen = mcd.evaluate_subsets, []
    monkeypatch.setattr(mcd, "evaluate_subsets",
                        lambda x, subsets: seen.append(subsets.copy()) or evaluate(x, subsets))
    rng = np.random.default_rng(5)
    for n in range(3, 13):
        for width in (1, 2):
            for h in range(width + 1, n + 1):
                seen.clear()
                exact_mcd(rng.normal(size=(n, width)), h)
                expected = np.array(list(itertools.combinations(range(n), h)))
                np.testing.assert_array_equal(np.concatenate(seen), expected)
                assert all(len(s) * n * width <= elements or len(s) == 1 for s in seen)


@pytest.mark.parametrize("call", [
    pytest.param(lambda data: exact_lts(data, trimmed_size(data.n, data.k, 0.25)), id="exact_lts"),
    pytest.param(lambda data: exact_mcd(data.predictor_matrix(), subset_size(data.n, 0.75)),
                 id="exact_mcd"),
])
def test_too_large_says_so_in_one_line(call):
    # C(20000, 15000) has about 4,800 digits, past Python's limit on int-to-str conversion
    data = random_regression(np.random.default_rng(0), 20_000, 2)
    with pytest.raises(TooLarge) as raised:
        call(data)
    assert str(raised.value) == f"C(20000, 15000) exceeds {MAX_SUBSETS} subsets"


@pytest.fixture(params=[1, 1 << 40], ids=["chunk_of_one", "one_chunk"])
def chunk_bound(request, monkeypatch):
    """Chunks of one subset (every best-so-far update crosses a chunk) or all in one chunk."""
    monkeypatch.setattr(concentration, "_BLOCK_ELEMENTS", request.param)


@pytest.mark.usefixtures("chunk_bound")
class TestChunkedMatchesLoop:
    def test_random_designs(self, rng):
        for n, k, h in [(8, 2, 5), (10, 3, 8), (12, 2, 9), (9, 4, 9)]:
            assert_lts_matches_reference(random_regression(rng, n, k, outlier_fraction=0.2), h)
        for n, p, h in [(8, 1, 5), (10, 2, 7), (11, 3, 8), (9, 2, 9)]:
            assert_mcd_matches_reference(random_points(rng, n, p, outliers=2), h)

    def test_determinant_squared_as_on_scalar_path(self):
        # here the winner's diagonal product v has v * v one ulp away from
        # the scalar path's v ** 2
        x = random_points(np.random.default_rng(2061), 8, 2, outliers=2)
        expected = assert_mcd_matches_reference(x, 6)
        low = cholesky_spd(expected.coefficients_or_moments[1])
        product = low.diagonal().prod()
        assert product * product == expected.best_objective != product ** 2

    def test_staircase_exact_fit(self):
        data = make_dataset([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 100.0])
        assert_lts_matches_reference(data, 3)
        x = np.arange(10.0)
        y = 3.7 * x + 1.3
        y[[2, 7]] += [40.0, -25.0]
        assert_lts_matches_reference(make_dataset(x, y), 7)
        assert_mcd_matches_reference(np.array([[5.0], [5.0], [5.0], [5.0], [100.0]]), 4)

    def test_designs_with_degenerate_subsets(self, rng):
        x = rng.normal(size=(9, 2))
        x[1] = x[0]
        x[5] = x[4]
        y = x @ [1.5, -2.0] + rng.normal(size=9)
        y[1] = y[0]
        expected = assert_lts_matches_reference(make_dataset(x, y), 4)
        assert expected.n_subsets_evaluated < math.comb(9, 4)
        expected = assert_mcd_matches_reference(x, 3)
        assert expected.n_subsets_evaluated < math.comb(9, 3)
        dummy = np.column_stack([rng.normal(size=10), (np.arange(10) < 3).astype(float)])
        y = dummy @ [0.5, 4.0] + rng.normal(size=10)
        expected = assert_lts_matches_reference(make_dataset(dummy, y), 6)
        assert expected.n_subsets_evaluated < math.comb(10, 6)
        expected = assert_mcd_matches_reference(dummy, 6)
        assert expected.n_subsets_evaluated < math.comb(10, 6)

    def test_dummy_designs_rejected_mid_chunk(self, rng):
        # the 0/1 column is 0 on every row of some h-subsets between the first
        # and the last in lexicographic order; their normal equations and
        # covariances have an exactly zero pivot, which LAPACK rejects
        dummy = np.isin(np.arange(12), [0, 5, 11]).astype(float)
        x = np.column_stack([rng.normal(size=12), dummy])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.cov(x[dummy == 0][:8], rowvar=False))
        data = make_dataset(x, x @ [0.5, 4.0] + rng.normal(size=12))
        expected = assert_lts_matches_reference(data, 7)
        assert expected.n_subsets_evaluated == math.comb(12, 7) - math.comb(9, 7)
        expected = assert_mcd_matches_reference(x, 8)
        assert expected.n_subsets_evaluated == math.comb(12, 8) - math.comb(9, 8)

    def test_exact_ties_go_to_first_subset(self):
        # rows 0 and 1 are the same y-outlier, so dropping either gives the
        # same design bit for bit; (0, 2, ...) precedes (1, 2, ...)
        data = make_dataset([3.5, 3.5, 1.0, 2.0, 4.0, 5.0, 6.0], [50.0, 50.0, 1.1, 1.9, 4.05, 5.0, 6.1])
        expected = assert_lts_matches_reference(data, 6)
        np.testing.assert_array_equal(expected.best_subset, [0, 2, 3, 4, 5, 6])
        x, y = data.design_matrix(), data.response_vector()
        assert lts_subset(x, y, np.array([1, 2, 3, 4, 5, 6]), 6)[0] == expected.best_objective
        # pairs of distinct points all have variance 0.5
        expected = assert_mcd_matches_reference(np.array([[0.0], [0.0], [1.0], [1.0], [5.0]]), 2)
        np.testing.assert_array_equal(expected.best_subset, [0, 2])

    def test_all_degenerate(self):
        assert assert_lts_matches_reference(make_dataset(np.ones(6), np.arange(6.0)), 4) is None
        line = np.outer(np.arange(6.0), [1.0, 2.0])
        assert assert_mcd_matches_reference(line, 4) is None

    def test_offset_designs(self, rng):
        for n, k, h in [(10, 2, 7), (11, 3, 8)]:
            data = random_regression(rng, n, k, outlier_fraction=0.2)
            shifted = make_dataset(data.predictor_matrix() + 1e5, data.response_vector())
            assert_lts_matches_reference(shifted, h)
        for n, p, h in [(10, 1, 7), (11, 2, 8), (10, 3, 7)]:
            assert_mcd_matches_reference(random_points(rng, n, p, outliers=2) + 1e5, h)


def flat(estimate):
    """Coefficients, or a (center, covariance) pair, as one flat array."""
    return np.concatenate([np.ravel(part) for part in estimate])


def assert_evaluator_matches(evaluate, subsets, reference):
    """evaluate, on a (T, h) stack and on each subset alone, equals reference bit for bit."""
    expected = [reference(rows) for rows in subsets]
    stacked = evaluate(subsets)
    alone = [evaluate(rows[None]) for rows in subsets]
    assert stacked[0].tolist() == list(range(len(subsets)))
    assert all(kept.tolist() == [0] for kept, _, _ in alone)
    results = [(stacked[1][t], stacked[2](t)) for t in range(len(subsets))]
    results += [(objectives[0], fit(0)) for _, objectives, fit in alone]
    for (objective, estimate), (want, want_estimate) in zip(results, 2 * expected):
        assert objective == want
        assert np.array_equal(flat(estimate), flat(want_estimate))


@pytest.mark.parametrize("n, p", [
    pytest.param(1000, 4, id="1000"), pytest.param(5000, 4, id="5000"),
    *(pytest.param(n, p, id=f"{n}-{p}") for n in (50, 500) for p in (2, 10)),
])
def test_evaluators_match_reference_at_refit_sizes(n, p):
    # the evaluators also rank the searches' refined trials in one stacked
    # call, whose subsets hold most of the n rows
    rng = np.random.default_rng(n)
    data = random_regression(rng, n, p + 1, outlier_fraction=0.2)
    x, y = data.design_matrix(), data.response_vector()
    h = trimmed_size(n, p + 1, 0.25)
    subsets = np.array([np.sort(rng.choice(n, size=h, replace=False)) for _ in range(10)])
    assert_evaluator_matches(lambda s: lts.evaluate_subsets(x, y, s, h), subsets,
                             lambda rows: lts_subset(x, y, rows, h))
    points = random_points(rng, n, p, outliers=n // 5)
    h = subset_size(n, 0.75)
    subsets = np.array([np.sort(rng.choice(n, size=h, replace=False)) for _ in range(10)])
    assert_evaluator_matches(lambda s: mcd.evaluate_subsets(points, s), subsets,
                             lambda rows: mcd_subset(points, rows))


HUGE_CLOUD = np.random.default_rng(0).standard_normal((12, 2)) * 1e160
HUGE_RESPONSE = make_dataset(HUGE_CLOUD[:, 0] / 1e160, HUGE_CLOUD[:, 1] * 1e40)  # y near 1e200


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda data: exact_lts(data, 9), AllStartsDegenerate, id="exact_lts"),
    pytest.param(lambda data: exact_mcd(HUGE_CLOUD, 9), AllStartsDegenerate, id="exact_mcd"),
    pytest.param(lambda data: lts.c_step(data, np.ones(2), 9), NotPositiveDefinite, id="c_step"),
    pytest.param(lambda data: mcd.mcd_c_step(HUGE_CLOUD, np.zeros(2), np.eye(2), 9),
                 NotPositiveDefinite, id="mcd_c_step"),
    pytest.param(lambda data: exact_lts(HUGE_RESPONSE, 9), AllStartsDegenerate,
                 id="exact_lts_huge_response"),
    pytest.param(lambda data: lts.c_step(HUGE_RESPONSE, np.zeros(2), 9), NotPositiveDefinite,
                 id="c_step_huge_response"),
])
def test_overflow_raises_the_documented_error_silently(call, error):
    # squares of cells near 1e160, and a trimmed sum of squares of y near
    # 1e200, overflow; the pytest config turns a RuntimeWarning into an error
    with pytest.raises(error):
        call(make_dataset(HUGE_CLOUD[:, 0], HUGE_CLOUD[:, 1]))

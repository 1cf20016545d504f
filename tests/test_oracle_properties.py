"""Property tests: the searches never beat the exhaustive oracles, the
chunked oracles equal the one-subset-at-a-time loop on generated designs,
and no C-step raises its objective."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hibreak import c_step, exact_lts, exact_mcd, fit_lts, fit_mcd, lts_objective, mcd, mcd_c_step
from hibreak.errors import (
    AllStartsDegenerate,
    ConstantColumn,
    NotPositiveDefinite,
)

from conftest import make_dataset
from test_oracle import assert_lts_matches_reference, assert_mcd_matches_reference

# Fixed and derandomized, so that the suite stays fast and repeatable;
# degenerate draws are discarded, and draw speed varies with the host.
EXAMPLES = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def matrices(n, columns):
    # fill=nothing() draws every entry, instead of mostly one fill value
    return arrays(np.float64, (n, columns), elements=values, fill=st.nothing())


@st.composite
def regressions(draw):
    n = draw(st.integers(8, 14))
    k = draw(st.integers(2, 3))
    xy = draw(matrices(n, k))
    return make_dataset(xy[:, 1:], xy[:, 0])


@st.composite
def point_clouds(draw):
    return draw(matrices(draw(st.integers(8, 14)), draw(st.integers(1, 3))))


@EXAMPLES
@given(regressions())
def test_lts_search_never_beats_oracle(data):
    try:
        fit = fit_lts(data)
        exact = exact_lts(data, fit.h)
    except AllStartsDegenerate:
        assume(False)
    assert fit.objective >= exact.best_objective


@EXAMPLES
@given(point_clouds())
def test_mcd_search_never_beats_oracle(x):
    try:
        estimate = fit_mcd(x)
        exact = exact_mcd(x, estimate.h)
    except (AllStartsDegenerate, ConstantColumn):
        assume(False)
    assert estimate.raw_determinant >= exact.best_objective


@EXAMPLES
@given(regressions(), st.data())
def test_lts_oracle_equals_loop(data, draw):
    n, k = data.design_matrix().shape
    assert_lts_matches_reference(data, draw.draw(st.integers(k + 1, n)))


@EXAMPLES
@given(point_clouds(), st.data())
def test_mcd_oracle_equals_loop(x, draw):
    n, p = x.shape
    assert_mcd_matches_reference(x, draw.draw(st.integers(p + 1, n)))


# Up to this many chained C-steps per drawn start.
CHAIN = 8


@st.composite
def designs(draw):
    n = draw(st.integers(8, 40))
    k = draw(st.integers(2, 4))
    return draw(matrices(n, k)), draw(st.integers(k + 1, n))


@EXAMPLES
@given(designs(), st.data())
def test_c_step_never_raises_objective(design, draw):
    xy, h = design
    data = make_dataset(xy[:, 1:], xy[:, 0])
    beta = draw.draw(arrays(np.float64, data.k, elements=values))
    before = lts_objective(data, beta, h)
    try:
        for _ in range(CHAIN):
            beta, after, _ = c_step(data, beta, h)
            assert after <= before
            before = after
    except NotPositiveDefinite:
        assume(False)


@EXAMPLES
@given(designs(), st.data())
def test_mcd_c_step_never_raises_determinant(design, draw):
    x, h = design
    rows = np.array(sorted(draw.draw(st.sets(st.integers(0, len(x) - 1), min_size=h, max_size=h))))
    kept, objectives, fit = mcd.evaluate_subsets(x, rows[None])
    assume(kept.size)
    (center, cov), before = fit(0), objectives[0]
    try:
        for _ in range(CHAIN):
            center, cov, _, after = mcd_c_step(x, center, cov, h)
            assert after <= before
            before = after
    except NotPositiveDefinite:
        assume(False)

"""Two published datasets re-analysed through the CLI, with known answers.

stackloss (Brownlee 1965; R `datasets::stackloss`) and phones (Belgian
international calls, Rousseeuw & Leroy 1987, ch. 2; MASS `phones`) are
typed into tests/data/. Their published OLS fits prove the transcription.
The dropped rows are the outliers the literature agrees on: stackloss
rows 1, 3, 4 and 21 (Daniel & Wood 1971; Rousseeuw & Leroy 1987), and
the phones years 1964-1969, recorded in minutes instead of counts. The
`--oracle` runs enumerate every subset: MCD at p = 3 for stackloss and
p = 1 for phones.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from hibreak import cli

DATA = Path(__file__).parent / "data"

CASES = {
    "stackloss": dict(
        predictors=("air_flow", "water_temp", "acid_conc"),
        response="stack_loss",
        # R: coef(lm(stack.loss ~ ., stackloss)); summary(): sigma 3.243 on 17 df, R^2 0.9136
        ols=(-39.9196744, 0.7156402, 1.2952861, -0.1521225),
        sigma=3.243,
        r_squared=0.9136,
        robust=(-37.652, 0.79769, 0.57734, -0.067060),
        dropped=["1", "3", "4", "21"],
        classes={"1": "BadLeverage", "2": "GoodLeverage", "3": "BadLeverage",
                 "4": "VerticalOutlier", "21": "VerticalOutlier"},
    ),
    "phones": dict(
        predictors=("year",),
        response="calls",
        ols=(-260.059, 5.041),  # Rousseeuw & Leroy (1987), ch. 2
        robust=(-63.482, 1.3041),
        dropped=[str(year) for year in range(1964, 1970)],
        classes={str(year): "VerticalOutlier" for year in range(1964, 1970)},
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def analysis(request):
    case = CASES[request.param]
    argv = ["analyze", str(DATA / f"{request.param}.csv"), "--response", case["response"],
            "--predictors", ",".join(case["predictors"]), "--oracle", "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    assert (status, err.getvalue()) == (0, "")
    return case, json.loads(out.getvalue())


def test_published_ols_fit(analysis):
    case, report = analysis
    assert report["ols"]["coefficient_names"] == ["const", *case["predictors"]]
    np.testing.assert_allclose(report["ols"]["coefficients"], case["ols"], rtol=1e-4)
    if "sigma" in case:
        assert report["ols"]["df_resid"] == 17
        # as R prints them: within half a unit of the last printed place
        assert abs(report["ols"]["sigma"] - case["sigma"]) <= 5e-4
        assert abs(report["ols"]["r_squared"] - case["r_squared"]) <= 5e-5


def test_both_oracles_match(analysis):
    _, report = analysis
    for estimator in ("lts", "mcd"):
        oracle = report["oracle"][estimator]
        assert oracle["match"] is True
        assert oracle["heuristic_objective"] == oracle["exact_objective"]


def test_dropped_rows_and_classes(analysis):
    case, report = analysis
    assert [row["label"] for row in report["dropped"]] == case["dropped"]
    assert report["robust"]["dropped_labels"] == case["dropped"]
    classes = {row["label"]: row["class"] for row in report["diagnostics"]}
    assert {label: c for label, c in classes.items() if c != "Regular"} == case["classes"]


def test_robust_panel(analysis):
    case, report = analysis
    n = len(report["diagnostics"])
    assert report["robust"]["n_used"] == n - len(case["dropped"])
    np.testing.assert_allclose(report["robust"]["coefficients"], case["robust"], rtol=1e-4)

"""Column-scale equivariance: rescaling one predictor rescales its coefficient and nothing else.

Every fit factors through core_stats.spd_factor, whose pivot test judges
each column against its own diagonal entry, so no scale is too large or too
small next to the other columns.
"""

import numpy as np
import pytest

from hibreak import Dataset, LtsConfig, McdConfig, fit_lts, fit_mcd, fit_ols, run_analysis
from hibreak import cli
from hibreak.pipeline import AnalysisConfig, ModelSpec

RTOL = 1e-6


def contaminated(scale):
    """n = 100, p = 2, 20% contamination (bad leverage and vertical outliers), x2 times scale."""
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((100, 2))
    y = 1.0 + x.sum(axis=1) + rng.standard_normal(100)
    planted = rng.permutation(100)[:20]
    x[planted[:10]] += 6.0
    y[planted[:10]] -= 12.0
    y[planted[10:]] += 12.0
    x[:, 1] *= scale
    return Dataset.from_xy(x, y)


def fits(scale):
    data = contaminated(scale)
    report = run_analysis(data, AnalysisConfig(model=ModelSpec("y", ("x1", "x2"))))
    return {
        "ols": fit_ols(data),
        "lts": fit_lts(data, LtsConfig(seed=0)),
        "mcd": fit_mcd(data.predictor_matrix(), McdConfig(seed=0)),
        "report": report,
    }


@pytest.fixture(scope="module")
def unit():
    return fits(1.0)


@pytest.mark.parametrize("s", [-6, -3, 3, 6, 9, 12])
def test_one_predictor_rescaled(unit, s):
    scale = 10.0**s
    scaled = fits(scale)
    back = np.array([1.0, 1.0, scale])  # const, x1, x2
    for name in ("ols", "lts"):
        np.testing.assert_allclose(scaled[name].coefficients * back, unit[name].coefficients,
                                   rtol=RTOL)
    np.testing.assert_array_equal(scaled["lts"].h_subset, unit["lts"].h_subset)
    np.testing.assert_array_equal(scaled["mcd"].best_subset, unit["mcd"].best_subset)
    np.testing.assert_allclose(scaled["mcd"].center / back[1:], unit["mcd"].center, rtol=RTOL)
    np.testing.assert_allclose(scaled["mcd"].robust_distances, unit["mcd"].robust_distances,
                               rtol=RTOL)
    report, want = scaled["report"], unit["report"]
    np.testing.assert_array_equal(report.lts_fit.h_subset, want.lts_fit.h_subset)
    np.testing.assert_array_equal(report.mcd_estimate.best_subset, want.mcd_estimate.best_subset)
    assert [row.label for row in report.dropped] == [row.label for row in want.dropped]
    assert report.dropped
    np.testing.assert_allclose(report.robust_fit.coefficients * back,
                               want.robust_fit.coefficients, rtol=RTOL)


def test_year_times_1000_exits_0(tmp_path, capsys):
    rng = np.random.default_rng(0)
    years = np.arange(1960, 2020, dtype=float)
    y = 0.5 * (years - 1990) + rng.standard_normal(years.size)
    path = tmp_path / "years.csv"
    rows = zip(y.tolist(), (years * 1000).tolist())
    path.write_text("label,y,x\n" + "".join(f"r{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows)),
                    encoding="utf-8")
    argv = ["analyze", str(path), "--response", "y", "--predictors", "x", "--format", "json"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""

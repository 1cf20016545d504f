"""classify_all's value holds columns and builds its records only when read as a list."""

import copy
import dataclasses
import functools
import json
import pickle

import numpy as np
import pytest

from hibreak import (
    DiagnosticRecord,
    DiagnosticThresholds,
    LtsConfig,
    McdConfig,
    classify,
    classify_all,
    fit_lts,
    fit_mcd,
    outlier_map,
)
from hibreak import cli, pipeline
from hibreak.diagnostics import DiagnosticList
from hibreak.pipeline import AnalysisConfig, ModelSpec, render_report, report_to_dict, run_analysis

from conftest import make_dataset

THRESHOLDS = DiagnosticThresholds()
MODEL = ModelSpec(response="y", predictors=("x1",))


def contaminated(n, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 1.0 + 2.0 * x + rng.normal(scale=0.2, size=n)
    x[:n // 10] += 8.0  # bad leverage
    y[n // 10:n // 5] += 6.0  # vertical outliers
    return make_dataset(x, y)


def classified(data):
    lts = fit_lts(data, LtsConfig(seed=0))
    mcd = fit_mcd(data.predictor_matrix(), McdConfig(seed=0))
    eager = [
        classify(sr, rd, THRESHOLDS, 1, row_label=label)
        for sr, rd, label in zip(lts.standardized_residuals, mcd.robust_distances, data.row_labels)
    ]
    return classify_all(lts, mcd, data, THRESHOLDS), eager


def unbuilt(value):
    return "data" not in vars(value)


def test_value_is_the_eager_record_list():
    value, eager = classified(contaminated(60))
    assert not isinstance(value, list)
    assert len(value) == 60 and value and unbuilt(value)
    assert copy.deepcopy(value) == eager and unbuilt(value)
    assert copy.copy(value) == eager
    assert value == eager and eager == value
    assert value[0] == eager[0] and value[-1] == eager[-1]
    assert value[:6] == eager[:6] and isinstance(value[:6], DiagnosticList)
    assert list(value) == eager
    assert [rec.row_label for rec in value] == [rec.row_label for rec in eager]
    assert {rec.classification.value for rec in value} >= {"Regular", "BadLeverage"}


def render_all(report):
    outputs = [render_report(report, fmt) for fmt in pipeline.REPORT_FORMATS]
    plot = outlier_map(report.diagnostics)
    return outputs + [plot.to_json(), plot.to_tsv()]


def test_analyze_path_builds_no_record(monkeypatch):
    built = []
    init = DiagnosticRecord.__init__

    def spy(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["row_label"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(DiagnosticRecord, "__init__", spy)
    report = run_analysis(contaminated(300), AnalysisConfig(model=MODEL))
    outputs = render_all(report)
    assert built == [] and unbuilt(report.diagnostics)
    assert report.dropped  # the ledger came from the drop mask
    # the spy sees records once they are read, and the writers then read them
    records = list(report.diagnostics)
    assert len(built) == 300
    assert render_all(report) == outputs
    assert outputs[0] == json.dumps(report_to_dict(report), sort_keys=True, indent=2)
    assert records == list(report.diagnostics)


def test_changes_to_built_records_reach_the_writers():
    report = run_analysis(contaminated(40), AnalysisConfig(model=MODEL, output_format="json"))
    diagnostics = report.diagnostics
    diagnostics[0] = dataclasses.replace(diagnostics[0], row_label="changed", residual_cutoff=3.0)
    diagnostics.append(dataclasses.replace(diagnostics[1], row_label="appended"))
    assert render_report(report, "json") == json.dumps(report_to_dict(report), sort_keys=True,
                                                       indent=2)
    markdown = render_report(report, "markdown")
    assert "| changed |" in markdown and "| appended |" in markdown
    points = json.loads(outlier_map(diagnostics).to_json())["points"]
    assert [points[0]["label"], points[-1]["label"], len(points)] == ["changed", "appended", 41]
    assert outlier_map(diagnostics).sr_cutoff == 3.0


@pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
def test_report_survives_pickle(built):
    report = run_analysis(contaminated(50), AnalysisConfig(model=MODEL))
    if built:
        report.diagnostics[0]
    copy_ = pickle.loads(pickle.dumps(report))
    assert unbuilt(copy_.diagnostics) is not built
    assert render_all(copy_) == render_all(report)
    assert copy_.diagnostics == report.diagnostics


def test_recorder_wrapper_sees_one_call_per_analysis(tmp_path, monkeypatch, capsys):
    # as the benchmark's recorder does: wrap the name that run_analysis looks up
    kept = []
    original = pipeline.classify_all

    @functools.wraps(original)
    def keeping(*args, **kwargs):
        result = original(*args, **kwargs)
        kept.append(result)
        return result

    monkeypatch.setattr(pipeline, "classify_all", keeping)
    data = contaminated(80)
    path = tmp_path / "data.csv"
    path.write_text("label,y,x1\n" + "".join(
        f"{label},{y!r},{x!r}\n"
        for label, (y, x) in zip(data.row_labels, data.values.tolist())), encoding="utf-8")
    argv = ["analyze", str(path), "--response", "y", "--predictors", "x1", "--format", "json",
            "--plot-data", str(tmp_path / "map.json")]
    assert cli.main(argv) == 0
    assert len(kept) == 1
    report = json.loads(capsys.readouterr().out)
    bad = {rec.row_label for rec in kept[0] if rec.classification.value == "BadLeverage"}
    assert bad == {row["label"] for row in report["diagnostics"] if row["class"] == "BadLeverage"}
    assert bad >= {str(i) for i in range(8)}

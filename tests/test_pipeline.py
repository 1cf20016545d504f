import json
import math
import os
import re
import subprocess
import sys
from collections import OrderedDict
from dataclasses import fields, replace

import numpy as np
import pytest

from hibreak import (
    Classification,
    Dataset,
    DiagnosticThresholds,
    LtsConfig,
    McdConfig,
    load_csv,
    render_report,
    report_from_json,
    run_analysis,
)
from hibreak import errors
from hibreak.cli import build_parser, main
from hibreak.errors import DuplicateLabel, InputError, MissingColumn, NumericalError, ParseError
from hibreak.ols import RegressionFit, t_and_p
from hibreak.diagnostics import DiagnosticRecord
from hibreak.pipeline import (
    AnalysisConfig,
    AnalysisReport,
    DroppedRow,
    ModelSpec,
    _comparison,
    report_to_dict,
)

from conftest import make_dataset

MODEL_XY = ModelSpec(response="y", predictors=("x1",))


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def clean_instance(seed=7, n=40):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=n)
    y = 1.0 + 2.0 * x + rng.normal(scale=0.1, size=n)
    return make_dataset(x, y)


def bad_leverage_instance():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 3, size=40)
    y = 2.0 + 3.0 * x + rng.normal(scale=0.3, size=40)
    x[:4] = 10.0
    y[:4] = -20.0
    return make_dataset(x, y)


def mixed_outlier_instance():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, size=40)
    y = 1.0 + 2.0 * x + rng.normal(scale=0.1, size=40)
    x[0], y[0] = 0.1, 1.0 + 2.0 * 0.1 + 0.25    # mild vertical outlier
    x[1], y[1] = -0.2, 1.0 + 2.0 * (-0.2) - 1.0  # severe vertical outlier
    return make_dataset(x, y)


class TestModelSpec:
    def test_names_are_stripped_and_empty_predictors_dropped(self):
        model = ModelSpec(response=" y ", predictors=(" x1", "", "x2 ", " "))
        assert (model.response, model.predictors) == ("y", ("x1", "x2"))

    @pytest.mark.parametrize("predictors", [("x", "x"), ("x", " x")])
    def test_repeated_predictor_rejected(self, predictors):
        with pytest.raises(ValueError, match="name a column twice"):
            ModelSpec(response="y", predictors=predictors)


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = write_csv(
            tmp_path / "ok.csv",
            "country,y,x1\nAlberia,1.0,2.0\nBorduria,2.5,3.5\nCarpathia,0.5,1.0\n",
        )
        data = load_csv(path, MODEL_XY)
        assert data.n == 3
        assert data.row_labels == ("Alberia", "Borduria", "Carpathia")
        np.testing.assert_allclose(data.response_vector(), [1.0, 2.5, 0.5])

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = write_csv(
            tmp_path / "bad.csv",
            "c,GDP,GAP\na,1.0,2.0\nb,1.5,oops\n",
        )
        with pytest.raises(ParseError) as err:
            load_csv(path, ModelSpec(response="GDP", predictors=("GAP",)))
        assert err.value.row == 2
        assert err.value.column == "GAP"

    def test_rejects_nan_cell(self, tmp_path):
        path = write_csv(tmp_path / "nan.csv", "c,y,x1\na,1.0,2.0\nb,nan,1.0\n")
        with pytest.raises(ParseError):
            load_csv(path, MODEL_XY)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "cols.csv", "c,y,x1\na,1.0,2.0\n")
        with pytest.raises(MissingColumn):
            load_csv(path, ModelSpec(response="y", predictors=("x9",)))

    def test_duplicate_label(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv", "c,y,x1\na,1.0,2.0\na,2.0,3.0\n")
        with pytest.raises(DuplicateLabel):
            load_csv(path, MODEL_XY)

    def test_first_repeated_label_in_file_order(self, tmp_path):
        # "b" repeats before "a" does, and the bad cell after both is never reached
        path = write_csv(
            tmp_path / "dup.csv",
            "c,y,x1\na,1.0,2.0\nb,2.0,3.0\nb,3.0,4.0\na,4.0,5.0\nc,oops,6.0\n",
        )
        with pytest.raises(DuplicateLabel) as err:
            load_csv(path, MODEL_XY)
        assert err.value.label == "b"
        assert main(["analyze", path, "--response", "y", "--predictors", "x1"]) == 2

    def test_blank_lines_are_skipped(self, tmp_path):
        text = "c,y,x1\na,1.0,2.0\nb,2.5,3.5\nc,0.5,1.0\n"
        plain = load_csv(write_csv(tmp_path / "plain.csv", text), MODEL_XY)
        spaced = text.replace("\nb,", "\n\nb,").replace("\nc,", "\n\n\nc,") + "\n"
        data = load_csv(write_csv(tmp_path / "spaced.csv", spaced), MODEL_XY)
        assert (data.row_labels, data.column_names) == (plain.row_labels, plain.column_names)
        np.testing.assert_array_equal(data.values, plain.values)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(str(tmp_path / "nope.csv"), MODEL_XY)

    def test_oversized_cell_is_a_parse_error(self, tmp_path):
        # the csv module caps a field at 131,072 characters
        path = write_csv(tmp_path / "long.csv", "c,y,x1\na,1.0,2.0\nb,1.0," + "1" * 200_000 + "\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            load_csv(path, MODEL_XY)
        assert err.value.row == 3

    @pytest.mark.parametrize(("n", "bad_row"), [(20, 3), (3000, 2500)])
    def test_non_utf8_names_its_row(self, tmp_path, n, bad_row):
        # a bad cell in row 2 comes first in the file, near the bad line or far from it
        lines = ["label,y,x1"] + [f"r{i},{2 * i + 1},{i}" for i in range(1, n + 1)]
        lines[2] = "r2,5,oops"
        lines[bad_row] = lines[bad_row].replace(f"r{bad_row},", f"caf\xe9{bad_row},")
        path = tmp_path / "latin1.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        with pytest.raises(ParseError) as err:
            load_csv(str(path), MODEL_XY)
        assert err.value.row == bad_row
        assert f"line {bad_row + 1} is not UTF-8" in str(err.value)

    def test_repeated_column_name_rejected(self, tmp_path):
        path = write_csv(tmp_path / "cols.csv", "c,y,x1,x1\na,1.0,2.0,3.0\nb,2.0,3.0,4.0\n")
        with pytest.raises(InputError, match="repeated column names"):
            load_csv(path, MODEL_XY)

    def test_growth_regression_shape(self, tmp_path):
        # 61 countries, five columns, K=5 with the intercept
        rng = np.random.default_rng(1)
        lines = ["country,GDP,LFG,GAP,EQP,NEQ"]
        for i in range(61):
            vals = ",".join(f"{v:.4f}" for v in rng.normal(size=5))
            lines.append(f"c{i},{vals}")
        path = write_csv(tmp_path / "growth.csv", "\n".join(lines) + "\n")
        model = ModelSpec(response="GDP", predictors=("LFG", "GAP", "EQP", "NEQ"))
        data = load_csv(path, model)
        assert data.n == 61
        assert data.k == 5
        assert data.design_matrix().shape == (61, 5)


class TestRunAnalysis:
    def test_clean_data_is_a_fixed_point(self):
        data = clean_instance()
        report = run_analysis(data, AnalysisConfig(model=MODEL_XY))
        assert report.dropped == []
        np.testing.assert_array_equal(
            report.robust_fit.coefficients, report.ols_fit.coefficients
        )
        np.testing.assert_array_equal(
            report.robust_fit.standard_errors, report.ols_fit.standard_errors
        )
        assert report.robust_fit.n_used == report.ols_fit.n_used

    def test_planted_bad_leverage_cluster(self):
        report = run_analysis(bad_leverage_instance(), AnalysisConfig(model=MODEL_XY))
        assert sorted(d.label for d in report.dropped) == ["0", "1", "2", "3"]
        assert report.ols_fit.coefficients[1] < 2.0
        assert 2.8 <= report.robust_fit.coefficients[1] <= 3.2
        assert report.robust_fit.n_used == 36

    def test_severe_dropped_mild_retained(self):
        report = run_analysis(mixed_outlier_instance(), AnalysisConfig(model=MODEL_XY))
        mild, severe = report.diagnostics[0], report.diagnostics[1]
        assert mild.classification is Classification.VERTICAL_OUTLIER
        assert 2.5 <= abs(mild.standardized_residual) < 4.0
        assert not mild.drop_recommended
        assert severe.classification is Classification.VERTICAL_OUTLIER
        assert abs(severe.standardized_residual) > 4.0
        assert [d.label for d in report.dropped] == ["1"]

    def test_drop_soundness(self):
        report = run_analysis(bad_leverage_instance(), AnalysisConfig(model=MODEL_XY))
        flagged = {r.row_label for r in report.diagnostics if r.drop_recommended}
        assert {d.label for d in report.dropped} == flagged
        assert set(report.robust_fit.dropped_labels) == flagged

    def test_config_echo_exposes_every_default(self):
        report = run_analysis(clean_instance(), AnalysisConfig(model=MODEL_XY))
        echo = report.config_echo
        assert echo["lts"]["alpha"] == 0.25
        assert echo["lts"]["h"] == 30
        assert echo["lts"]["seed"] == 0
        assert echo["lts"]["consistency_factor"] > 1.0
        assert echo["mcd"]["h_fraction"] == 0.75
        assert echo["mcd"]["h"] == 30
        assert echo["mcd"]["consistency_factor"] > 1.0
        assert echo["thresholds"]["residual_cutoff"] == 2.5
        assert echo["thresholds"]["severe_residual_cutoff"] == 4.0
        assert echo["thresholds"]["distance_cutoff"] > 0.0
        assert echo["model"] == {
            "response": "y", "predictors": ["x1"], "has_intercept": True,
        }
        # every field of each config section, then the values derived from it
        def names(cls):
            return {f.name for f in fields(cls)}

        assert set(echo) == names(AnalysisConfig)
        assert set(echo["model"]) == names(ModelSpec)
        assert set(echo["lts"]) == names(LtsConfig) | {"h", "consistency_factor"}
        assert set(echo["mcd"]) == names(McdConfig) | {"h", "consistency_factor"}
        assert set(echo["thresholds"]) == names(DiagnosticThresholds) | {"distance_cutoff"}

    def test_model_mismatch_rejected(self):
        data = clean_instance()
        # other predictors; or no intercept, which would render a const row it never fit
        for has_intercept, model in ((True, ModelSpec("y", ("x2",))), (False, MODEL_XY)):
            with pytest.raises(ValueError, match="does not match"):
                run_analysis(replace(data, has_intercept=has_intercept), AnalysisConfig(model=model))

    def test_stage_failures_name_their_stage(self):
        from hibreak.errors import PipelineStageError

        x = np.arange(8.0)
        data = Dataset(
            row_labels=tuple(f"r{i}" for i in range(8)),
            column_names=("y", "x1", "x2"),
            response="y",
            predictors=("x1", "x2"),
            values=np.column_stack([np.arange(8.0), x, 2.0 * x]),
        )
        with pytest.raises(PipelineStageError) as err:
            run_analysis(data, AnalysisConfig(model=ModelSpec("y", ("x1", "x2"))))
        assert err.value.stage == "ols"

    def test_deterministic_json_bytes(self):
        data = bad_leverage_instance()
        config = AnalysisConfig(model=MODEL_XY, lts=LtsConfig(seed=3), mcd=McdConfig(seed=3))
        a = render_report(run_analysis(data, config), "json")
        b = render_report(run_analysis(data, config), "json")
        assert a.encode() == b.encode()


@pytest.mark.parametrize(
    "make",
    [
        lambda: LtsConfig(seed=-1),
        lambda: McdConfig(seed=-1),
        lambda: DiagnosticThresholds(residual_cutoff=float("nan")),
        lambda: DiagnosticThresholds(severe_residual_cutoff=float("nan")),
        lambda: LtsConfig(n_starts=0),
        lambda: McdConfig(n_best_kept=0),
        lambda: LtsConfig(max_csteps=0),
        lambda: DiagnosticThresholds(distance_quantile=1.0),
        lambda: ModelSpec("y", (" ", "")),
        lambda: AnalysisConfig(model=MODEL_XY, output_format="html"),
    ],
    ids=["lts_seed", "mcd_seed", "residual_nan", "severe_nan", "n_starts", "n_best_kept",
         "max_csteps", "distance_quantile", "no_predictor", "output_format"],
)
def test_negative_seed_and_nan_cutoff_rejected(make):
    with pytest.raises(ValueError):
        make()


def fabricated_report(diagnostics=(), dropped=()):
    """A report on one predictor whose fit is written by hand; also its t-values."""
    t, p = t_and_p(np.array([4.78]), np.array([1.37]), 25)
    fit = RegressionFit(
        coefficient_names=("Growth",),
        coefficients=np.array([4.78]),
        standard_errors=np.array([1.37]),
        t_values=t,
        p_values=p,
        residuals=np.zeros(28),
        sigma=1.0,
        r_squared=0.56,
        f_value=10.5,
        n_used=28,
        predictors=("Growth",),
        has_intercept=False,
        df_resid=25,
    )
    report = AnalysisReport(
        ols_fit=fit, diagnostics=list(diagnostics), dropped=list(dropped), robust_fit=fit,
        config_echo={
            "model": {"response": "R", "predictors": ["Growth"], "has_intercept": False},
            "lts": {"alpha": 0.25, "h": 21, "n_starts": 500, "n_best_kept": 10,
                    "seed": 0, "max_csteps": 100, "consistency_factor": 1.6523456},
            "mcd": {"h_fraction": 0.75, "h": 21, "n_starts": 500, "n_best_kept": 10,
                    "seed": 0, "max_csteps": 100, "consistency_factor": 1.86},
            "thresholds": {"residual_cutoff": 2.5, "distance_quantile": 0.975,
                           "severe_residual_cutoff": 4.0, "distance_cutoff": 2.71620006},
            "output_format": "markdown",
        },
        comparison=_comparison(fit, fit),
    )
    return report, t


class TestRenderReport:
    def test_markdown_mentions_dropped_rows(self):
        report = run_analysis(bad_leverage_instance(), AnalysisConfig(model=MODEL_XY))
        text = render_report(report, "markdown")
        assert "| Var. | OLS Coeff. |" in text
        assert "BadLeverage" in text
        assert "## Dropped observations" in text

    def test_zero_dropped_reads_none(self):
        report = run_analysis(clean_instance(), AnalysisConfig(model=MODEL_XY))
        text = render_report(report, "markdown")
        assert "none" in text.split("## Dropped observations")[1]

    def test_fabricated_t_value_renders(self):
        report, t = fabricated_report()
        text = render_report(report, "markdown")
        assert "+3.489" in text  # rounds to the printed 3.49
        assert round(float(t[0]), 2) == 3.49
        tsv = render_report(report, "tsv")
        assert "+3.489" in tsv

    def test_fabricated_report_renders_golden_text(self):
        records = [
            DiagnosticRecord("a", 0.5, 1.25, 2.5, 2.716, Classification.REGULAR, False),
            DiagnosticRecord("b", -4.5, 3.0, 2.5, 2.716, Classification.BAD_LEVERAGE, True),
        ]
        dropped = [DroppedRow("b", "BadLeverage: abs(standardized residual)=4.5, robust distance=3")]
        report, _ = fabricated_report(records, dropped)
        oracle = {"mcd": {"heuristic_objective": 0.5, "exact_objective": 0.5, "match": True},
                  "lts": {"heuristic_objective": 1.5, "exact_objective": 1.25, "match": False}}
        assert render_report(report, "markdown", oracle) == (
            "# Robust regression report\n"
            "\n"
            "Model: R ~ Growth (n = 28)\n"
            "\n"
            "## Coefficient comparison\n"
            "\n"
            "| Var. | OLS Coeff. | S.E. | t-value | P-value "
            "| ROBUST Coeff. | S.E. | t-value | P-value |\n"
            "|---|---|---|---|---|---|---|---|---|\n"
            "| Growth | +4.78 | 1.37 | +3.489 | 0.001815 | +4.78 | 1.37 | +3.489 | 0.001815 |\n"
            "\n"
            "| | OLS | ROBUST |\n"
            "|---|---|---|\n"
            "| R^2 | 0.56 | 0.56 |\n"
            "| F-value | 10.5 | 10.5 |\n"
            "| sigma | 1 | 1 |\n"
            "| n used | 28 | 28 |\n"
            "\n"
            "## Diagnostics\n"
            "\n"
            "| Row | Std. residual | Robust distance | Class | Drop |\n"
            "|---|---|---|---|---|\n"
            "| a | +0.5 | 1.25 | Regular | no |\n"
            "| b | -4.5 | 3 | BadLeverage | yes |\n"
            "\n"
            "## Dropped observations\n"
            "\n"
            "| Row | Reason |\n"
            "|---|---|\n"
            "| b | BadLeverage: abs(standardized residual)=4.5, robust distance=3 |\n"
            "\n"
            "## Configuration\n"
            "\n"
            "- lts: alpha=0.25, h=21, n_starts=500, n_best_kept=10, seed=0, max_csteps=100, "
            "consistency_factor=1.652\n"
            "- mcd: h_fraction=0.75, h=21, n_starts=500, n_best_kept=10, seed=0, max_csteps=100, "
            "consistency_factor=1.86\n"
            "- thresholds: residual_cutoff=2.5, severe_residual_cutoff=4.0, "
            "distance_quantile=0.975, distance_cutoff=2.716\n"
            "\n"
            "## Oracle check\n"
            "\n"
            "- lts: heuristic=1.5, exact=1.25, match=False\n"
            "- mcd: heuristic=0.5, exact=0.5, match=True\n"
        )
        assert render_report(report, "tsv", oracle) == (
            "var\tols_coeff\tols_se\tols_t\tols_p\trobust_coeff\trobust_se\trobust_t\trobust_p\n"
            "Growth\t+4.78\t1.37\t+3.489\t0.001815\t+4.78\t1.37\t+3.489\t0.001815\n"
            "r_squared\t0.56\t-\t-\t-\t0.56\t-\t-\t-\n"
            "f_value\t10.5\t-\t-\t-\t10.5\t-\t-\t-\n"
            "sigma\t1\t-\t-\t-\t1\t-\t-\t-\n"
            "n_used\t28\t-\t-\t-\t28\t-\t-\t-\n"
            "oracle_lts\t1.5\t-\t-\t-\t1.25\t-\t-\t-\n"
            "oracle_mcd\t0.5\t-\t-\t-\t0.5\t-\t-\t-\n"
        )

    def test_markdown_escapes_label_and_name_cells(self, tmp_path):
        # labels with a pipe, a backslash before a pipe and a quoted line break; a name with a pipe
        labels = ['"a|b"', "c\\|d", '"e\nf"', *(f"r{i}" for i in range(3, 20))]
        lines = ["row,y,x|1", *(f"{label},{1 + 2 * i + (i * 7 % 5 - 2) / 10 + 30 * (i < 3)},{i}"
                                 for i, label in enumerate(labels))]
        model = ModelSpec("y", ("x|1",))
        data = load_csv(write_csv(tmp_path / "labels.csv", "\n".join(lines) + "\n"), model)
        report = run_analysis(data, AnalysisConfig(model=model))
        text = render_report(report, "markdown")

        def pipes(line):  # the unescaped ones: drop each backslash pair first
            return re.sub(r"\\.", "", line).count("|")

        tables = [block.split("\n") for block in text.split("\n\n") if block.startswith("|")]
        assert len(tables) == 4
        for table in tables:
            assert {pipes(line) for line in table} == {pipes(table[0])}
        assert "\n| a\\|b | " in text and "\n| c\\\\\\|d | " in text and "\n| e f | " in text
        assert "\n| x\\|1 | " in text
        raw = ["a|b", "c\\|d", "e\nf"]
        d = json.loads(render_report(report, "json"))
        assert [row["label"] for row in d["diagnostics"][:3]] == raw
        assert [row["label"] for row in d["dropped"]] == raw
        assert d["ols"]["coefficient_names"] == ["const", "x|1"]
        assert render_report(report, "tsv") == (  # the TSV writes names unescaped
            "var\tols_coeff\tols_se\tols_t\tols_p\trobust_coeff\trobust_se\trobust_t\trobust_p\n"
            "const\t+16.4\t3.828\t+4.285\t0.000446\t+0.9569\t0.08622\t+11.1\t1.247e-08\n"
            "x|1\t+0.8526\t0.3444\t+2.476\t0.02347\t+2.004\t0.00716\t+279.9\t2.643e-29\n"
            "r_squared\t0.254\t-\t-\t-\t0.9998\t-\t-\t-\n"
            "f_value\t6.128\t-\t-\t-\t7.834e+04\t-\t-\t-\n"
            "sigma\t8.882\t-\t-\t-\t0.1446\t-\t-\t-\n"
            "n_used\t20\t-\t-\t-\t17\t-\t-\t-\n"
        )

    def test_markdown_model_line_escapes_names(self, tmp_path):
        # a quoted header cell with a line break, named as the predictor
        lines = ['row,y,"x\nnew"', *(f"r{i},{1 + 2 * i + (i * 7 % 5 - 2) / 10 + 30 * (i < 3)},{i}"
                                     for i in range(20))]
        model = ModelSpec("y", ("x\nnew",))
        data = load_csv(write_csv(tmp_path / "name.csv", "\n".join(lines) + "\n"), model)
        report = run_analysis(data, AnalysisConfig(model=model))
        text = render_report(report, "markdown")
        assert text.split("\n")[2] == "Model: y ~ const + x new (n = 20)"
        assert json.loads(render_report(report, "json"))["ols"]["coefficient_names"] == ["const", "x\nnew"]
        assert render_report(report, "tsv") == (  # the TSV writes names unescaped
            "var\tols_coeff\tols_se\tols_t\tols_p\trobust_coeff\trobust_se\trobust_t\trobust_p\n"
            "const\t+16.4\t3.828\t+4.285\t0.000446\t+0.9569\t0.08622\t+11.1\t1.247e-08\n"
            "x\nnew\t+0.8526\t0.3444\t+2.476\t0.02347\t+2.004\t0.00716\t+279.9\t2.643e-29\n"
            "r_squared\t0.254\t-\t-\t-\t0.9998\t-\t-\t-\n"
            "f_value\t6.128\t-\t-\t-\t7.834e+04\t-\t-\t-\n"
            "sigma\t8.882\t-\t-\t-\t0.1446\t-\t-\t-\n"
            "n_used\t20\t-\t-\t-\t17\t-\t-\t-\n"
        )

    def test_json_round_trip_renders_identically(self):
        report = run_analysis(mixed_outlier_instance(), AnalysisConfig(model=MODEL_XY))
        as_json = render_report(report, "json")
        rebuilt = report_from_json(as_json)
        assert render_report(rebuilt, "markdown") == render_report(report, "markdown")
        assert render_report(rebuilt, "json") == as_json

    def test_tsv_is_joinable(self):
        report = run_analysis(clean_instance(), AnalysisConfig(model=MODEL_XY))
        lines = render_report(report, "tsv").strip().split("\n")
        header = lines[0].split("\t")
        assert header[0] == "var"
        assert len(header) == 9
        assert all(len(line.split("\t")) == 9 for line in lines[1:])

    def test_unknown_format(self):
        report = run_analysis(clean_instance(), AnalysisConfig(model=MODEL_XY))
        with pytest.raises(ValueError):
            render_report(report, "xml")


def naive_json(report, oracle=None):
    """The reference JSON rendering: json's indenting encoder over the whole report dict."""
    d = report_to_dict(report)
    if oracle is not None:
        d["oracle"] = oracle
    return json.dumps(d, sort_keys=True, indent=2)


def contaminated_instance(seed, n, p):
    """20% planted rows, half bad leverage and half vertical outliers, as in the benchmark."""
    rng = np.random.default_rng([seed, n, p])
    x = rng.standard_normal((n, p))
    y = 1.0 + x.sum(axis=1) + rng.standard_normal(n)
    planted = rng.permutation(n)[: n // 5]
    x[planted[: n // 10]] += 6.0
    y[planted[: n // 10]] -= 12.0
    y[planted[n // 10 :]] += 12.0
    return Dataset.from_xy(x, y, row_labels=tuple(f"r{i}" for i in range(n)))


def analysed(data, **config):
    model = ModelSpec("y", data.predictors, data.has_intercept)
    return run_analysis(data, AnalysisConfig(model=model, **config))


class TestJsonWriter:
    """render_report's JSON equals json.dumps(report_to_dict(r), sort_keys=True, indent=2)."""

    def test_odd_labels(self):
        odd = ['q"uote', "back\\slash", "new\nline", "tab\tbell\x07", "caf\u00e9",
               "\u6f22\u5b57", "smile \U0001f600", "100% %s", "\ud800"]
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 3, size=40)
        y = 2.0 + 3.0 * x + rng.normal(scale=0.3, size=40)
        x[:4], y[:4] = 10.0, -20.0
        labels = tuple(f"{odd[i % len(odd)]}{i}" for i in range(40))
        report = analysed(Dataset.from_xy(x, y, row_labels=labels))
        assert report.dropped
        assert render_report(report, "json") == naive_json(report)

    def test_exact_fit_infinities(self):
        x = np.arange(10.0)
        y = x.copy()
        y[[3, 7]] += [40.0, -25.0]
        report = analysed(make_dataset(x, y))
        text = render_report(report, "json")
        assert text == naive_json(report)
        assert np.isinf(report.robust_fit.t_values).all()
        assert '"sr": Infinity' in text and '"sr": -Infinity' in text

    def test_nothing_dropped(self):
        report = analysed(clean_instance())
        assert report.dropped == []
        assert render_report(report, "json") == naive_json(report)

    def test_oracle_section(self):
        from hibreak.cli import _oracle_section

        data = bad_leverage_instance().subset(np.arange(14))
        config = AnalysisConfig(model=MODEL_XY)
        report = run_analysis(data, config)
        oracle = _oracle_section(data, report)
        assert render_report(report, "json", oracle=oracle) == naive_json(report, oracle)

    def test_no_intercept(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(1, 4, size=30)
        report = analysed(make_dataset(x, 3.0 * x + rng.normal(size=30), has_intercept=False))
        assert render_report(report, "json") == naive_json(report)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1000, 2000, 5000])
    def test_large_contaminated(self, seed, n):
        report = analysed(contaminated_instance(seed, n, 4), lts=LtsConfig(seed=seed),
                          mcd=McdConfig(seed=seed))
        assert render_report(report, "json") == naive_json(report)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [1.0, math.nan, -math.inf, math.inf, -0.0, 0.0, 1e300, 5, True, None, "x"]},
            [-0.0, -0.0], [0.0, 0.0], [0.0, -0.0, 0.0],
            [2.5, 2.5, 2.5], [2.5, 2.5, 2.5000000000000004],
            [1.0, 1, True], [math.nan] * 3, [float("nan"), float("nan")],
            ["a\nb", "c", "\u00e9"], [[], {}, [[]], [{}]], ({"x": (1, 2)}, ()),
            [(1, 2), (3, 4)], [{"x": (1, 2)}, {"x": (3,)}],
            [{"b": 1, "a": [1]}, {"a": 2, "b": 3}],
            [{"a": 1}, {"b": 1}], [{"a": 1, "b": 2}, {"a": 1}], [{"a": 1}, {"a": 1, "b": 2}],
            [{"%s": 1.5, 'k"': -0.0, "z": "%d"}, {"%s": 2.5, 'k"': 0.0, "z": None}],
            [{"a": 1}, OrderedDict(a=2)], [OrderedDict(a=2), {"a": 1}], [{"a": 1}, 2],
            {1: ["int key"], 2.5: ["float key"]}, [{1: "a"}, {1: "b"}], {"": {"": []}},
            "text", 3, None, [], {},
        ],
    )
    def test_writer_on_odd_values(self, value):
        from hibreak.pipeline import _dumps

        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def dataset_to_csv(data: Dataset, path):
    lines = ["label," + ",".join(data.column_names)]
    for i, label in enumerate(data.row_labels):
        lines.append(label + "," + ",".join(repr(float(v)) for v in data.values[i]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestCli:
    def test_analyze_json(self, tmp_path, capsys):
        path = dataset_to_csv(bad_leverage_instance(), tmp_path / "data.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1",
                     "--format", "json"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert {d["label"] for d in parsed["dropped"]} == {"0", "1", "2", "3"}
        assert parsed["config"]["lts"]["alpha"] == 0.25

    def test_markdown_default(self, tmp_path, capsys):
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1"])
        assert code == 0
        assert "# Robust regression report" in capsys.readouterr().out

    def test_plot_data_written(self, tmp_path, capsys):
        path = dataset_to_csv(bad_leverage_instance(), tmp_path / "data.csv")
        out = tmp_path / "plot.json"
        code = main(["analyze", path, "--response", "y", "--predictors", "x1",
                     "--plot-data", str(out)])
        assert code == 0
        plot = json.loads(out.read_text())
        assert set(plot) == {"points", "rd_cutoff", "sr_cutoff"}
        assert len(plot["points"]) == 40

    def test_oracle_flag_small_input(self, tmp_path, capsys):
        data = clean_instance(n=12)
        path = dataset_to_csv(data, tmp_path / "small.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1",
                     "--format", "json", "--oracle"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["oracle"]["lts"]["match"] is True
        assert parsed["oracle"]["mcd"]["match"] is True

    def test_oracle_flag_too_large(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = make_dataset(rng.normal(size=100), rng.normal(size=100))
        path = dataset_to_csv(data, tmp_path / "big.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1",
                     "--oracle"])
        assert code == 2

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["analyze", str(tmp_path / "nope.csv"), "--response", "y",
                     "--predictors", "x1"])
        assert code == 2

    def test_collinear_exit_3(self, tmp_path):
        path = write_csv(
            tmp_path / "collinear.csv",
            "c,y,x1,x2\n" + "\n".join(f"r{i},{i}.0,{i}.0,{2 * i}.0" for i in range(8)) + "\n",
        )
        code = main(["analyze", path, "--response", "y", "--predictors", "x1,x2"])
        assert code == 3

    def test_too_few_rows_for_mcd_exit_3(self, tmp_path, capsys):
        # 5 rows fit OLS and LTS with 2 predictors, but MCD needs 2(p+1) = 6
        path = write_csv(
            tmp_path / "short.csv",
            "c,y,x1,x2\na,1.0,0.5,2.0\nb,2.0,1.5,1.0\nc,2.5,2.0,3.5\n"
            "d,4.0,3.5,0.5\ne,5.5,4.0,2.5\n",
        )
        code = main(["analyze", path, "--response", "y", "--predictors", "x1,x2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "mcd" in err
        assert "Traceback" not in err

    def test_starts_past_the_address_space_exit_3(self, tmp_path, capsys):
        # a (10**15, k + 1) start array is refused before any memory is touched
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1",
                     "--starts", str(10**15)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("hibreak: numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("body", ["", "a,1.0,0.5,2.0\nb,2.0,1.5,1.0\nc,2.5,2.0,3.5\n"])
    def test_fewer_rows_than_coefficients_exit_2(self, tmp_path, capsys, body):
        # const, x1 and x2 need at least 4 rows
        path = write_csv(tmp_path / "tiny.csv", "c,y,x1,x2\n" + body)
        code = main(["analyze", path, "--response", "y", "--predictors", "x1,x2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("hibreak: input error:")

    def test_response_as_predictor_exit_4(self, tmp_path, capsys):
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "y"])
        assert code == 4
        assert capsys.readouterr().err.startswith("hibreak: bad flag value:")

    def test_repeated_predictor_exit_4(self, tmp_path, capsys):
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1,x1"])
        assert code == 4
        assert capsys.readouterr().err.startswith("hibreak: bad flag value:")

    def test_padded_column_names_are_stripped(self, tmp_path, capsys):
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        assert main(["analyze", path, "--response", "y", "--predictors", "x1"]) == 0
        plain = capsys.readouterr().out
        assert main(["analyze", path, "--response", " y", "--predictors", " x1 ,"]) == 0
        assert capsys.readouterr().out == plain

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["analyze", "f.csv", "--response", "y", "--predictors", "x"])
        thresholds = DiagnosticThresholds()
        assert args.alpha == LtsConfig().alpha
        assert args.mcd_h == McdConfig().h_fraction
        assert args.resid_cutoff == thresholds.residual_cutoff
        assert args.severe_cutoff == thresholds.severe_residual_cutoff
        assert args.distance_quantile == thresholds.distance_quantile
        for config in (LtsConfig(), McdConfig()):  # one flag feeds both searches
            assert (args.seed, args.starts) == (config.seed, config.n_starts)
        assert args.format == AnalysisConfig(model=ModelSpec("y", ("x",))).output_format

    def test_tsv_oracle_rows(self, tmp_path, capsys):
        path = dataset_to_csv(clean_instance(n=12), tmp_path / "small.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1",
                     "--format", "tsv", "--oracle"])
        assert code == 0
        names = [line.split("\t")[0] for line in capsys.readouterr().out.strip().split("\n")]
        assert names[-2:] == ["oracle_lts", "oracle_mcd"]

    def test_bad_flag_exit_4(self, tmp_path, capsys):
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--response", "y", "--predictors", "x1",
                  "--format", "yaml"])
        assert exc.value.code == 4

    def test_bad_flag_value_exit_4(self, tmp_path):
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1",
                     "--alpha", "0.9"])
        assert code == 4

    def test_no_intercept_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        x = rng.uniform(1, 4, size=30)
        data = make_dataset(x, 3.0 * x + rng.normal(scale=0.1, size=30), has_intercept=False)
        path = dataset_to_csv(data, tmp_path / "data.csv")
        code = main(["analyze", path, "--response", "y", "--predictors", "x1",
                     "--no-intercept", "--format", "json"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["ols"]["coefficient_names"] == ["x1"]
        assert parsed["config"]["model"]["has_intercept"] is False
        assert abs(parsed["ols"]["coefficients"][0] - 3.0) < 0.05

    @pytest.mark.parametrize(
        ("case", "code", "prefix"),
        [
            ("non_utf8", 2, "hibreak: input error:"),
            ("directory", 2, "hibreak: input error:"),
            ("plot_in_missing_dir", 2, "hibreak: input error:"),
            ("oversized_cell", 2, "hibreak: input error:"),
            ("repeated_column", 2, "hibreak: input error:"),
            ("negative_seed", 4, "hibreak: bad flag value:"),
            ("nan_cutoff", 4, "hibreak: bad flag value:"),
            ("overflowing_cell", 3, "hibreak: numerical failure: stage 'ols':"),
            ("huge_no_intercept", 3, "hibreak: numerical failure: stage 'mcd':"),
            ("huge_cells", 3, "hibreak: numerical failure: stage 'ols':"),
        ],
    )
    def test_error_exits_without_traceback(self, tmp_path, capsys, recwarn, case, code, prefix):
        body = "".join(f"r{i},{i % 3 + 0.5 * i},{i}\n" for i in range(12))
        good = "c,y,x1\n" + body
        path = tmp_path / "data.csv"
        path.write_text(good, encoding="utf-8")
        flags = []
        if case == "non_utf8":
            path.write_bytes(good.replace("r1,", "caf\xe9,").encode("latin-1"))
        elif case == "directory":
            path = tmp_path
        elif case == "plot_in_missing_dir":
            flags = ["--plot-data", str(tmp_path / "nodir" / "map.json")]
        elif case == "oversized_cell":
            path.write_text(good + "big,1.0," + "1" * 200_000 + "\n", encoding="utf-8")
        elif case == "repeated_column":
            path.write_text("c,y,x1,x1\n" + body.replace("\n", ",1\n"), encoding="utf-8")
        elif case == "overflowing_cell":  # finite, but its square is not
            path.write_text(good + "huge,1e200,12\n", encoding="utf-8")
        elif case == "huge_no_intercept":  # finite moments, but no finite MCD determinant
            cells = np.random.default_rng(0).standard_normal((30, 3)) * 1e150
            rows = "".join(f"r{i},{y!r},{a!r},{b!r}\n" for i, (y, a, b) in enumerate(cells.tolist()))
            path.write_text("c,y,x1,x2\n" + rows, encoding="utf-8")
            flags = ["--no-intercept", "--predictors", "x1,x2"]
        elif case == "huge_cells":  # finite cells, but X'X overflows
            cells = np.random.default_rng(0).standard_normal((30, 3)) * 1e160
            rows = "".join(f"r{i},{y!r},{a!r},{b!r}\n" for i, (y, a, b) in enumerate(cells.tolist()))
            path.write_text("c,y,x1,x2\n" + rows, encoding="utf-8")
            flags = ["--predictors", "x1,x2"]
        elif case == "negative_seed":
            flags = ["--seed", "-1"]
        else:
            flags = ["--resid-cutoff", "nan"]
        assert main(["analyze", str(path), "--response", "y", "--predictors", "x1", *flags]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(prefix)
        assert "Traceback" not in err
        assert not recwarn.list

    def test_every_error_type_has_one_exit_code(self):
        # InputError exits 2 and NumericalError 3; plain ValueErrors are API misuse
        bases = (errors.HibreakError, InputError, NumericalError)
        defined = {c for c in vars(errors).values()
                   if isinstance(c, type) and c.__module__ == errors.__name__}
        for cls in defined - set(bases):
            kinds = [issubclass(cls, InputError), issubclass(cls, NumericalError),
                     not issubclass(cls, errors.HibreakError) and issubclass(cls, ValueError)]
            assert kinds.count(True) == 1, cls

    def test_console_script_runs(self, tmp_path):
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "hibreak.cli", "analyze", path,
             "--response", "y", "--predictors", "x1", "--format", "tsv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("var\t")

    def test_json_report_at_any_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a dot product of over 10,000 elements across its threads
        rng = np.random.default_rng(20000)
        x = rng.standard_normal((20000, 2))
        y = 1.0 + x.sum(axis=1) + rng.standard_normal(20000)
        y[:4000] += 12.0
        path = tmp_path / "rows.csv"
        path.write_text("c,y,x1,x2\n" + "".join(
            f"r{i},{v!r},{a!r},{b!r}\n" for i, (v, a, b) in enumerate(zip(y.tolist(), *x.T.tolist()))))
        reports = [
            subprocess.run(
                [sys.executable, "-m", "hibreak.cli", "analyze", str(path),
                 "--response", "y", "--predictors", "x1,x2", "--format", "json"],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert reports[0] == reports[1]

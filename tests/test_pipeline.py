import json
import subprocess
import sys

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
from hibreak.cli import main
from hibreak.errors import DuplicateLabel, MissingColumn, ParseError
from hibreak.ols import RegressionFit, t_and_p
from hibreak.pipeline import AnalysisConfig, ModelSpec

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(str(tmp_path / "nope.csv"), MODEL_XY)

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

    def test_model_mismatch_rejected(self):
        data = clean_instance()
        with pytest.raises(ValueError):
            run_analysis(data, AnalysisConfig(model=ModelSpec("y", ("x2",))))

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
        from hibreak.pipeline import AnalysisReport, _comparison

        report = AnalysisReport(
            ols_fit=fit, diagnostics=[], dropped=[], robust_fit=fit,
            config_echo={
                "model": {"response": "R", "predictors": ["Growth"], "has_intercept": False},
                "lts": {"alpha": 0.25, "h": 21, "n_starts": 500, "n_best_kept": 10,
                        "seed": 0, "max_csteps": 100, "consistency_factor": 1.65},
                "mcd": {"h_fraction": 0.75, "h": 21, "n_starts": 500, "n_best_kept": 10,
                        "seed": 0, "max_csteps": 100, "consistency_factor": 1.86},
                "thresholds": {"residual_cutoff": 2.5, "distance_quantile": 0.975,
                               "severe_residual_cutoff": 4.0, "distance_cutoff": 2.716},
                "output_format": "markdown",
            },
            comparison=_comparison(fit, fit),
        )
        text = render_report(report, "markdown")
        assert "+3.489" in text  # rounds to the printed 3.49
        assert round(float(t[0]), 2) == 3.49
        tsv = render_report(report, "tsv")
        assert "+3.489" in tsv

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

    def test_console_script_runs(self, tmp_path):
        path = dataset_to_csv(clean_instance(), tmp_path / "data.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "hibreak.cli", "analyze", path,
             "--response", "y", "--predictors", "x1", "--format", "tsv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("var\t")

"""End-to-end analysis: OLS, LTS flagging, MCD leverage, drop, refit, report.

The report pairs the all-rows OLS fit with the refit on the rows that
survive the diagnostic drop rule, in the two-panel layout of the classical
comparison tables, and echoes every parameter the analysis used (including
defaulted ones) so that no threshold stays silent.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import lts as lts_mod
from . import mcd as mcd_mod
from .diagnostics import (
    Classification,
    DiagnosticRecord,
    DiagnosticThresholds,
    classify_all,
    distance_cutoff,
)
from .errors import (
    DuplicateLabel,
    HibreakError,
    MissingColumn,
    ParseError,
    PipelineStageError,
)
from .lts import LtsConfig, LtsFit, fit_lts
from .mcd import McdConfig, McdEstimate, fit_mcd
from .ols import Dataset, RegressionFit, fit_ols


@dataclass(frozen=True)
class ModelSpec:
    response: str
    predictors: tuple[str, ...]
    has_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if not self.predictors:
            raise ValueError("model needs at least one predictor column")
        if self.response in self.predictors:
            raise ValueError(f"response {self.response!r} is also a predictor")


@dataclass(frozen=True)
class AnalysisConfig:
    model: ModelSpec
    lts: LtsConfig = field(default_factory=LtsConfig)
    mcd: McdConfig = field(default_factory=McdConfig)
    thresholds: DiagnosticThresholds = field(default_factory=DiagnosticThresholds)
    output_format: str = "markdown"

    def __post_init__(self):
        if self.output_format not in ("json", "markdown", "tsv"):
            raise ValueError(f"unknown output format {self.output_format!r}")


@dataclass(frozen=True)
class DroppedRow:
    label: str
    reason: str


@dataclass(eq=False)
class AnalysisReport:
    """The analysis as rendered; lts_fit and mcd_estimate are the searches
    behind it, kept for checks such as --oracle and not serialized."""

    ols_fit: RegressionFit
    diagnostics: list[DiagnosticRecord]
    dropped: list[DroppedRow]
    robust_fit: RegressionFit
    config_echo: dict
    comparison: dict
    lts_fit: LtsFit | None = field(default=None, repr=False)
    mcd_estimate: McdEstimate | None = field(default=None, repr=False)


def load_csv(path: str, model: ModelSpec) -> Dataset:
    """Read a dataset: header row, label column first, numeric cells.

    ParseError carries the 1-based data row and the offending column name;
    NaN and infinite cells are rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ParseError(0, "", "file has no header row")
        columns = tuple(name.strip() for name in header[1:])
        labels: list[str] = []
        seen: set[str] = set()
        rows: list[list[float]] = []
        for i, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != len(header):
                raise ParseError(i, "", f"row {i} has {len(raw)} cells, expected {len(header)}")
            label = raw[0].strip()
            if label in seen:
                raise DuplicateLabel(label)
            seen.add(label)
            parsed = []
            for name, cell in zip(columns, raw[1:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(i, name) from None
                if not math.isfinite(value):
                    raise ParseError(i, name, f"non-finite value at row {i}, column {name!r}")
                parsed.append(value)
            labels.append(label)
            rows.append(parsed)
    for name in (model.response, *model.predictors):
        if name not in columns:
            raise MissingColumn(name)
    return Dataset(
        row_labels=tuple(labels),
        column_names=columns,
        response=model.response,
        predictors=model.predictors,
        values=np.array(rows, dtype=float).reshape(len(rows), len(columns)),
        has_intercept=model.has_intercept,
    )


def _config_echo(data: Dataset, config: AnalysisConfig) -> dict:
    n, k, p = data.n, data.k, len(data.predictors)
    h_lts = lts_mod.trimmed_size(n, k, config.lts.alpha)
    h_mcd = mcd_mod.subset_size(n, config.mcd.h_fraction)
    return {
        "model": {
            "response": config.model.response,
            "predictors": list(config.model.predictors),
            "has_intercept": config.model.has_intercept,
        },
        "lts": {
            **asdict(config.lts),
            "h": h_lts,
            "consistency_factor": lts_mod.consistency_factor(h_lts, n),
        },
        "mcd": {
            **asdict(config.mcd),
            "h": h_mcd,
            "consistency_factor": mcd_mod.scatter_consistency_factor(h_mcd, n, p),
        },
        "thresholds": {
            **asdict(config.thresholds),
            "distance_cutoff": distance_cutoff(config.thresholds, p),
        },
        "output_format": config.output_format,
    }


def _fit_summary(fit: RegressionFit) -> dict:
    return {key: getattr(fit, key) for key in ("r_squared", "f_value", "sigma", "n_used")}


def _coefficient(fit: RegressionFit, j: int) -> dict:
    columns = (fit.coefficients, fit.standard_errors, fit.t_values, fit.p_values)
    return {key: float(column[j]) for key, column in zip(("coeff", "se", "t", "p"), columns)}


def _comparison(ols: RegressionFit, robust: RegressionFit) -> dict:
    rows = [
        {"name": name, "ols": _coefficient(ols, j), "robust": _coefficient(robust, j)}
        for j, name in enumerate(ols.coefficient_names)
    ]
    return {"rows": rows, "ols": _fit_summary(ols), "robust": _fit_summary(robust)}


def run_analysis(data: Dataset, config: AnalysisConfig) -> AnalysisReport:
    """OLS on all rows, LTS + MCD flagging, drop recommended rows, refit.

    Leverage distances come from the predictor columns only (never the
    intercept); exactly the drop-recommended rows are excluded from the
    refit. Deterministic for fixed seeds. Stage failures re-raise as
    PipelineStageError naming the stage.
    """
    if data.response != config.model.response or data.predictors != config.model.predictors:
        raise ValueError("config model does not match the dataset's designations")

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HibreakError as err:
            raise PipelineStageError(name, err) from err

    ols_fit = stage("ols", fit_ols, data)
    lts_fit = stage("lts", fit_lts, data, config.lts)
    mcd_est = stage("mcd", fit_mcd, data.predictor_matrix(), config.mcd)
    records = stage("diagnostics", classify_all, lts_fit, mcd_est, data, config.thresholds)

    dropped = [
        DroppedRow(
            label=rec.row_label,
            reason=(
                f"{rec.classification.value}: abs(standardized residual)="
                f"{abs(rec.standardized_residual):.4g}, robust distance="
                f"{rec.robust_distance:.4g}"
            ),
        )
        for rec in records
        if rec.drop_recommended
    ]
    robust_fit = stage("refit", fit_ols, data, {row.label for row in dropped})

    return AnalysisReport(
        ols_fit=ols_fit,
        diagnostics=records,
        dropped=dropped,
        robust_fit=robust_fit,
        config_echo=_config_echo(data, config),
        comparison=_comparison(ols_fit, robust_fit),
        lts_fit=lts_fit,
        mcd_estimate=mcd_est,
    )


# ---------------------------------------------------------------------------
# Serialization and rendering
# ---------------------------------------------------------------------------

# RegressionFit fields that hold arrays; its other sequence fields are tuples.
_ARRAY_FIELDS = ("coefficients", "standard_errors", "t_values", "p_values", "residuals")


def _fit_to_dict(fit: RegressionFit) -> dict:
    d = {f.name: getattr(fit, f.name) for f in fields(fit)}
    for name, value in d.items():
        if name in _ARRAY_FIELDS:
            d[name] = [float(v) for v in value]
        elif isinstance(value, tuple):
            d[name] = list(value)
    return d


def _fit_from_dict(d: dict) -> RegressionFit:
    d = dict(d)
    for name, value in d.items():
        if name in _ARRAY_FIELDS:
            d[name] = np.array(value, dtype=float)
        elif isinstance(value, list):
            d[name] = tuple(value)
    return RegressionFit(**d)


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "config": report.config_echo,
        "ols": _fit_to_dict(report.ols_fit),
        "robust": _fit_to_dict(report.robust_fit),
        "diagnostics": [
            {
                "label": rec.row_label,
                "sr": rec.standardized_residual,
                "rd": rec.robust_distance,
                "sr_cutoff": rec.residual_cutoff,
                "rd_cutoff": rec.distance_cutoff,
                "class": rec.classification.value,
                "drop": rec.drop_recommended,
            }
            for rec in report.diagnostics
        ],
        "dropped": [{"label": row.label, "reason": row.reason} for row in report.dropped],
        "comparison": report.comparison,
    }


def report_from_json(text: str) -> AnalysisReport:
    """Rebuild a report from its JSON rendering (lossless round trip)."""
    d = json.loads(text)
    return AnalysisReport(
        ols_fit=_fit_from_dict(d["ols"]),
        robust_fit=_fit_from_dict(d["robust"]),
        diagnostics=[
            DiagnosticRecord(
                row_label=rec["label"],
                standardized_residual=rec["sr"],
                robust_distance=rec["rd"],
                residual_cutoff=rec["sr_cutoff"],
                distance_cutoff=rec["rd_cutoff"],
                classification=Classification(rec["class"]),
                drop_recommended=rec["drop"],
            )
            for rec in d["diagnostics"]
        ],
        dropped=[DroppedRow(label=row["label"], reason=row["reason"]) for row in d["dropped"]],
        config_echo=d["config"],
        comparison=d["comparison"],
    )


def _sig(value, signed=False) -> str:
    """Render a number with 4 significant decimals; optionally force a sign."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return f"{value:+d}" if signed else str(value)
    return f"{value:+.4g}" if signed else f"{value:.4g}"


def _coefficient_cells(row: dict) -> list[str]:
    """Var. name, then coefficient, S.E., t and p for OLS and for the robust refit."""
    cells = [row["name"]]
    for panel in (row["ols"], row["robust"]):
        cells += [_sig(panel["coeff"], signed=True), _sig(panel["se"]),
                  _sig(panel["t"], signed=True), _sig(panel["p"])]
    return cells


def _render_markdown(report: AnalysisReport, oracle: dict | None) -> str:
    echo = report.config_echo
    model = echo["model"]
    terms = (["const"] if model["has_intercept"] else []) + list(model["predictors"])
    out = [
        "# Robust regression report",
        "",
        f"Model: {model['response']} ~ {' + '.join(terms)} (n = {report.ols_fit.n_used})",
        "",
        "## Coefficient comparison",
        "",
        "| Var. | OLS Coeff. | S.E. | t-value | P-value "
        "| ROBUST Coeff. | S.E. | t-value | P-value |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    out += ["| " + " | ".join(_coefficient_cells(row)) + " |" for row in report.comparison["rows"]]
    out += ["", "| | OLS | ROBUST |", "|---|---|---|"]
    for key, title in (
        ("r_squared", "R^2"),
        ("f_value", "F-value"),
        ("sigma", "sigma"),
        ("n_used", "n used"),
    ):
        out.append(
            f"| {title} | {_sig(report.comparison['ols'][key])} "
            f"| {_sig(report.comparison['robust'][key])} |"
        )
    out += [
        "",
        "## Diagnostics",
        "",
        "| Row | Std. residual | Robust distance | Class | Drop |",
        "|---|---|---|---|---|",
    ]
    for rec in report.diagnostics:
        out.append(
            f"| {rec.row_label} | {_sig(rec.standardized_residual, signed=True)} "
            f"| {_sig(rec.robust_distance)} | {rec.classification.value} "
            f"| {'yes' if rec.drop_recommended else 'no'} |"
        )
    out += ["", "## Dropped observations", ""]
    if report.dropped:
        out += ["| Row | Reason |", "|---|---|"]
        out += [f"| {row.label} | {row.reason} |" for row in report.dropped]
    else:
        out.append("none")
    out += ["", "## Configuration", ""]
    for name, size in (("lts", "alpha"), ("mcd", "h_fraction")):
        e = echo[name]
        out.append(
            f"- {name}: {size}={e[size]}, h={e['h']}, "
            f"n_starts={e['n_starts']}, n_best_kept={e['n_best_kept']}, "
            f"seed={e['seed']}, max_csteps={e['max_csteps']}, "
            f"consistency_factor={_sig(e['consistency_factor'])}"
        )
    thr = echo["thresholds"]
    out.append(
        f"- thresholds: residual_cutoff={thr['residual_cutoff']}, "
        f"severe_residual_cutoff={thr['severe_residual_cutoff']}, "
        f"distance_quantile={thr['distance_quantile']}, "
        f"distance_cutoff={_sig(thr['distance_cutoff'])}"
    )
    if oracle is not None:
        out += ["", "## Oracle check", ""]
        out += [
            f"- {name}: heuristic={block['heuristic_objective']!r}, "
            f"exact={block['exact_objective']!r}, match={block['match']}"
            for name, block in sorted(oracle.items())
        ]
    out.append("")
    return "\n".join(out)


def _render_tsv(report: AnalysisReport, oracle: dict | None) -> str:
    rows = [
        ["var", "ols_coeff", "ols_se", "ols_t", "ols_p",
         "robust_coeff", "robust_se", "robust_t", "robust_p"]
    ]
    rows += [_coefficient_cells(row) for row in report.comparison["rows"]]
    for key in ("r_squared", "f_value", "sigma", "n_used"):
        rows.append(
            [key, _sig(report.comparison["ols"][key]), "-", "-", "-",
             _sig(report.comparison["robust"][key]), "-", "-", "-"]
        )
    if oracle is not None:
        for name, block in sorted(oracle.items()):
            rows.append(
                [f"oracle_{name}", repr(block["heuristic_objective"]), "-", "-", "-",
                 repr(block["exact_objective"]), "-", "-", "-"]
            )
    return "\n".join("\t".join(row) for row in rows) + "\n"


def render_report(report: AnalysisReport, fmt: str, oracle: dict | None = None) -> str:
    """Render a report as markdown, lossless JSON, or machine-joinable TSV."""
    if fmt == "json":
        d = report_to_dict(report)
        if oracle is not None:
            d["oracle"] = oracle
        return json.dumps(d, sort_keys=True, indent=2)
    if fmt == "markdown":
        return _render_markdown(report, oracle)
    if fmt == "tsv":
        return _render_tsv(report, oracle)
    raise ValueError(f"unknown output format {fmt!r}")

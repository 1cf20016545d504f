"""End-to-end analysis: OLS, LTS flagging, MCD leverage, drop, refit, report.

The report pairs the all-rows OLS fit with the refit on the rows that
survive the diagnostic drop rule, in the two-panel layout of the classical
comparison tables, and echoes every parameter the analysis used (including
defaulted ones) so that no threshold stays silent.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .diagnostics import (
    RECORD_FIELDS,
    Classification,
    DiagnosticRecord,
    DiagnosticThresholds,
    classify_all,
    distance_cutoff,
    json_column,
    json_rows,
    record_columns,
)
from .errors import DuplicateLabel, HibreakError, ParseError, PipelineStageError
from .lts import LtsConfig, LtsFit, consistency_factor, fit_lts
from .mcd import McdConfig, McdEstimate, fit_mcd
from .ols import Dataset, RegressionFit, fit_ols

REPORT_FORMATS = ("json", "markdown", "tsv")


@dataclass(frozen=True)
class ModelSpec:
    response: str
    predictors: tuple[str, ...]
    has_intercept: bool = True

    def __post_init__(self):
        predictors = tuple(name.strip() for name in self.predictors if name.strip())
        object.__setattr__(self, "response", self.response.strip())
        object.__setattr__(self, "predictors", predictors)
        if not predictors:
            raise ValueError("model needs at least one predictor column")
        if len(set(predictors)) < len(predictors):
            raise ValueError(f"predictors {list(predictors)} name a column twice")
        if self.response in predictors:
            raise ValueError(f"response {self.response!r} is also a predictor")


@dataclass(frozen=True)
class AnalysisConfig:
    model: ModelSpec
    lts: LtsConfig = field(default_factory=LtsConfig)
    mcd: McdConfig = field(default_factory=McdConfig)
    thresholds: DiagnosticThresholds = field(default_factory=DiagnosticThresholds)
    output_format: str = "markdown"

    def __post_init__(self):
        if self.output_format not in REPORT_FORMATS:
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
    diagnostics: Sequence[DiagnosticRecord]  # classify_all's DiagnosticList, or any list
    dropped: list[DroppedRow]
    robust_fit: RegressionFit
    config_echo: dict
    comparison: dict
    lts_fit: LtsFit | None = field(default=None, repr=False)
    mcd_estimate: McdEstimate | None = field(default=None, repr=False)


def _csv_rows(raw: bytes):
    """The csv.reader rows of raw; text that is not UTF-8 or that csv rejects raises ParseError."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
    try:
        yield from reader
    except csv.Error as err:
        n_read = reader.line_num
        raise ParseError(n_read, "", f"cannot read the CSV after {n_read} lines: {err}") from None
    except UnicodeDecodeError:
        # The text layer decodes ahead of the reader, so the bad line is found in the bytes.
        for row, line in enumerate(raw.splitlines()):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as err:
                raise ParseError(row, "", f"line {row + 1} is not UTF-8: {err}") from None
        raise


def _parse_rows(raw: bytes) -> tuple[list[str], list[str], np.ndarray]:
    """(header cells, row labels, values) of any CSV, row by row with csv and float().

    ParseError carries the 1-based data row (blank lines count) and the column name.
    """
    reader = _csv_rows(raw)
    header = next(reader, None)
    if not header:
        raise ParseError(0, "", "file has no header row")
    columns = tuple(name.strip() for name in header[1:])
    labels: list[str] = []
    seen: set[str] = set()
    rows: list[list[float]] = []
    for i, cells in enumerate(reader, start=1):
        if not cells:
            continue
        if len(cells) != len(header):
            raise ParseError(i, "", f"row {i} has {len(cells)} cells, expected {len(header)}")
        label = cells[0].strip()
        if label in seen:
            raise DuplicateLabel(label)
        seen.add(label)
        parsed = []
        for name, cell in zip(columns, cells[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(i, name) from None
            if not math.isfinite(value):
                raise ParseError(i, name, f"non-finite value at row {i}, column {name!r}")
            parsed.append(value)
        labels.append(label)
        rows.append(parsed)
    return header, labels, np.array(rows, dtype=float).reshape(len(rows), len(columns))


# Left to the csv module: quoting, the \r line end and NUL, and U+001C-U+001F,
# which loadtxt strips from a cell as whitespace and float() does not.
_ROW_PARSER_CHARS = '"\r\0\x1c\x1d\x1e\x1f'


def _read_plain(raw: bytes) -> tuple[list[str], list[str], np.ndarray] | None:
    """_parse_rows's result for a plain, valid file, from one np.loadtxt pass; else None.

    loadtxt converts each cell with PyOS_string_to_double, as float() does, so
    the values get the same bits. A file outside that lane (not UTF-8, a
    character above, an empty header, a line over csv's field limit, a cell
    count, label, cell or value the row parser would reject) gives None.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = text.split("\n")
    header = lines[0].split(",")
    if (len(header) < 2 or any(char in text for char in _ROW_PARSER_CHARS)
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    body = [line.partition(",") for line in lines[1:] if line]
    labels = [label.strip() for label, _, _ in body]
    cells = [rest for _, _, rest in body]
    if not all(cells) or len(set(labels)) < len(labels):  # loadtxt skips an empty line
        return None
    width = len(header) - 1
    try:
        values = (np.loadtxt(cells, delimiter=",", comments=None, quotechar=None, ndmin=2)
                  if cells else np.empty((0, width)))
    except ValueError:  # a cell count that changes, or a cell loadtxt cannot convert
        return None
    if values.shape != (len(labels), width) or not np.isfinite(values).all():
        return None
    return header, labels, values


def load_csv(path: str, model: ModelSpec) -> Dataset:
    """Read a dataset: header row, label column first, numeric cells.

    ParseError carries the 1-based data row and the offending column name;
    NaN and infinite cells are rejected. A plain file is read by one
    np.loadtxt pass, any other by the csv module row by row; both give the
    same values, bit for bit, and the same errors.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    header, labels, values = _read_plain(raw) or _parse_rows(raw)
    return Dataset(
        row_labels=tuple(labels),
        column_names=tuple(name.strip() for name in header[1:]),
        response=model.response,
        predictors=model.predictors,
        values=values,
        has_intercept=model.has_intercept,
    )


def _config_echo(
    data: Dataset, config: AnalysisConfig, lts_fit: LtsFit, mcd_est: McdEstimate
) -> dict:
    return {
        "model": {
            "response": config.model.response,
            "predictors": list(config.model.predictors),
            "has_intercept": config.model.has_intercept,
        },
        "lts": {
            **asdict(config.lts),
            "h": lts_fit.h,
            "consistency_factor": consistency_factor(lts_fit.h, data.n),
        },
        "mcd": {
            **asdict(config.mcd),
            "h": mcd_est.h,
            "consistency_factor": mcd_est.consistency_factor,
        },
        "thresholds": {
            **asdict(config.thresholds),
            "distance_cutoff": distance_cutoff(config.thresholds, len(data.predictors)),
        },
        "output_format": config.output_format,
    }


# The fit statistics of the report's summary rows, with their markdown titles.
_SUMMARY = (("r_squared", "R^2"), ("f_value", "F-value"), ("sigma", "sigma"), ("n_used", "n used"))


def _fit_summary(fit: RegressionFit) -> dict:
    return {key: getattr(fit, key) for key, _ in _SUMMARY}


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
    model = config.model
    if (data.response, data.predictors, data.has_intercept) != (
            model.response, model.predictors, model.has_intercept):
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

    c = record_columns(records)
    dropped = [
        DroppedRow(label, f"{cls}: abs(standardized residual)={abs(sr):.4g}, "
                          f"robust distance={rd:.4g}")
        for label, cls, sr, rd in itertools.compress(
            zip(c["label"], c["class"], c["sr"], c["rd"]), c["drop"])
    ]
    robust_fit = stage("refit", fit_ols, data, {row.label for row in dropped})

    return AnalysisReport(
        ols_fit=ols_fit,
        diagnostics=records,
        dropped=dropped,
        robust_fit=robust_fit,
        config_echo=_config_echo(data, config, lts_fit, mcd_est),
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
            d[name] = np.asarray(value, dtype=float).tolist()
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


def _report_dict(report: AnalysisReport, diagnostics, dropped) -> dict:
    return {
        "config": report.config_echo,
        "ols": _fit_to_dict(report.ols_fit),
        "robust": _fit_to_dict(report.robust_fit),
        "diagnostics": diagnostics,
        "dropped": dropped,
        "comparison": report.comparison,
    }


def report_to_dict(report: AnalysisReport) -> dict:
    rows = [
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
    ]
    dropped = [{"label": row.label, "reason": row.reason} for row in report.dropped]
    return _report_dict(report, rows, dropped)


def report_from_json(text: str) -> AnalysisReport:
    """Rebuild a report from its JSON rendering (lossless round trip)."""
    d = json.loads(text)
    return AnalysisReport(
        ols_fit=_fit_from_dict(d["ols"]),
        robust_fit=_fit_from_dict(d["robust"]),
        diagnostics=[
            DiagnosticRecord(**{attribute: row[key] for key, attribute in RECORD_FIELDS.items()}
                             | {"classification": Classification(row["class"])})
            for row in d["diagnostics"]
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
    for key, title in _SUMMARY:
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
    c = record_columns(report.diagnostics)
    out += [
        f"| {label} | {_sig(sr, signed=True)} | {_sig(rd)} | {cls} | {'yes' if drop else 'no'} |"
        for label, sr, rd, cls, drop in zip(c["label"], c["sr"], c["rd"], c["class"], c["drop"])
    ]
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
    for key, _ in _SUMMARY:
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


class _Rows(dict):
    """{key: column} that _dumps writes as a list of objects, one per row (json_rows)."""


def _dumps(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2) at nesting indent, byte for byte.

    Plain dicts with str keys that hold a list or _Rows are walked, lists are
    written a column at a time (json_column), and _Rows a key at a time
    (json_rows), with their keys sorted. json.dumps writes the rest; its
    ensure_ascii output holds no raw newline, so it can be re-indented.
    """
    inner = indent + "  "
    if (type(value) is dict and any(isinstance(v, (list, _Rows)) for v in value.values())
            and all(type(key) is str for key in value)):
        items = [f"{json.dumps(key)}: {_dumps(v, inner)}" for key, v in sorted(value.items())]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, _Rows):
        items = json_rows(dict(sorted(value.items())), inner, lambda v: _dumps(v, inner + "  "))
    elif isinstance(value, list):
        items = json_column(value, lambda v: _dumps(v, inner))
    else:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    return "[\n" + inner + f",\n{inner}".join(items) + f"\n{indent}]" if items else "[]"


def render_report(report: AnalysisReport, fmt: str, oracle: dict | None = None) -> str:
    """Render a report as markdown, lossless JSON, or machine-joinable TSV."""
    if fmt == "json":
        # The per-row parts are written a column at a time, with no dict per row.
        ledger = {f.name: [getattr(row, f.name) for row in report.dropped] for f in fields(DroppedRow)}
        d = _report_dict(report, _Rows(record_columns(report.diagnostics)), _Rows(ledger))
        if oracle is not None:
            d["oracle"] = oracle
        return _dumps(d)
    if fmt == "markdown":
        return _render_markdown(report, oracle)
    if fmt == "tsv":
        return _render_tsv(report, oracle)
    raise ValueError(f"unknown output format {fmt!r}")

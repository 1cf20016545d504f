"""Observation taxonomy from standardized residuals and robust distances.

Each observation lands in exactly one of four regions of the
(robust distance, |standardized residual|) quadrant: regular, vertical
outlier (big residual only), good leverage (big distance only), or bad
leverage (both). Bad leverage points are always recommended for removal;
vertical outliers only when the residual is severe.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core_stats import chi2_quantile
from .errors import LengthMismatch
from .ols import Dataset


class Classification(str, Enum):
    REGULAR = "Regular"
    VERTICAL_OUTLIER = "VerticalOutlier"
    GOOD_LEVERAGE = "GoodLeverage"
    BAD_LEVERAGE = "BadLeverage"


@dataclass(frozen=True)
class DiagnosticThresholds:
    """Flagging bands: residual cutoff in sigma units, distance quantile."""

    residual_cutoff: float = 2.5
    distance_quantile: float = 0.975
    severe_residual_cutoff: float = 4.0

    def __post_init__(self):  # each test is written so that NaN fails it
        if not self.residual_cutoff > 0.0:
            raise ValueError("residual_cutoff must be positive")
        if not 0.0 < self.distance_quantile < 1.0:
            raise ValueError("distance_quantile must lie in (0, 1)")
        if not self.severe_residual_cutoff >= self.residual_cutoff:
            raise ValueError("severe_residual_cutoff must be >= residual_cutoff")


@dataclass(frozen=True)
class DiagnosticRecord:
    row_label: str
    standardized_residual: float
    robust_distance: float
    residual_cutoff: float
    distance_cutoff: float
    classification: Classification
    drop_recommended: bool


def distance_cutoff(thresholds: DiagnosticThresholds, p: int) -> float:
    """Leverage cutoff sqrt(chi2_quantile(distance_quantile, p)); DomainError if p < 1."""
    return math.sqrt(chi2_quantile(thresholds.distance_quantile, p))


# In definition order, indexed by 2 * (distance >= cutoff) + (|residual| >= cutoff).
_CLASSES = tuple(Classification)


def _records(residuals, distances, labels, thresholds, d_cut) -> list[DiagnosticRecord]:
    """The four-way rule and the drop rule for whole arrays, one record per label.

    NaN compares false, so a NaN residual or distance never counts as big.
    """
    residuals = np.asarray(residuals, dtype=float)
    distances = np.asarray(distances, dtype=float)
    size = np.abs(residuals)
    big_residual = size >= thresholds.residual_cutoff
    big_distance = distances >= d_cut
    # Bad leverage always drops; a vertical outlier only when severe.
    drop = big_residual & (big_distance | (size >= thresholds.severe_residual_cutoff))
    codes = 2 * big_distance + big_residual
    return [
        DiagnosticRecord(label, r, d, thresholds.residual_cutoff, d_cut, _CLASSES[c], dr)
        for label, r, d, c, dr in zip(
            labels, residuals.tolist(), distances.tolist(), codes.tolist(), drop.tolist()
        )
    ]


def classify(
    standardized_residual: float,
    robust_distance: float,
    thresholds: DiagnosticThresholds,
    p: int,
    row_label: str = "",
) -> DiagnosticRecord:
    """Place one observation in the four-way taxonomy.

    Boundary values count as exceeding (the outlier side is closed), so a
    residual sitting exactly on the band is flagged. p < 1 raises
    DomainError, a ValueError.
    """
    d_cut = distance_cutoff(thresholds, p)
    return _records([standardized_residual], [robust_distance], [row_label], thresholds, d_cut)[0]


def classify_all(lts_fit, mcd_estimate, data: Dataset, thresholds=None) -> list[DiagnosticRecord]:
    """One DiagnosticRecord per dataset row, in row order; the cutoff is computed once."""
    thresholds = thresholds or DiagnosticThresholds()
    residuals = lts_fit.standardized_residuals
    distances = mcd_estimate.robust_distances
    if not len(residuals) == len(distances) == data.n:
        raise LengthMismatch(
            f"{len(residuals)} residuals, {len(distances)} distances, {data.n} rows"
        )
    d_cut = distance_cutoff(thresholds, len(data.predictors))
    return _records(residuals, distances, data.row_labels, thresholds, d_cut)


# ---------------------------------------------------------------------------
# Per-row JSON, written a column at a time
# ---------------------------------------------------------------------------

# The DiagnosticRecord attribute behind each per-row key: the report writes all of
# them in key order, the outlier map the first four in this order.
RECORD_FIELDS = {
    "label": "row_label",
    "rd": "robust_distance",
    "sr": "standardized_residual",
    "class": "classification",
    "rd_cutoff": "distance_cutoff",
    "sr_cutoff": "residual_cutoff",
    "drop": "drop_recommended",
}


def json_column(values, dumps=json.dumps) -> list[str]:
    """json.dumps(v) of each v, from one C-encoder pass split at its item separator.

    A column that holds a container, whose own separators would split it,
    is written item by item with dumps instead.
    """
    if any(issubclass(t, (list, tuple, dict)) for t in set(map(type, values))):
        return list(map(dumps, values))
    # ensure_ascii escapes a newline inside an item, so only the separators split
    return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n") if values else []


def json_rows(records, fields, indent: str | None = None, dumps=json.dumps) -> list[str]:
    """Each record as a JSON object of its attribute under each key of the (key, attribute) fields.

    Keys come in the order of fields. Without indent in json.dumps's default
    one-line form; with it in the indent=2 form of an object nested at that
    indent, where dumps writes a container value. The text of one key is
    one column (json_column), so no dict is made per record.
    """
    if indent is None:
        opening, separator, closing = "{", ", ", "}"
    else:
        opening, separator = "{\n" + indent + "  ", ",\n" + indent + "  "
        closing = "\n" + indent + "}"
    pieces = []
    for i, (key, attribute) in enumerate(fields):
        column = json_column(list(map(operator.attrgetter(attribute), records)), dumps)
        pieces += [itertools.repeat((separator if i else opening) + json.dumps(key) + ": "), column]
    return list(map("".join, zip(*pieces, [closing] * len(records))))


@dataclass(eq=False)
class PlotData:
    """Outlier-map points plus the two cutoff lines, JSON/TSV serializable.

    outlier_map's PlotData keeps its records and makes the point dicts when
    points is first read; until then to_json writes from the records.
    """

    points: list[dict]
    rd_cutoff: float
    sr_cutoff: float
    _records = ()  # not a field

    def __getattr__(self, name):  # reached only while an attribute is unset
        if name != "points" or not self._records:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.points = [
            {
                "label": rec.row_label,
                "rd": rec.robust_distance,
                "sr": rec.standardized_residual,
                "class": rec.classification.value,
            }
            for rec in self._records
        ]
        return self.points

    def to_json(self) -> str:
        if "points" in vars(self):
            points = json_column(self.points)
        else:
            points = json_rows(self._records, list(RECORD_FIELDS.items())[:4])
        return (f'{{"points": [{", ".join(points)}], "rd_cutoff": {json.dumps(self.rd_cutoff)}, '
                f'"sr_cutoff": {json.dumps(self.sr_cutoff)}}}')

    def to_tsv(self) -> str:
        lines = ["label\trd\tsr\tclass\trd_cutoff\tsr_cutoff"]
        for pt in self.points:
            lines.append(
                f"{pt['label']}\t{pt['rd']!r}\t{pt['sr']!r}\t{pt['class']}"
                f"\t{self.rd_cutoff!r}\t{self.sr_cutoff!r}"
            )
        return "\n".join(lines) + "\n"


def outlier_map(records: list[DiagnosticRecord]) -> PlotData:
    """Plot data for the residual-versus-distance display."""
    if not records:
        raise ValueError("outlier_map needs at least one record")
    plot = PlotData.__new__(PlotData)  # points come from the records when first read
    plot._records = tuple(records)
    plot.rd_cutoff = records[0].distance_cutoff
    plot.sr_cutoff = records[0].residual_cutoff
    return plot

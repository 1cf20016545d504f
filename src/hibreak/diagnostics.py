"""Observation taxonomy from standardized residuals and robust distances.

Each observation lands in exactly one of four regions of the
(robust distance, |standardized residual|) quadrant: regular, vertical
outlier (big residual only), good leverage (big distance only), or bad
leverage (both). Bad leverage points are always recommended for removal;
vertical outliers only when the residual is severe.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections import UserList
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


class DiagnosticList(UserList):
    """classify_all's value: a list of DiagnosticRecord, built when first read as one.

    Until then its rows are its columns (record_columns); len and truth
    read them. Not a list subclass, whose storage C code would read empty.
    """

    @functools.cached_property
    def data(self):  # UserList.__init__ assigns data, so only classify_all's value builds it
        c = self.columns
        return [
            DiagnosticRecord(label, sr, rd, c["sr_cutoff"], c["rd_cutoff"], _CLASS_OF_VALUE[cls], drop)
            for label, sr, rd, cls, drop in zip(c["label"], c["sr"], c["rd"], c["class"], c["drop"])
        ]

    def __len__(self):
        return len(self.data if "data" in vars(self) else self.columns["label"])

    def __iter__(self):
        return iter(self.data)

    __copy__ = UserList.copy  # UserList.__copy__ reads the records out of __dict__


def distance_cutoff(thresholds: DiagnosticThresholds, p: int) -> float:
    """Leverage cutoff sqrt(chi2_quantile(distance_quantile, p)); DomainError if p < 1."""
    return math.sqrt(chi2_quantile(thresholds.distance_quantile, p))


# Each class by its value; in definition order, the values are indexed by
# 2 * (distance >= cutoff) + (|residual| >= cutoff).
_CLASS_OF_VALUE = {member.value: member for member in Classification}
_CLASS_VALUES = tuple(_CLASS_OF_VALUE)


def _records(residuals, distances, labels, thresholds, d_cut) -> DiagnosticList:
    """The four-way rule and the drop rule for whole arrays, as the columns of one row per label.

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
    rows = DiagnosticList.__new__(DiagnosticList)  # no UserList.__init__: data stays unset
    rows.columns = {
        "label": list(labels), "rd": _Column(distances.tolist()), "sr": _Column(residuals.tolist()),
        "class": list(map(_CLASS_VALUES.__getitem__, codes.tolist())),
        "rd_cutoff": d_cut, "sr_cutoff": thresholds.residual_cutoff, "drop": drop.tolist(),
    }
    return rows


class _Column(list):
    """A float column of a DiagnosticList: json_column encodes it once and keeps the texts on it."""

    texts = None


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


def classify_all(lts_fit, mcd_estimate, data: Dataset, thresholds=None) -> DiagnosticList:
    """One DiagnosticRecord per dataset row, in row order; the cutoff is computed once.

    A DiagnosticList: its records are made when first read, the writers read its columns.
    """
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
_MAP_KEYS = tuple(RECORD_FIELDS)[:4]


def record_columns(records) -> dict:
    """{key: column} of records for each RECORD_FIELDS key, a class as its value: one list per key.

    A DiagnosticList whose records are unbuilt gives its own columns, in
    which each cutoff is one value that every row shares.
    """
    if isinstance(records, DiagnosticList) and "data" not in vars(records):
        return records.columns
    columns = {key: list(map(operator.attrgetter(attribute), records))
               for key, attribute in RECORD_FIELDS.items()}
    columns["class"] = [member.value for member in columns["class"]]
    return columns


def json_column(values, dumps=json.dumps) -> list[str]:
    """json.dumps(v) of each v, from one C-encoder pass split at its item separator.

    A column that holds a container, whose own separators would split it,
    is written item by item with dumps instead.
    """
    if isinstance(values, _Column):
        values.texts = values.texts or json_column(list(values))  # a plain list: encoded below
        return values.texts
    if any(issubclass(t, (list, tuple, dict)) for t in set(map(type, values))):
        return list(map(dumps, values))
    # ensure_ascii escapes a newline inside an item, so only the separators split
    return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n") if values else []


def json_rows(columns: dict, indent: str | None = None, dumps=json.dumps) -> list[str]:
    """Rows as JSON objects: row i holds item i of each {key: column} of columns, in key order.

    A column is a list with an item per row, or one value (not a list)
    that every row shares, written once. Without indent in json.dumps's
    default one-line form; with it in the indent=2 form of an object nested
    at that indent, where dumps writes a container value. The text of one
    key is one column (json_column), so no dict is made per row.
    """
    if indent is None:
        opening, separator, closing = "{", ", ", "}"
    else:
        opening, separator = "{\n" + indent + "  ", ",\n" + indent + "  "
        closing = "\n" + indent + "}"
    n = min(len(values) for values in columns.values() if isinstance(values, list))
    pieces = []
    for i, (key, values) in enumerate(columns.items()):
        texts = (json_column(values, dumps) if isinstance(values, list)
                 else itertools.repeat(dumps(values)))
        pieces += [itertools.repeat((separator if i else opening) + json.dumps(key) + ": "), texts]
    return list(map("".join, zip(*pieces, [closing] * n)))


@dataclass(eq=False)
class PlotData:
    """Outlier-map points plus the two cutoff lines, JSON/TSV serializable.

    outlier_map's PlotData keeps the label, rd, sr and class columns and
    makes the point dicts when points is first read; until then to_json
    writes from the columns.
    """

    points: list[dict]
    rd_cutoff: float
    sr_cutoff: float
    _columns = None  # not a field

    def __getattr__(self, name):  # reached only while an attribute is unset
        if name != "points" or self._columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.points = [dict(zip(_MAP_KEYS, row)) for row in zip(*self._columns.values())]
        return self.points

    def to_json(self) -> str:
        points = json_column(self.points) if "points" in vars(self) else json_rows(self._columns)
        return (f'{{"points": [{", ".join(points)}], "rd_cutoff": {json.dumps(self.rd_cutoff)}, '
                f'"sr_cutoff": {json.dumps(self.sr_cutoff)}}}')

    def to_tsv(self) -> str:
        cutoffs = f"\t{self.rd_cutoff!r}\t{self.sr_cutoff!r}\n"  # the same on every line
        lines = [f"{pt['label']}\t{pt['rd']!r}\t{pt['sr']!r}\t{pt['class']}{cutoffs}"
                 for pt in self.points]
        return "label\trd\tsr\tclass\trd_cutoff\tsr_cutoff\n" + "".join(lines)


def outlier_map(records: list[DiagnosticRecord]) -> PlotData:
    """Plot data for the residual-versus-distance display; the cutoffs are the first row's."""
    if not records:
        raise ValueError("outlier_map needs at least one record")
    columns = record_columns(records)
    plot = PlotData.__new__(PlotData)  # points come from the columns when first read
    plot._columns = {key: columns[key] for key in _MAP_KEYS}
    plot.rd_cutoff, plot.sr_cutoff = (cut[0] if isinstance(cut, list) else cut
                                      for cut in (columns["rd_cutoff"], columns["sr_cutoff"]))
    return plot

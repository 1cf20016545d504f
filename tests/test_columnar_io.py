"""The two CSV readers agree, and the column writers match json.dumps byte for byte."""

import json
import math
import re
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hibreak import Classification, DiagnosticRecord, PlotData, outlier_map
from hibreak import pipeline
from hibreak.errors import DuplicateLabel, ParseError
from hibreak.pipeline import (
    AnalysisConfig,
    DroppedRow,
    ModelSpec,
    load_csv,
    render_report,
    report_to_dict,
    run_analysis,
)

from conftest import make_dataset

MODEL_XY = ModelSpec(response="y", predictors=("x1",))
EXAMPLES = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def same_result(fast, slow):
    header, labels, values = fast
    assert (header, labels) == (slow[0], slow[1])
    assert values.dtype == slow[2].dtype == np.float64
    assert values.shape == slow[2].shape
    assert values.tobytes() == slow[2].tobytes()
    assert values.flags.c_contiguous


@st.composite
def spellings(draw):
    """A finite number as a file might spell it: repr, %.17g, exponents, signs, padding."""
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    style = draw(st.sampled_from(["repr", ".17g", "e", "int", "long"]))
    if style == "repr":
        text = repr(value)
    elif style == ".17g":
        text = f"{value:.17g}"
    elif style == "e":
        text = f"{value:.{draw(st.integers(0, 20))}e}"
    elif style == "int":
        text = str(draw(st.integers(-10**20, 10**20)))
    else:  # more digits than a double holds
        text = draw(st.from_regex(r"-?[0-9]{1,25}\.[0-9]{1,25}(e[+-]?[0-2]?[0-9]{1,2})?",
                                  fullmatch=True))
    if not math.isfinite(float(text)):  # rounded or spelled past the float range
        text = repr(value)
    if draw(st.booleans()) and not text.startswith("-"):
        text = "+" + text
    shorten = draw(st.sampled_from(["", ".5", "5."]))
    if shorten == ".5":
        text = re.sub(r"^([+-]?)0\.(?=[0-9])", r"\1.", text)
    elif shorten == "5.":
        text = re.sub(r"(?<=[0-9])\.0(?=$|e)", ".", text)
    pad = st.sampled_from(["", " ", "  ", "\t", "\xa0", " "])
    return draw(pad) + text + draw(pad)


label_text = st.text(
    st.characters(blacklist_characters=',"\r\n\x00\x1c\x1d\x1e\x1f', blacklist_categories=("Cs",)),
    max_size=5,
)


@st.composite
def plain_files(draw):
    """A valid file in the fast reader's lane: unique labels, finite cells, \\n line ends."""
    width = draw(st.integers(1, 4))
    header = ["label"] + [draw(label_text) for _ in range(width)]
    labels = draw(st.lists(label_text, max_size=12, unique_by=str.strip))
    lines = [",".join(header)]
    for label in labels:
        lines += [""] * draw(st.integers(0, 1))  # blank lines are skipped
        lines.append(",".join([label] + [draw(spellings()) for _ in range(width)]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@EXAMPLES
@given(plain_files())
def test_fast_reader_matches_the_row_parser(text):
    fast = pipeline._read_plain(text)
    assert fast is not None
    same_result(fast, pipeline._parse_rows(text))


@EXAMPLES
@given(st.lists(st.one_of(spellings(), st.sampled_from(
    ["", " ", "1_0", "١", "\x1c1", "1\x1f", "nan", "-inf", "1e400", "1e-400", "0x10", "1,2",
     '"1"', "1\r", "\x00"])), min_size=2, max_size=8))
def test_fast_reader_declines_or_agrees(cells):
    rows = "".join(f"r{i},{a},{b}\n" for i, (a, b) in enumerate(zip(cells[::2], cells[1::2])))
    text = "c,y,x1\n" + rows
    fast = pipeline._read_plain(text)
    try:
        slow = pipeline._parse_rows(text)
    except ParseError:
        assert fast is None
        return
    if fast is not None:
        same_result(fast, slow)


def test_header_only_file_agrees():
    text = "c,y,x1\n"
    same_result(pipeline._read_plain(text), pipeline._parse_rows(text))


def outcome(tmp_path, raw):
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    try:  # without an intercept two rows are enough
        data = load_csv(str(path), ModelSpec(response="y", predictors=("x1",), has_intercept=False))
    except (ParseError, DuplicateLabel) as err:
        return type(err).__name__, getattr(err, "row", None), getattr(err, "column", None), str(err)
    return data.row_labels, data.values.tolist()


# One file per case the fast reader hands to the row parser, with that parser's outcome;
# a file that is not UTF-8 reaches neither reader.
FALLBACKS = {
    "not_utf8": (b"c,y,x1\na,1,2\ncaf\xe9,2,3\n",
                 ("ParseError", 2, "", "line 3 is not UTF-8: 'utf-8' codec can't decode byte 0xe9 "
                  "in position 3: invalid continuation byte")),
    "quote": (b'c,y,x1\n"a,b",1,2\nc,2,3\n', (("a,b", "c"), [[1.0, 2.0], [2.0, 3.0]])),
    "crlf": (b"c,y,x1\r\na,1,2\r\nb,2,3\r\n", (("a", "b"), [[1.0, 2.0], [2.0, 3.0]])),
    "empty_first_line": (b"\nc,y,x1\na,1,2\n", ("ParseError", 0, "", "file has no header row")),
    "finite_oversized_cell": (
        b"c,y,x1\na,1,2\nb,1,0." + b"0" * 200_000 + b"1\n",
        ("ParseError", 3, "", "cannot read the CSV after 3 lines: field larger than field limit "
         "(131072)")),
    "comma_count": (b"c,y,x1\na,1,2\nb,2\n", ("ParseError", 2, "", "row 2 has 2 cells, expected 3")),
    "no_comma": (b"c,y,x1\na,1,2\nb\n", ("ParseError", 2, "", "row 2 has 1 cells, expected 3")),
    "empty_cell": (b"c,y,x1\na,1,\n",
                   ("ParseError", 1, "x1", "cannot parse cell at row 1, column 'x1'")),
    "underscore": (b"c,y,x1\na,1_0,2\nb,2,3\n", (("a", "b"), [[10.0, 2.0], [2.0, 3.0]])),
    "unicode_digit": ("c,y,x1\na,١,2\nb,2,3\n".encode(), (("a", "b"), [[1.0, 2.0], [2.0, 3.0]])),
    "separator_char": (b"c,y,x1\na,\x1c1,2\n",
                       ("ParseError", 1, "y", "cannot parse cell at row 1, column 'y'")),
    "non_finite": (b"c,y,x1\na,1,2\nb,1e400,3\n",
                   ("ParseError", 2, "y", "non-finite value at row 2, column 'y'")),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_each_fallback_gives_the_row_parsers_outcome(tmp_path, monkeypatch, case):
    raw, expected = FALLBACKS[case]
    if case == "not_utf8":  # load_csv rejects it while decoding
        for reader in ("_read_plain", "_parse_rows"):
            monkeypatch.setattr(pipeline, reader, lambda text: pytest.fail("a reader ran"))
    else:
        assert pipeline._read_plain(raw.decode("utf-8")) is None
    assert outcome(tmp_path, raw) == expected


def test_fast_lane_reads_a_repeated_label(tmp_path):
    raw = b"c,y,x1\na,1,2\n a ,2,3\n"
    header, labels, values = pipeline._read_plain(raw.decode("utf-8"))
    assert (header, labels, values.tolist()) == (["c", "y", "x1"], ["a", "a"], [[1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(DuplicateLabel) as slow:
        pipeline._parse_rows(raw.decode("utf-8"))
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    with pytest.raises(DuplicateLabel) as fast:  # from Dataset
        load_csv(str(path), ModelSpec(response="y", predictors=("x1",), has_intercept=False))
    assert (fast.value.label, str(fast.value)) == (slow.value.label, str(slow.value))
    assert str(fast.value) == "duplicate row label 'a'"


# Files with a repeated label and, in some, another fault: the first in file order wins.
REPEATS = {
    "repeat_only": b"c,y,x1\nb,0,1\na,1,2\nb,2,3\na,3,4\n",
    "repeat_then_bad_cell": b"c,y,x1\na,1,2\na,2,3\nb,x,4\n",
    "bad_cell_then_repeat": b"c,y,x1\na,1,2\nb,x,3\na,2,3\n",
    "non_finite_then_repeat": b"c,y,x1\na,1e400,2\na,2,3\n",
    "repeat_and_repeated_column": b"c,y,x1,x1\na,1,2,3\na,2,3,4\n",
}


@pytest.mark.parametrize("case", sorted(REPEATS))
def test_repeated_label_gives_the_row_parsers_outcome(tmp_path, monkeypatch, case):
    fast = outcome(tmp_path, REPEATS[case])
    monkeypatch.setattr(pipeline, "_read_plain", lambda text: None)
    slow = outcome(tmp_path, REPEATS[case])
    assert fast == slow
    assert fast[0] in ("DuplicateLabel", "ParseError")


def test_nul_goes_to_the_row_parser(tmp_path):
    # csv rejects NUL before Python 3.11 and keeps it from then on
    raw = b"c,y,x1\na\x00,1,2\nb,2,3\n"
    assert pipeline._read_plain(raw.decode("utf-8")) is None
    if sys.version_info < (3, 11):
        kind, _, _, message = outcome(tmp_path, raw)
        assert kind == "ParseError" and "NUL" in message
    else:
        assert outcome(tmp_path, raw) == (("a\x00", "b"), [[1.0, 2.0], [2.0, 3.0]])


def test_a_plain_file_never_reaches_csv_reader(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(pipeline.csv, "reader", refuse)
    path = tmp_path / "plain.csv"
    path.write_text("c,y,x1\na, 1.5,2\nb,+.5e3,3.\n\nc,-1e-3 ,4\n", encoding="utf-8")
    data = load_csv(str(path), MODEL_XY)
    assert data.values.tolist() == [[1.5, 2.0], [500.0, 3.0], [-0.001, 4.0]]
    path.write_text('c,y,x1\n"a",1.5,2\n', encoding="utf-8")
    with pytest.raises(AssertionError, match="csv.reader called"):
        load_csv(str(path), MODEL_XY)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

ODD_LABELS = ['say "hi"', "back\\slash", "100%", "café 中", "bell\x07", "%s", ""]


def odd_records():
    """Records as classify_all makes them (shared cutoffs), with odd labels and values."""
    values = [(math.inf, 0.5), (-math.inf, 3.0), (-0.0, 0.0), (2.5, 2.7), (1e-300, 1e300),
              (-4.0, 0.1), (0.1, 12.0)]
    classes = list(Classification) * 2
    sr_cut, rd_cut = 2.5, math.sqrt(7.0)
    return [
        DiagnosticRecord(label, sr, rd, sr_cut, rd_cut, cls, i % 2 == 0)
        for i, (label, (sr, rd), cls) in enumerate(zip(ODD_LABELS, values, classes))
    ]


def map_reference(records):
    points = [{"label": rec.row_label, "rd": rec.robust_distance, "sr": rec.standardized_residual,
               "class": rec.classification.value} for rec in records]
    return points, json.dumps({"points": points, "rd_cutoff": records[0].distance_cutoff,
                               "sr_cutoff": records[0].residual_cutoff})


def report_with(records):
    rng = np.random.default_rng(3)
    x = rng.normal(size=12)
    report = run_analysis(make_dataset(x, 1.0 + x + rng.normal(size=12)),
                          AnalysisConfig(model=MODEL_XY))
    report.diagnostics = records
    return report


RECORD_SETS = {
    "odd": odd_records(),
    "single": odd_records()[:1],
    "own_cutoffs": [DiagnosticRecord(f"r{i}", -0.0, 0.0, 2.5 + i, 1.0 / (i + 1),
                                     Classification.REGULAR, False) for i in range(4)],
    # a container cell cannot be split out of one encoder pass: its column goes item by item
    "tuple_label": [DiagnosticRecord(("a", 1), 0.5, 1.0, 2.5, 2.7, Classification.REGULAR, False)],
}


@pytest.mark.parametrize("name", sorted(RECORD_SETS))
def test_report_json_matches_json_dumps(name):
    report = report_with(RECORD_SETS[name])
    expected = json.dumps(report_to_dict(report), sort_keys=True, indent=2)
    assert render_report(report, "json") == expected
    oracle = {"lts": {"exact_objective": 1.0, "heuristic_objective": 1.0, "match": True}}
    with_oracle = {**report_to_dict(report), "oracle": oracle}
    assert render_report(report, "json", oracle) == json.dumps(with_oracle, sort_keys=True, indent=2)


def test_report_json_with_no_rows():
    # no map: outlier_map rejects an empty record list
    report = report_with([])
    report.dropped = []
    assert render_report(report, "json") == json.dumps(report_to_dict(report), sort_keys=True,
                                                       indent=2)


@pytest.mark.parametrize("label", [*ODD_LABELS, ("a", 1)])
def test_dropped_ledger_json_matches_json_dumps(label):
    report = report_with(odd_records())
    report.dropped = [DroppedRow(label, 'reason "%s"\n'), DroppedRow("plain", "")]
    expected = json.dumps(report_to_dict(report), sort_keys=True, indent=2)
    assert render_report(report, "json") == expected


@pytest.mark.parametrize("name", sorted(RECORD_SETS))
def test_map_json_matches_json_dumps(name):
    records = RECORD_SETS[name]
    points, expected = map_reference(records)
    plot = outlier_map(records)
    assert plot.to_json() == expected
    assert plot.points == points  # made on first read
    assert plot.to_json() == expected
    plot.points.append({"label": "extra", "rd": 1.0, "sr": 2.0, "class": "Regular"})
    assert json.loads(plot.to_json())["points"][-1]["label"] == "extra"


def test_map_of_a_records_list_changed_later():
    records = list(odd_records())
    plot = outlier_map(records)
    _, expected = map_reference(records)
    records.pop()
    assert plot.to_json() == expected


@pytest.mark.parametrize(
    "points",
    [
        [],
        [{"label": "a", "rd": 1.0}, {"rd": 2.0, "label": "b", "sr": -0.0}],
        [{"label": ["nested"], "rd": {"x": 1}, "sr": (1, 2), "class": None}],
        [{"label": 'q"%s', "rd": math.inf, "sr": -math.inf, "class": "Regular", "extra": 5}],
    ],
)
def test_hand_built_plot_data(points):
    plot = PlotData(points=points, rd_cutoff=2.5, sr_cutoff=-0.0)
    expected = json.dumps({"points": points, "rd_cutoff": 2.5, "sr_cutoff": -0.0})
    assert plot.to_json() == expected
    assert plot.points is points

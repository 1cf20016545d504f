"""Property test: no CSV makes `hibreak analyze` end in a traceback.

Drawn files mix valid and broken headers, labels, cells, line endings and
encodings; whatever the bytes, the CLI must exit 0, 2 or 3.
"""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hibreak.cli import main

# Fixed and derandomized, so that the suite stays fast and repeatable.
EXAMPLES = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

numbers = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-3, 3).map(str))
odd_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", " ", "nan", "NaN", "inf", "-Infinity", "1e400", "-1e400", "1e-400",
                     '"', '"1.5"', '"1,5"', "\x00", "1" * 200_000, "x", "0x10", "1_000", "é"]),
    st.text(max_size=4),
)
labels = st.one_of(st.sampled_from(["r0", "", " r1", "\x00"]), st.text(max_size=3))
column_names = st.sampled_from(["row", "y", "x", "z", "", " x", "X"])


@st.composite
def csv_files(draw):
    """(file bytes, extra flags): a numeric table, then a few defects."""
    header = list(draw(st.sampled_from([["row", "y", "x"], ["row", "y", "x", "z"], []])))
    if not header:  # empty, repeated or missing names
        header = draw(st.lists(column_names, max_size=5))
    width = max(len(header) - 1, 0)
    lines = [header] + [[f"r{i}"] + [draw(numbers) for _ in range(width)]
                        for i in range(draw(st.integers(0, 14)))]
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.sampled_from(lines))
        defect = draw(st.sampled_from(["ragged", "label", "cell"]))
        if defect == "ragged":
            del line[draw(st.integers(0, len(line))):]
            line += draw(st.lists(numbers, max_size=2))
        elif defect == "label" or len(line) < 2:
            line[:1] = [draw(labels)]
        else:
            line[draw(st.integers(1, len(line) - 1))] = draw(odd_cells)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(line) for line in lines) + draw(st.sampled_from([newline, ""]))
    encoding = draw(st.sampled_from(["utf-8", "utf-8", "utf-8", "latin-1", "utf-16"]))
    data = text.encode(encoding, "replace")
    if draw(st.integers(0, 5)) == 0:  # splice in raw bytes
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=6)) + data[at:]
    flags = ["--predictors", draw(st.sampled_from(["x", "x,z"])),
             "--format", draw(st.sampled_from(["json", "markdown", "tsv"]))]
    return data, flags + (["--oracle"] if draw(st.booleans()) else [])


@EXAMPLES
@given(csv_files())
def test_no_csv_causes_a_traceback(drawn):
    data, flags = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["analyze", path, "--response", "y", *flags])
    assert code in (0, 2, 3)

"""Exception types raised across the package.

The CLI exits 2 for an InputError and 3 for a NumericalError (README has
the table); DomainError and LengthMismatch are ValueErrors of API misuse.
"""


class HibreakError(Exception):
    """Base class for InputError and NumericalError."""


class InputError(HibreakError):
    """The input cannot be analysed as given; the CLI exits 2."""


class NumericalError(HibreakError):
    """A computation on valid input failed; the CLI exits 3."""


class NotPositiveDefinite(NumericalError):
    """A Cholesky pivot fell below the collinearity threshold: collinear rows or columns."""


class DomainError(ValueError):
    """A probability or parameter lies outside its valid domain."""


class TooFewRows(InputError, ValueError):
    """Not enough rows to fit the requested number of coefficients."""


class AllStartsDegenerate(NumericalError):
    """Every randomized (or exhaustive) trial or enumerated subset was degenerate."""


class ConstantColumn(NumericalError):
    """A predictor column is constant; its scatter is degenerate."""


class LengthMismatch(ValueError):
    """Per-row inputs do not cover the same rows."""


class TooLarge(InputError):
    """Exhaustive enumeration would exceed the subset budget."""


class ParseError(InputError):
    """A CSV cell failed to parse as a finite number, or the file could not be read.

    Carries the 1-based data row index (lines read if csv rejects the file,
    the first non-UTF-8 line, header 0) and the column name ("" if none).
    """

    def __init__(self, row: int, column: str, message: str = ""):
        self.row = row
        self.column = column
        super().__init__(message or f"cannot parse cell at row {row}, column {column!r}")


class MissingColumn(InputError):
    """A model references a column the data does not provide."""


class DuplicateLabel(InputError):
    """Two rows share the same label."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"duplicate row label {label!r}")


class PipelineStageError(NumericalError):
    """An analysis stage failed; wraps the stage name and original error.

    run_analysis raises it for every HibreakError of a stage, so those exit 3.
    """

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r}: {cause}")

"""Exception types raised across the package."""


class HibreakError(Exception):
    """Base class for all errors raised by hibreak."""


class NotPositiveDefinite(HibreakError):
    """A Cholesky pivot fell below the collinearity threshold."""


class DomainError(HibreakError, ValueError):
    """A probability or parameter lies outside its valid domain."""


class RankDeficient(HibreakError):
    """The design matrix has collinear columns."""


class TooFewRows(HibreakError, ValueError):
    """Not enough rows to fit the requested number of coefficients."""


class ColumnMismatch(HibreakError):
    """A dataset is missing columns the fit was built on."""


class RankDeficientSubset(HibreakError):
    """The rows selected by a concentration step are collinear."""


class SingularSubset(HibreakError):
    """The rows selected by an MCD step lie in a lower-dimensional subspace."""


class AllStartsDegenerate(HibreakError):
    """Every randomized (or exhaustive) trial hit a degenerate subset."""


class ConstantColumn(HibreakError):
    """A predictor column is constant; its scatter is degenerate."""


class LengthMismatch(HibreakError):
    """Per-row inputs do not cover the same rows."""


class TooLarge(HibreakError):
    """Exhaustive enumeration would exceed the subset budget."""


class AllSubsetsDegenerate(HibreakError):
    """Every enumerated subset was rank deficient."""


class ParseError(HibreakError):
    """A CSV cell failed to parse as a finite number.

    Carries the 1-based data row index and the column name.
    """

    def __init__(self, row: int, column: str, message: str = ""):
        self.row = row
        self.column = column
        super().__init__(message or f"cannot parse cell at row {row}, column {column!r}")


class MissingColumn(HibreakError):
    """A model references a column the file does not provide."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} not found in input")


class DuplicateLabel(HibreakError):
    """Two rows share the same label."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"duplicate row label {label!r}")


class PipelineStageError(HibreakError):
    """An analysis stage failed; wraps the stage name and original error."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r}: {cause}")

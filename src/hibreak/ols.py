"""Ordinary least squares with the full inference panel (SE, t, p, R^2, F)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core_stats import cho_apply, cholesky_spd, spd_inverse_diag, student_t_cdf
from .errors import DuplicateLabel, InputError, MissingColumn, NotPositiveDefinite
from .errors import NumericalError, TooFewRows


@dataclass(eq=False)
class Dataset:
    """Observation matrix with named columns plus a model designation.

    values holds every column from the source, one row per observation;
    response/predictors pick the modelled columns out of column_names.
    Repeated column names or row labels raise an InputError.
    """

    row_labels: tuple[str, ...]
    column_names: tuple[str, ...]
    response: str
    predictors: tuple[str, ...]
    values: np.ndarray
    has_intercept: bool = True

    def __post_init__(self):
        self.row_labels = tuple(self.row_labels)
        self.column_names = tuple(self.column_names)
        self.predictors = tuple(self.predictors)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.column_names):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.column_names)} named columns"
            )
        if len(self.row_labels) != self.values.shape[0]:
            raise ValueError("row_labels and values disagree on row count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("dataset entries must all be finite")
        seen = set()
        for label in self.row_labels:
            if label in seen:
                raise DuplicateLabel(label)
            seen.add(label)
        repeated = sorted({c for c in self.column_names if self.column_names.count(c) > 1})
        if repeated:
            raise InputError(f"repeated column names {repeated}")
        for name in (self.response, *self.predictors):
            if name not in self.column_names:
                raise MissingColumn(f"column {name!r} not in dataset")
        if self.response in self.predictors:
            raise ValueError(f"response {self.response!r} is also a predictor")
        if self.n < self.k + 1:
            raise TooFewRows(f"{self.n} rows cannot support {self.k} coefficients")

    @classmethod
    def from_xy(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        has_intercept: bool = True,
        row_labels: tuple[str, ...] | None = None,
    ) -> "Dataset":
        """Build a dataset from a predictor matrix and a response vector."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 1 and np.asarray(y).size != 1:
            x = x.T
        y = np.asarray(y, dtype=float).reshape(-1)
        names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
        labels = row_labels or tuple(str(i) for i in range(len(y)))
        return cls(
            row_labels=labels,
            column_names=("y", *names),
            response="y",
            predictors=names,
            values=np.column_stack([y, x]),
            has_intercept=has_intercept,
        )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        """Coefficient count: predictors plus the intercept flag."""
        return len(self.predictors) + int(self.has_intercept)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]

    def response_vector(self) -> np.ndarray:
        return self.column(self.response)

    def predictor_matrix(self) -> np.ndarray:
        """Predictor columns only, no intercept column (leverage space)."""
        idx = [self.column_names.index(name) for name in self.predictors]
        return self.values[:, idx]

    def design_matrix(self) -> np.ndarray:
        """Regression design matrix, intercept column first when present."""
        x = self.predictor_matrix()
        if self.has_intercept:
            return np.column_stack([np.ones(self.n), x])
        return x

    def coefficient_names(self) -> tuple[str, ...]:
        if self.has_intercept:
            return ("const", *self.predictors)
        return self.predictors

    def subset(self, rows: np.ndarray) -> "Dataset":
        """Dataset restricted to the given row indices (order preserved)."""
        rows = np.asarray(rows, dtype=int)
        return replace(self, row_labels=tuple(self.row_labels[i] for i in rows),
                       values=self.values[rows])


@dataclass(eq=False)
class RegressionFit:
    """Coefficients plus the inference columns reported by the comparison tables.

    residuals covers the n_used rows actually fitted, in dataset order.
    """

    coefficient_names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    sigma: float
    r_squared: float
    f_value: float
    n_used: int
    dropped_labels: tuple[str, ...] = ()
    predictors: tuple[str, ...] = ()
    has_intercept: bool = True
    df_resid: int = 0


def t_and_p(
    coefficients: np.ndarray, standard_errors: np.ndarray, df_resid: int
) -> tuple[np.ndarray, np.ndarray]:
    """t statistics and two-sided Student-t p-values for a coefficient panel.

    Zero standard errors (exact fits) map to +/-inf t and p = 0.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    standard_errors = np.asarray(standard_errors, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(
            standard_errors > 0.0,
            coefficients / np.where(standard_errors > 0.0, standard_errors, 1.0),
            np.where(coefficients >= 0.0, np.inf, -np.inf),
        )
    p = np.array([2.0 * student_t_cdf(-abs(tj), df_resid) for tj in t])
    return t, np.clip(p, 0.0, 1.0)


def _finite(*sums):
    """sums as given; NumericalError if one holds a value past the float range."""
    if not all(np.isfinite(total).all() for total in sums):
        raise NumericalError("sum of squares overflows: the data are too large in magnitude")
    return sums


def fit_ols(data: Dataset, exclude: set[str] | frozenset[str] = frozenset()) -> RegressionFit:
    """OLS fit of the dataset's model, optionally excluding labelled rows.

    Standard errors come from sigma^2 * diag((X'X)^-1) with sigma^2 = RSS / (n_used - K);
    R^2 uses centered TSS when an intercept is present and uncentered TSS otherwise; with
    TSS = 0 it is 1 for an exact fit (RSS = 0) and 0 otherwise. The overall F excludes the
    intercept from the numerator (K-1 numerator df) and is reported as 0 for intercept-only
    fits. RSS and TSS are np.sum reductions, not BLAS dot products, so that no bit of them
    depends on the BLAS thread count.
    """
    exclude = frozenset(exclude)
    unknown = exclude - set(data.row_labels)
    if unknown:
        raise KeyError(f"exclude labels not in dataset: {sorted(unknown)}")
    keep = np.array([label not in exclude for label in data.row_labels])
    x = data.design_matrix()[keep]
    y = data.response_vector()[keep]
    n_used, k = x.shape
    if n_used < k + 1:
        raise TooFewRows(f"{n_used} rows after exclusion cannot support {k} coefficients")

    with np.errstate(over="ignore", invalid="ignore"):
        xtx, xty = _finite(x.T @ x, x.T @ y)
    try:
        low = cholesky_spd(xtx)
    except NotPositiveDefinite as err:
        raise NotPositiveDefinite(f"collinear design matrix: {err}") from err
    beta = cho_apply(low, xty)

    residuals = y - x @ beta
    with np.errstate(over="ignore", invalid="ignore"):
        tss = np.sum((y - y.mean()) ** 2 if data.has_intercept else y**2)
        rss, tss = _finite(float(np.sum(residuals**2)), float(tss))
    df_resid = n_used - k
    sigma2 = rss / df_resid
    se = np.sqrt(sigma2 * spd_inverse_diag(low))
    t, p = t_and_p(beta, se, df_resid)

    if tss > 0.0:
        r_squared = 1.0 - rss / tss
    else:
        r_squared = 1.0 if rss == 0.0 else 0.0
    r_squared = min(max(r_squared, 0.0), 1.0)

    num_df = k - 1 if data.has_intercept else k
    if num_df < 1:
        f_value = 0.0
    elif rss == 0.0:
        f_value = np.inf
    else:
        f_value = ((tss - rss) / num_df) / (rss / df_resid)

    return RegressionFit(
        coefficient_names=data.coefficient_names(),
        coefficients=beta,
        standard_errors=se,
        t_values=t,
        p_values=p,
        residuals=residuals,
        sigma=float(np.sqrt(sigma2)),
        r_squared=r_squared,
        f_value=float(max(f_value, 0.0)),
        n_used=n_used,
        dropped_labels=tuple(label for label in data.row_labels if label in exclude),
        predictors=data.predictors,
        has_intercept=data.has_intercept,
        df_resid=df_resid,
    )


def predict(fit: RegressionFit, data: Dataset) -> np.ndarray:
    """Fitted values X @ beta for each row of data, using the fit's columns."""
    missing = [name for name in fit.predictors if name not in data.column_names]
    if missing:
        raise MissingColumn(f"data lacks predictor columns {missing}")
    idx = [data.column_names.index(name) for name in fit.predictors]
    x = data.values[:, idx]
    if fit.has_intercept:
        x = np.column_stack([np.ones(x.shape[0]), x])
    if x.shape[1] != len(fit.coefficients):
        raise MissingColumn(
            f"design width {x.shape[1]} does not match {len(fit.coefficients)} coefficients"
        )
    return x @ fit.coefficients

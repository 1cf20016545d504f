"""Seeded inputs for the hibreak benchmark.

Every input is a Gaussian design with 20% planted contamination: half of
the planted rows are bad leverage points (x shifted, y pushed off the
regression plane) and half are vertical outliers (y shifted only). The
true model is y = 1 + x1 + ... + xp + N(0, 1). hibreak only ever sees the
CSV files written here; the benchmark keeps the truth to score the fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONTAMINATION = 0.2
X_SHIFT = 6.0  # per predictor, in standard deviations of the clean design
Y_SHIFT = 12.0  # in standard deviations of the error

# Why each workload exists, and the layers it loads. The same text is
# recorded in BENCHMARK.json.
#
# small_mixed: n in {50, 200, 500} x p in {2, 4, 10}, markdown output. The
#   per-C-step fixed cost of the LTS and MCD searches (Python loops, tiny
#   K x K solves) dominates; load_csv and rendering are negligible. n stays
#   below 600, so a nested-subsample search would be bypassed here.
# large_n: n in {1000, 2000, 5000}, p = 4, JSON output plus --plot-data.
#   Per-step O(n log n) ranking, the CSV loader (its duplicate-label scan is
#   O(n^2)) and the size of the written report and outlier map show;
#   reading and writing share one workload so that a gain on one side that
#   costs the other shows. n = 20000 is left out: one such analysis takes
#   about 15 s, which leaves a single timing sample per run.
# oracle_small: --oracle on n in {12, 14, 16} with p <= 2 (exhaustive
#   starts, and cli reruns both searches) plus n = 20 with p in {2, 3}
#   (random starts; the naive exact enumeration dominates).
SHAPES = {
    "small_mixed": [(n, p) for n in (50, 200, 500) for p in (2, 4, 10)],
    "large_n": [(1000, 4), (2000, 4), (5000, 4)],
    "oracle_small": [(n, p) for n in (12, 14, 16) for p in (1, 2)] + [(20, 2), (20, 3)],
}
# --smoke: tiny sizes so that a broken harness shows in seconds.
SMOKE_SHAPES = {
    "small_mixed": [(30, 2)],
    "large_n": [(300, 2)],
    "oracle_small": [(12, 1)],
}
FLAGS = {
    "small_mixed": ("--format", "markdown"),
    "large_n": ("--format", "json"),
    "oracle_small": ("--oracle", "--format", "json"),
}
PLOT_DATA = {"large_n"}


# C-steps from the truth stop when the selected rows repeat, or after this many.
REFERENCE_MAX_CSTEPS = 100


@dataclass(eq=False)
class Analysis:
    """One `hibreak analyze` invocation plus the truth it is scored against."""

    name: str
    argv: list[str]
    plot_path: Path | None
    bad_leverage: frozenset[str]
    x: np.ndarray | None  # the predictors as written
    y: np.ndarray | None  # the response as written

    def lts_reference(self, h: int) -> float:
        """LTS objective after concentration steps from the true coefficients.

        A local optimum near the truth; a search that finds the global
        optimum reads at or below it.
        """
        design = np.column_stack([np.ones(len(self.y)), self.x])
        beta = np.ones(design.shape[1])
        subset = None
        for _ in range(REFERENCE_MAX_CSTEPS):
            r2 = (self.y - design @ beta) ** 2
            rows = np.sort(np.argsort(r2, kind="stable")[:h])
            if subset is not None and np.array_equal(rows, subset):
                break
            subset = rows
            beta = np.linalg.lstsq(design[rows], self.y[rows], rcond=None)[0]
        r2 = (self.y - design @ beta) ** 2
        return float(np.sort(r2)[:h].sum())

    def mcd_reference(self, h: int) -> float:
        """Raw covariance determinant after concentration steps from the true center and scatter.

        Same normalization (denominator h - 1) as hibreak's raw determinant.
        """
        p = self.x.shape[1]
        center, cov = np.zeros(p), np.eye(p)
        subset = None
        for _ in range(REFERENCE_MAX_CSTEPS):
            d = self.x - center
            d2 = np.einsum("ij,ij->i", d @ np.linalg.inv(cov), d)
            rows = np.sort(np.argsort(d2, kind="stable")[:h])
            if subset is not None and np.array_equal(rows, subset):
                break
            subset = rows
            center = self.x[rows].mean(axis=0)
            cov = np.atleast_2d(np.cov(self.x[rows], rowvar=False, ddof=1))
        return float(np.linalg.det(cov))

    def with_format(self, fmt: str) -> list[str]:
        """argv with the output format replaced, for the JSON repeat check."""
        argv = list(self.argv)
        argv[argv.index("--format") + 1] = fmt
        return argv


def write_csv(path: Path, header: list[str], labels: list[str], columns: np.ndarray) -> None:
    lines = [",".join(header)]
    lines.extend(
        label + "," + ",".join(f"{v:.17g}" for v in row) for label, row in zip(labels, columns)
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def contaminated(rng: np.random.Generator, n: int, p: int):
    """(x, y, bad-leverage row indices) for one planted-contamination design."""
    x = rng.standard_normal((n, p))
    y = 1.0 + x.sum(axis=1) + rng.standard_normal(n)
    planted = rng.permutation(n)[: round(CONTAMINATION * n)]
    bad, vertical = planted[: len(planted) // 2], planted[len(planted) // 2 :]
    x[bad] += X_SHIFT
    y[bad] -= Y_SHIFT  # below the plane at the clean x, so far below it at the shifted x
    y[vertical] += Y_SHIFT
    return x, y, bad


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Analysis]:
    """Write the workload's CSVs under workdir and return its analyses in run order."""
    shapes = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    analyses = []
    for index, (n, p) in enumerate(shapes):
        rng = np.random.default_rng([seed, index])
        x, y, bad = contaminated(rng, n, p)
        names = [f"x{j + 1}" for j in range(p)]
        labels = [f"r{i}" for i in range(n)]
        name = f"n{n}_p{p}"
        csv_path = workdir / f"{name}.csv"
        write_csv(csv_path, ["label", "y", *names], labels, np.column_stack([y, x]))
        argv = ["analyze", str(csv_path), "--response", "y", "--predictors", ",".join(names)]
        argv.extend(FLAGS[workload])
        plot_path = None
        if workload in PLOT_DATA:
            plot_path = workdir / f"{name}.map.json"
            argv.extend(["--plot-data", str(plot_path)])
        analyses.append(
            Analysis(
                name=name,
                argv=argv,
                plot_path=plot_path,
                bad_leverage=frozenset(labels[i] for i in bad),
                x=x,
                y=y,
            )
        )
    return analyses


def probes(workdir: Path) -> dict[str, list[str]]:
    """argv of each known-defect reproducer, with its CSV written under workdir.

    Fixed inputs, independent of the workload seed, so that a changed
    outcome means the program changed.
    """
    rng = np.random.default_rng(0)
    out = {}

    # x measured in the millions: fit_ols declares a well-posed y ~ x rank deficient.
    years = np.arange(1960, 2020, dtype=float)
    y = 0.5 * (years - 1990) + rng.standard_normal(years.size)
    path = workdir / "probe_magnitude.csv"
    write_csv(path, ["label", "y", "x"], [f"r{i}" for i in range(60)], np.column_stack([y, years * 1000]))
    out["magnitude_x_year_times_1000_n60"] = [
        "analyze", str(path), "--response", "y", "--predictors", "x", "--format", "json",
    ]

    # n < 2(p+1): fit_mcd raises a ValueError that escapes the exit-code mapping.
    x = rng.standard_normal((5, 2))
    y = 1.0 + x.sum(axis=1) + rng.standard_normal(5)
    path = workdir / "probe_too_few_rows.csv"
    write_csv(path, ["label", "y", "x1", "x2"], [f"r{i}" for i in range(5)], np.column_stack([y, x]))
    out["too_few_rows_n5_p2"] = [
        "analyze", str(path), "--response", "y", "--predictors", "x1,x2", "--format", "json",
    ]

    # A 0/1 dummy with 6 ones in 100 rows: every MCD start lands on "dummy = 0".
    x1 = rng.standard_normal(100)
    dummy = np.zeros(100)
    dummy[rng.choice(100, size=6, replace=False)] = 1.0
    y = 1.0 + x1 + 2.0 * dummy + rng.standard_normal(100)
    path = workdir / "probe_dummy.csv"
    write_csv(path, ["label", "y", "x1", "d"], [f"r{i}" for i in range(100)], np.column_stack([y, x1, dummy]))
    out["dummy_6_ones_in_n100"] = [
        "analyze", str(path), "--response", "y", "--predictors", "x1,d", "--format", "json",
    ]
    return out

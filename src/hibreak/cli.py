"""Command line entry point: hibreak analyze <csv> --response ... --predictors ...

Exit codes: 0 success, 2 input or parse problem, 3 numerical failure
(collinearity, degenerate starts), 4 bad flags.
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import DiagnosticThresholds, outlier_map
from .errors import (
    DuplicateLabel,
    HibreakError,
    MissingColumn,
    ParseError,
    TooFewRows,
    TooLarge,
)
# The CLI no longer calls fit_lts or fit_mcd itself; both names stay in this
# module's namespace because perfbench/tracing.py wraps them here.
from .lts import LtsConfig, fit_lts, trimmed_size  # noqa: F401
from .mcd import McdConfig, fit_mcd, subset_size  # noqa: F401
from .oracle import exact_lts, exact_mcd
from .pipeline import AnalysisConfig, ModelSpec, load_csv, render_report, run_analysis

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hibreak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="run the OLS/robust comparison pipeline")
    analyze.add_argument("csv", help="input CSV: header row, label column first")
    analyze.add_argument("--response", required=True, help="response column name")
    analyze.add_argument(
        "--predictors", required=True, help="comma-separated predictor column names"
    )
    analyze.add_argument("--no-intercept", action="store_true", help="fit without a constant")
    analyze.add_argument("--alpha", type=float, default=0.25, help="LTS trimming fraction")
    analyze.add_argument("--mcd-h", type=float, default=0.75, help="MCD subset fraction")
    analyze.add_argument("--resid-cutoff", type=float, default=2.5)
    analyze.add_argument("--severe-cutoff", type=float, default=4.0)
    analyze.add_argument("--distance-quantile", type=float, default=0.975)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--starts", type=int, default=500)
    analyze.add_argument("--format", choices=("json", "markdown", "tsv"), default="markdown")
    analyze.add_argument("--plot-data", metavar="PATH", help="write outlier-map JSON here")
    analyze.add_argument(
        "--oracle",
        action="store_true",
        help="verify both searches against exhaustive enumeration (small inputs only)",
    )
    return parser


def _oracle_section(data, config, report) -> dict:
    """The report's own LTS and MCD objectives against exhaustive enumeration."""
    h_lts = trimmed_size(data.n, data.k, config.lts.alpha)
    h_mcd = subset_size(data.n, config.mcd.h_fraction)
    lts_exact = exact_lts(data, h_lts)
    mcd_exact = exact_mcd(data.predictor_matrix(), h_mcd)

    def block(heuristic, exact):
        gap = abs(heuristic - exact) / max(abs(exact), 1e-300)
        return {
            "heuristic_objective": heuristic,
            "exact_objective": exact,
            "match": bool(gap <= 1e-6),
        }

    return {
        "lts": block(report.lts_fit.objective, lts_exact.best_objective),
        "mcd": block(report.mcd_estimate.raw_determinant, mcd_exact.best_objective),
    }


def _run_analyze(args) -> int:
    try:
        model = ModelSpec(
            response=args.response,
            predictors=tuple(name.strip() for name in args.predictors.split(",") if name.strip()),
            has_intercept=not args.no_intercept,
        )
        config = AnalysisConfig(
            model=model,
            lts=LtsConfig(alpha=args.alpha, n_starts=args.starts, seed=args.seed),
            mcd=McdConfig(h_fraction=args.mcd_h, n_starts=args.starts, seed=args.seed),
            thresholds=DiagnosticThresholds(
                residual_cutoff=args.resid_cutoff,
                distance_quantile=args.distance_quantile,
                severe_residual_cutoff=args.severe_cutoff,
            ),
            output_format=args.format,
        )
    except ValueError as err:
        print(f"hibreak: bad flag value: {err}", file=sys.stderr)
        return EXIT_USAGE

    try:
        data = load_csv(args.csv, model)
    except (FileNotFoundError, ParseError, MissingColumn, DuplicateLabel, TooFewRows) as err:
        print(f"hibreak: input error: {err}", file=sys.stderr)
        return EXIT_INPUT

    try:
        report = run_analysis(data, config)
        oracle = _oracle_section(data, config, report) if args.oracle else None
    except TooLarge as err:
        print(f"hibreak: input too large for --oracle: {err}", file=sys.stderr)
        return EXIT_INPUT
    except HibreakError as err:  # includes the PipelineStageError of each stage
        print(f"hibreak: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(render_report(report, args.format, oracle=oracle))
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            fh.write(outlier_map(report.diagnostics).to_json())
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return _run_analyze(args)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point: hibreak analyze <csv> --response ... --predictors ...

Exit codes: 0 success, 2 unreadable or unusable input (InputError, OSError),
3 numerical failure (NumericalError, MemoryError), 4 bad flags; README has the full table.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .diagnostics import DiagnosticThresholds, outlier_map
from .errors import InputError, NumericalError
# The CLI no longer calls fit_lts or fit_mcd itself; both names stay in this
# module's namespace because perfbench/tracing.py wraps them here.
from .lts import LtsConfig, fit_lts  # noqa: F401
from .mcd import McdConfig, fit_mcd  # noqa: F401
from .oracle import exact_lts, exact_mcd
from .pipeline import REPORT_FORMATS, AnalysisConfig, ModelSpec, load_csv, render_report
from .pipeline import run_analysis

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process, built on the first call
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
    # Defaults come from the config fields the flags set; --seed and --starts feed both searches.
    thresholds = DiagnosticThresholds
    analyze.add_argument("--alpha", type=float, default=LtsConfig.alpha, help="LTS trimming fraction")
    analyze.add_argument("--mcd-h", type=float, default=McdConfig.h_fraction, help="MCD subset fraction")
    analyze.add_argument("--resid-cutoff", type=float, default=thresholds.residual_cutoff)
    analyze.add_argument("--severe-cutoff", type=float, default=thresholds.severe_residual_cutoff)
    analyze.add_argument("--distance-quantile", type=float, default=thresholds.distance_quantile)
    analyze.add_argument("--seed", type=int, default=LtsConfig.seed)
    analyze.add_argument("--starts", type=int, default=LtsConfig.n_starts)
    analyze.add_argument("--format", choices=REPORT_FORMATS, default=AnalysisConfig.output_format)
    analyze.add_argument("--plot-data", metavar="PATH", help="write outlier-map JSON here")
    analyze.add_argument(
        "--oracle",
        action="store_true",
        help="verify both searches against exhaustive enumeration (small inputs only)",
    )
    return parser


def _oracle_section(data, report) -> dict:
    """The report's own LTS and MCD objectives against exhaustive enumeration."""
    lts_exact = exact_lts(data, report.lts_fit.h)
    mcd_exact = exact_mcd(data.predictor_matrix(), report.mcd_estimate.h)

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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # analyze is the one command
    try:
        model = ModelSpec(
            response=args.response,
            predictors=args.predictors.split(","),
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
        report = run_analysis(data, config)
        oracle = _oracle_section(data, report) if args.oracle else None
        if args.plot_data:  # before the report, so that a bad path prints nothing
            with open(args.plot_data, "w", encoding="utf-8") as fh:
                fh.write(outlier_map(report.diagnostics).to_json())
    except (InputError, OSError) as err:
        print(f"hibreak: input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, MemoryError) as err:  # a stage's PipelineStageError, or arrays too big
        print(f"hibreak: numerical failure: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(render_report(report, args.format, oracle=oracle))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

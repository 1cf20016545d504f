"""High-breakdown robust regression: LTS, MCD distances, and leverage diagnostics."""

from .core_stats import chi2_cdf, chi2_quantile, determinant, gaussian_quantile, mean_and_cov
from .core_stats import solve_spd, student_t_cdf
from .diagnostics import Classification, DiagnosticRecord, DiagnosticThresholds, PlotData
from .diagnostics import classify, classify_all, outlier_map
from .lts import LtsConfig, LtsFit, c_step, fit_lts, lts_objective, standardize_residuals
from .mcd import McdConfig, McdEstimate, fit_mcd, mcd_c_step, robust_distances
from .ols import Dataset, RegressionFit, fit_ols, predict
from .oracle import OracleResult, exact_lts, exact_mcd
from .pipeline import AnalysisConfig, AnalysisReport, ModelSpec, load_csv, render_report
from .pipeline import report_from_json, run_analysis

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "Classification",
    "Dataset",
    "DiagnosticRecord",
    "DiagnosticThresholds",
    "LtsConfig",
    "LtsFit",
    "McdConfig",
    "McdEstimate",
    "ModelSpec",
    "OracleResult",
    "PlotData",
    "RegressionFit",
    "c_step",
    "chi2_cdf",
    "chi2_quantile",
    "classify",
    "classify_all",
    "determinant",
    "exact_lts",
    "exact_mcd",
    "fit_lts",
    "fit_mcd",
    "fit_ols",
    "gaussian_quantile",
    "load_csv",
    "lts_objective",
    "mcd_c_step",
    "mean_and_cov",
    "outlier_map",
    "predict",
    "render_report",
    "report_from_json",
    "robust_distances",
    "run_analysis",
    "solve_spd",
    "standardize_residuals",
    "student_t_cdf",
]

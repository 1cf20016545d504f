"""A published regression re-analysed, exactly as the CLI drives it.

Brownlee's (1965) stackloss data: 21 days of a plant oxidising ammonia,
stack loss regressed on air flow, cooling-water temperature and acid
concentration. Loads tests/data/stackloss.csv with a model spec, runs
OLS -> LTS -> MCD -> classify -> drop -> refit, prints the two-panel
markdown report, and checks both searches against exhaustive
enumeration. The same analysis from a shell:

    hibreak analyze tests/data/stackloss.csv --response stack_loss \
        --predictors air_flow,water_temp,acid_conc --oracle
"""

from pathlib import Path

from hibreak import exact_lts, exact_mcd, load_csv, render_report, run_analysis
from hibreak.pipeline import AnalysisConfig, ModelSpec

path = Path(__file__).resolve().parent.parent / "tests" / "data" / "stackloss.csv"
model = ModelSpec(response="stack_loss", predictors=("air_flow", "water_temp", "acid_conc"))
data = load_csv(str(path), model)
report = run_analysis(data, AnalysisConfig(model=model))

print(render_report(report, "markdown"))

# The rows the literature flags (Daniel & Wood 1971; Rousseeuw & Leroy 1987)
dropped = [row.label for row in report.dropped]
assert dropped == ["1", "3", "4", "21"], dropped
print(f"dropped rows {', '.join(dropped)}; air_flow {report.ols_fit.coefficients[1]:.4f} -> "
      f"{report.robust_fit.coefficients[1]:.4f}, water_temp "
      f"{report.ols_fit.coefficients[2]:.4f} -> {report.robust_fit.coefficients[2]:.4f}")

# At n = 21 every subset can be enumerated: the searches reached the global optima
lts_exact = exact_lts(data, report.lts_fit.h)
mcd_exact = exact_mcd(data.predictor_matrix(), report.mcd_estimate.h)
assert report.lts_fit.objective == lts_exact.best_objective
assert report.mcd_estimate.raw_determinant == mcd_exact.best_objective
print(f"oracle: LTS {lts_exact.n_subsets_evaluated} subsets, "
      f"MCD {mcd_exact.n_subsets_evaluated} subsets, both optima reached")

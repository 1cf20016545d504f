import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hibreak import (
    Classification,
    DiagnosticThresholds,
    LtsConfig,
    McdConfig,
    classify,
    classify_all,
    fit_lts,
    fit_mcd,
    outlier_map,
)
from hibreak.core_stats import chi2_quantile
from hibreak.diagnostics import DiagnosticRecord, distance_cutoff
from hibreak.errors import LengthMismatch

from conftest import make_dataset

THRESHOLDS = DiagnosticThresholds()


def reference_record(standardized_residual, robust_distance, thresholds, p, row_label=""):
    """The four-way and drop rules one row at a time, as the reference for the array rule."""
    d_cut = distance_cutoff(thresholds, p)
    big_residual = abs(standardized_residual) >= thresholds.residual_cutoff
    big_distance = robust_distance >= d_cut
    if big_residual and big_distance:
        label = Classification.BAD_LEVERAGE
    elif big_residual:
        label = Classification.VERTICAL_OUTLIER
    elif big_distance:
        label = Classification.GOOD_LEVERAGE
    else:
        label = Classification.REGULAR
    drop = bool(
        label is Classification.BAD_LEVERAGE
        or (
            label is Classification.VERTICAL_OUTLIER
            and abs(standardized_residual) >= thresholds.severe_residual_cutoff
        )
    )
    return DiagnosticRecord(
        row_label=row_label,
        standardized_residual=float(standardized_residual),
        robust_distance=float(robust_distance),
        residual_cutoff=thresholds.residual_cutoff,
        distance_cutoff=d_cut,
        classification=label,
        drop_recommended=drop,
    )


class TestClassify:
    def test_severe_vertical_outlier_dropped(self):
        # the Zambia-style call: residual -5.41 with unremarkable leverage
        rec = classify(-5.41, 0.0, THRESHOLDS, p=4, row_label="Zambia")
        assert rec.classification is Classification.VERTICAL_OUTLIER
        assert rec.drop_recommended

    def test_three_bad_leverage_points(self):
        # OECD growth-model calls: cutoff sqrt(chi2_quantile(.975, 3)) ~ 3.06
        for sr, rd in [(4.21, 7.25), (-6.14, 9.36), (-3.16, 5.98)]:
            rec = classify(sr, rd, THRESHOLDS, p=3)
            assert rec.classification is Classification.BAD_LEVERAGE
            assert rec.drop_recommended

    def test_mild_leverage_years_flagged_and_dropped(self):
        # stock-returns calls: cutoff sqrt(chi2_quantile(.975, 2)) ~ 2.72
        for sr, rd in [(2.60, 3.65), (2.82, 3.55)]:
            rec = classify(sr, rd, THRESHOLDS, p=2)
            assert rec.classification is Classification.BAD_LEVERAGE
            assert rec.drop_recommended

    def test_mild_vertical_outliers_retained(self):
        # Japan/Norway-style: beyond the band but no leverage, not severe
        for sr in (2.5, 2.8, 3.2):
            rec = classify(sr, 1.0, THRESHOLDS, p=3)
            assert rec.classification is Classification.VERTICAL_OUTLIER
            assert not rec.drop_recommended

    def test_regular(self):
        rec = classify(0.0, 0.0, THRESHOLDS, p=2)
        assert rec.classification is Classification.REGULAR
        assert not rec.drop_recommended

    def test_good_leverage_never_dropped(self):
        rec = classify(0.1, 100.0, THRESHOLDS, p=2)
        assert rec.classification is Classification.GOOD_LEVERAGE
        assert not rec.drop_recommended

    def test_cutoff_values_from_chi2(self):
        # frozen from the bisection-on-quadrature chi-square oracle
        assert math.isclose(distance_cutoff(THRESHOLDS, 3), math.sqrt(9.34840360449611),
                            rel_tol=1e-6)
        assert math.isclose(distance_cutoff(THRESHOLDS, 2), math.sqrt(7.377758908227873),
                            rel_tol=1e-6)

    def test_boundary_counts_as_exceeding(self):
        cut = distance_cutoff(THRESHOLDS, 2)
        assert classify(2.5, 0.0, THRESHOLDS, 2).classification is Classification.VERTICAL_OUTLIER
        assert classify(0.0, cut, THRESHOLDS, 2).classification is Classification.GOOD_LEVERAGE
        assert classify(4.0, 1.0, THRESHOLDS, 2).drop_recommended

    def test_sign_invariance(self):
        for sr in (0.7, 2.9, 5.0):
            for rd in (0.5, 4.0):
                a = classify(sr, rd, THRESHOLDS, 2)
                b = classify(-sr, rd, THRESHOLDS, 2)
                assert a.classification is b.classification
                assert a.drop_recommended == b.drop_recommended

    def test_partition_and_monotonicity(self):
        cut = distance_cutoff(THRESHOLDS, 2)
        sr_grid = np.linspace(0.0, 6.0, 25)
        rd_grid = np.linspace(0.0, 2.0 * cut, 25)
        outlierish = {Classification.VERTICAL_OUTLIER, Classification.BAD_LEVERAGE}
        leveraged = {Classification.GOOD_LEVERAGE, Classification.BAD_LEVERAGE}
        for rd in rd_grid:
            classes = [classify(sr, rd, THRESHOLDS, 2).classification for sr in sr_grid]
            # growing |residual| never leaves the outlier half
            seen = False
            for c in classes:
                seen = seen or c in outlierish
                assert (c in outlierish) == seen or not seen
        for sr in sr_grid:
            seen = False
            for rd in rd_grid:
                c = classify(sr, rd, THRESHOLDS, 2).classification
                seen = seen or c in leveraged
                assert (c in leveraged) == seen or not seen

    def test_infinite_sentinel_residual(self):
        rec = classify(float("inf"), 0.0, THRESHOLDS, 2)
        assert rec.classification is Classification.VERTICAL_OUTLIER
        assert rec.drop_recommended

    def test_bad_p(self):
        with pytest.raises(ValueError):
            classify(0.0, 0.0, THRESHOLDS, 0)


class TestClassifyAll:
    def planted_instance(self):
        # one observation per category, planted around a known line
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=40)
        y = 1.0 + 2.0 * x + rng.normal(scale=0.1, size=40)
        x[0], y[0] = 9.0, -30.0        # bad leverage
        x[1], y[1] = 9.5, 1.0 + 2.0 * 9.5  # good leverage, on the line
        y[2] = 1.0 + 2.0 * x[2] + 3.0  # vertical outlier, not severe
        return make_dataset(x, y)

    def test_one_record_per_row_in_order(self):
        data = self.planted_instance()
        lts = fit_lts(data, LtsConfig(alpha=0.25, seed=0))
        mcd = fit_mcd(data.predictor_matrix(), McdConfig(seed=0))
        records = classify_all(lts, mcd, data, THRESHOLDS)
        assert [r.row_label for r in records] == list(data.row_labels)

    def test_each_planted_category_found(self):
        data = self.planted_instance()
        lts = fit_lts(data, LtsConfig(alpha=0.25, seed=0))
        mcd = fit_mcd(data.predictor_matrix(), McdConfig(seed=0))
        records = classify_all(lts, mcd, data, THRESHOLDS)
        assert records[0].classification is Classification.BAD_LEVERAGE
        assert records[1].classification is Classification.GOOD_LEVERAGE
        assert records[2].classification is Classification.VERTICAL_OUTLIER
        assert sum(r.classification is Classification.REGULAR for r in records) == 37

    def test_matches_pointwise_classify(self):
        data = self.planted_instance()
        lts = fit_lts(data, LtsConfig(alpha=0.25, seed=0))
        mcd = fit_mcd(data.predictor_matrix(), McdConfig(seed=0))
        records = classify_all(lts, mcd, data, THRESHOLDS)
        for i, rec in enumerate(records):
            solo = classify(
                lts.standardized_residuals[i],
                mcd.robust_distances[i],
                THRESHOLDS,
                p=1,
                row_label=data.row_labels[i],
            )
            assert solo == rec
            assert solo == reference_record(solo.standardized_residual, solo.robust_distance,
                                            THRESHOLDS, p=1, row_label=solo.row_label)

        # Boundary and non-finite values, through stand-ins for the two fits.
        cut = distance_cutoff(THRESHOLDS, 1)
        residuals = [0.0, 2.5, -2.5, np.nextafter(2.5, 0.0), 4.0, -4.0, np.nextafter(4.0, 0.0),
                     math.inf, -math.inf, math.nan]
        distances = [0.0, cut, np.nextafter(cut, 0.0), math.inf, math.nan]
        pairs = list(itertools.product(residuals, distances))
        stand_in = make_dataset(np.arange(len(pairs)), np.zeros(len(pairs)))
        records = classify_all(
            SimpleNamespace(standardized_residuals=np.array([sr for sr, _ in pairs])),
            SimpleNamespace(robust_distances=np.array([rd for _, rd in pairs])),
            stand_in,
            THRESHOLDS,
        )
        for (sr, rd), label, rec in zip(pairs, stand_in.row_labels, records):
            # repr, so that NaN fields compare equal
            assert repr(rec) == repr(classify(sr, rd, THRESHOLDS, p=1, row_label=label))
            assert repr(rec) == repr(reference_record(sr, rd, THRESHOLDS, p=1, row_label=label))
        assert {rec.classification for rec in records} == set(Classification)

    def test_cutoff_quantile_computed_once(self, monkeypatch):
        import hibreak.diagnostics as diagnostics

        data = self.planted_instance()
        lts = fit_lts(data, LtsConfig(alpha=0.25, seed=0))
        mcd = fit_mcd(data.predictor_matrix(), McdConfig(seed=0))
        calls = []

        def counting_quantile(p, df):
            calls.append((p, df))
            return chi2_quantile(p, df)

        monkeypatch.setattr(diagnostics, "chi2_quantile", counting_quantile)
        records = classify_all(lts, mcd, data, THRESHOLDS)
        assert len(records) == data.n
        assert calls == [(THRESHOLDS.distance_quantile, 1)]

    def test_length_mismatch(self):
        data = self.planted_instance()
        lts = fit_lts(data, LtsConfig(alpha=0.25, seed=0))
        mcd = fit_mcd(data.predictor_matrix()[:30], McdConfig(seed=0))
        with pytest.raises(LengthMismatch):
            classify_all(lts, mcd, data, THRESHOLDS)


class TestOutlierMap:
    def test_single_regular_point(self):
        plot = outlier_map([classify(0.1, 0.2, THRESHOLDS, 2, row_label="a")])
        assert len(plot.points) == 1
        assert plot.sr_cutoff == 2.5
        assert math.isclose(plot.rd_cutoff, distance_cutoff(THRESHOLDS, 2), rel_tol=1e-12)

    def test_json_schema(self):
        records = [
            classify(sr, rd, THRESHOLDS, 3, row_label=lab)
            for lab, sr, rd in [("Canada", 4.21, 7.25), ("Turkey", -6.14, 9.36),
                                ("NZ", -3.16, 5.98)]
        ]
        parsed = json.loads(outlier_map(records).to_json())
        assert set(parsed) == {"points", "rd_cutoff", "sr_cutoff"}
        assert [p["class"] for p in parsed["points"]] == ["BadLeverage"] * 3
        assert set(parsed["points"][0]) == {"label", "rd", "sr", "class"}
        assert parsed["points"][0] == {
            "label": "Canada", "rd": 7.25, "sr": 4.21, "class": "BadLeverage",
        }

    def test_tsv_mirror(self):
        records = [classify(0.1, 0.2, THRESHOLDS, 2, row_label="a")]
        tsv = outlier_map(records).to_tsv()
        lines = tsv.strip().split("\n")
        assert lines[0] == "label\trd\tsr\tclass\trd_cutoff\tsr_cutoff"
        assert lines[1].split("\t")[0] == "a"
        assert len(lines) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outlier_map([])

"""Spans around hibreak's public functions, recorded from outside the program.

Each wrapper replaces a function in the module that calls it (cli looks up
load_csv, run_analysis, render_report, outlier_map, fit_lts, fit_mcd,
exact_lts and exact_mcd in its own namespace; pipeline does the same for
fit_ols, fit_lts, fit_mcd and classify_all), so the program's code is not
touched. Spans stay in memory; layer metrics are computed when a run ends.
Span times are raw seconds, not rescaled to the reference host speed.

Which end-to-end metric and workload each per-layer metric should move:

- lts.fit_lts.s, lts.csteps, lts.us_per_cstep, lts.converged_frac,
  mcd.fit_mcd.s, mcd.us_per_start, mcd.csteps -> wall_s on small_mixed
  (most of the run) and large_n, less on oracle_small.
- lts.fit_lts.calls, mcd.fit_mcd.calls -> wall_s on oracle_small only,
  where cli's oracle section reruns both searches (2 calls per analysis).
- pipeline.load_csv.s, pipeline.render_report.s,
  pipeline.render_report.bytes, diagnostics.classify_all.s,
  diagnostics.outlier_map.s -> wall_s and peak_rss_mb on large_n; no
  change predicted on small_mixed.
- oracle.exact_lts.s, oracle.exact_lts.subsets, oracle.exact_mcd.s,
  oracle.exact_mcd.subsets -> wall_s on oracle_small only.
- ols.fit_ols.s, ols.fit_ols.calls, pipeline.run_analysis.self_s,
  cli.self_s -> small everywhere; they show whether a saving went where
  it was claimed.
- process.cpu_s, trace.overhead_frac -> CPU seconds per round of the traced
  run, and traced wall time over untraced wall time minus 1.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module attribute, span name) for every wrapped call site.
CLI_SITES = [
    ("load_csv", "pipeline.load_csv"),
    ("run_analysis", "pipeline.run_analysis"),
    ("render_report", "pipeline.render_report"),
    ("outlier_map", "diagnostics.outlier_map"),
    ("fit_lts", "lts.fit_lts"),
    ("fit_mcd", "mcd.fit_mcd"),
    ("exact_lts", "oracle.exact_lts"),
    ("exact_mcd", "oracle.exact_mcd"),
]
PIPELINE_SITES = [
    ("fit_ols", "ols.fit_ols"),
    ("fit_lts", "lts.fit_lts"),
    ("fit_mcd", "mcd.fit_mcd"),
    ("classify_all", "diagnostics.classify_all"),
]
ROOT = "cli.main"
# Pipeline results the quality metrics are read from, by the name they are kept under.
KEEP = {"fit_lts": "lts", "fit_mcd": "mcd", "classify_all": "diagnostics"}

# The documented MCD start rule: every (p+1)-row subset when n <= 16 and
# p <= 3, otherwise n_starts seeded draws.
MCD_EXHAUSTIVE_MAX_N = 16
MCD_EXHAUSTIVE_MAX_P = 3

PER_LAYER_UNITS = {
    "lts.fit_lts.s": "s",
    "lts.fit_lts.calls": "count",
    "lts.csteps": "count",
    "lts.us_per_cstep": "us",
    "lts.converged_frac": "ratio",
    "mcd.fit_mcd.s": "s",
    "mcd.fit_mcd.calls": "count",
    "mcd.csteps": "count",
    "mcd.us_per_start": "us",
    "pipeline.load_csv.s": "s",
    "pipeline.render_report.s": "s",
    "pipeline.render_report.bytes": "bytes",
    "diagnostics.classify_all.s": "s",
    "diagnostics.outlier_map.s": "s",
    "oracle.exact_lts.s": "s",
    "oracle.exact_lts.subsets": "count",
    "oracle.exact_mcd.s": "s",
    "oracle.exact_mcd.subsets": "count",
    "ols.fit_ols.s": "s",
    "ols.fit_ols.calls": "count",
    "pipeline.run_analysis.self_s": "s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str
    request: int  # one id per cli.main call
    parent: int | None  # index of the enclosing span
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)


class Recorder:
    """Keeps the pipeline's LTS, MCD and diagnostic results; with timing on, also spans.

    Untimed, it reads no clock and only keeps references to three return
    values per analysis, which the quality metrics are computed from.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.results: dict = {}

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.request, parent, time.perf_counter()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def take_results(self) -> dict:
        """The results kept during the last request; the recorder drops its references."""
        results, self.results = self.results, {}
        return results

    @contextmanager
    def request_span(self):
        """Root span around one cli.main call; a no-op when untimed."""
        self.request += 1
        self.results = {}
        if not self.timed:
            yield
            return
        index = self.open(ROOT)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ------------------------------------------------------------
    def wrap(self, fn, name: str, keep: str | None):
        if not self.timed:
            @functools.wraps(fn)
            def keeping(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.results.setdefault(keep, result)
                return result

            return keeping

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.spans[index].counts.update(_counts(name, args, kwargs, result))
            if keep:
                self.results.setdefault(keep, result)
            return result

        return spanned

    def count_steps(self, fn):
        """Count calls of fn in the enclosing span, without reading a clock."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                counts = self.spans[self.stack[-1]].counts
                counts["csteps"] = counts.get("csteps", 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, cli_module, pipeline_module, mcd_module):
        """Patch the call sites for the duration of the block, then restore them."""
        if self.timed:
            sites = [(cli_module, attr, name) for attr, name in CLI_SITES]
            sites += [(pipeline_module, attr, name) for attr, name in PIPELINE_SITES]
        else:
            sites = [(pipeline_module, attr, name) for attr, name in PIPELINE_SITES if attr in KEEP]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in sites]
        if self.timed:
            saved.append((mcd_module, "mcd_c_step", mcd_module.mcd_c_step))
        try:
            for module, attr, name in sites:
                keep = KEEP.get(attr) if module is pipeline_module else None
                setattr(module, attr, self.wrap(getattr(module, attr), name, keep))
            if self.timed:
                mcd_module.mcd_c_step = self.count_steps(mcd_module.mcd_c_step)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts read at a span's boundary from its arguments and result."""
    if name == "lts.fit_lts":
        return {"csteps": result.n_csteps_total, "converged": int(bool(result.converged))}
    if name == "mcd.fit_mcd":
        n, p = args[0].shape
        config = args[1] if len(args) > 1 else kwargs.get("config")
        exhaustive = n <= MCD_EXHAUSTIVE_MAX_N and p <= MCD_EXHAUSTIVE_MAX_P
        return {"starts": math.comb(n, p + 1) if exhaustive else config.n_starts}
    if name == "pipeline.render_report":
        return {"bytes": len(result.encode("utf-8"))}
    if name.startswith("oracle."):
        return {"subsets": result.n_subsets_evaluated}
    return {}


def layer_metrics(spans: list[Span], rounds: int, cpu_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics per round of the workload's analysis list.

    A span's self time is its duration minus the durations of its direct children.
    """
    total, self_time, calls, counts = (defaultdict(float) for _ in range(4))
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    for span, children in zip(spans, child_time):
        total[span.name] += span.end - span.start
        self_time[span.name] += span.end - span.start - children
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value

    lts_s, lts_calls, lts_csteps = total["lts.fit_lts"], calls["lts.fit_lts"], counts["lts.fit_lts.csteps"]
    mcd_s, mcd_starts = total["mcd.fit_mcd"], counts["mcd.fit_mcd.starts"]
    per_round = {
        "lts.fit_lts.s": lts_s,
        "lts.fit_lts.calls": lts_calls,
        "lts.csteps": lts_csteps,
        "mcd.fit_mcd.s": mcd_s,
        "mcd.fit_mcd.calls": calls["mcd.fit_mcd"],
        "mcd.csteps": counts["mcd.fit_mcd.csteps"],
        "pipeline.load_csv.s": total["pipeline.load_csv"],
        "pipeline.render_report.s": total["pipeline.render_report"],
        "pipeline.render_report.bytes": counts["pipeline.render_report.bytes"],
        "diagnostics.classify_all.s": total["diagnostics.classify_all"],
        "diagnostics.outlier_map.s": total["diagnostics.outlier_map"],
        "oracle.exact_lts.s": total["oracle.exact_lts"],
        "oracle.exact_lts.subsets": counts["oracle.exact_lts.subsets"],
        "oracle.exact_mcd.s": total["oracle.exact_mcd"],
        "oracle.exact_mcd.subsets": counts["oracle.exact_mcd.subsets"],
        "ols.fit_ols.s": total["ols.fit_ols"],
        "ols.fit_ols.calls": calls["ols.fit_ols"],
        "pipeline.run_analysis.self_s": self_time["pipeline.run_analysis"],
        "cli.self_s": self_time[ROOT],
        "process.cpu_s": cpu_s,
    }
    values = {name: value / rounds for name, value in per_round.items()}
    values["lts.us_per_cstep"] = 1e6 * lts_s / lts_csteps if lts_csteps else 0.0
    values["lts.converged_frac"] = counts["lts.fit_lts.converged"] / lts_calls if lts_calls else 0.0
    values["mcd.us_per_start"] = 1e6 * mcd_s / mcd_starts if mcd_starts else 0.0
    values["trace.overhead_frac"] = overhead_frac
    return {name: values[name] for name in PER_LAYER_UNITS}

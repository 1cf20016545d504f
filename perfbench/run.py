"""hibreak benchmark: `hibreak analyze` wall time and solution quality.

Run from the repository root:

    python3 perfbench/run.py --workload small_mixed --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke    # tiny sizes, one round each

The load is a closed loop: one client in this process calls the public CLI
entry point `hibreak.cli.main(argv)` on seeded CSVs, one analysis after
the other, with BLAS pinned to one thread. A run repeats its workload's
fixed list of analyses in rounds until --seconds is spent (at least once).
Times are rescaled to a reference host speed (hostclock.py), because the
speed of a shared host drifts by a quarter over minutes; the raw times are
printed as info lines.

With --trace 0 it prints the end-to-end metrics (END_TO_END below). With
--trace 1 untraced and traced rounds alternate, and it prints the
per-layer metrics of tracing.py. Either way it checks that:

- every analysis exits 0 and no exception escapes cli.main;
- every round renders byte-identical output to the first;
- one analysis per workload, repeated with --format json, renders
  byte-identical JSON, also when traced;
- every --oracle block has match: true.

Each violation is printed by name and counts as a failed analysis. The
known-defect probes (workloads.probes) run once, untimed, in every run;
their outcome and an environment record are printed beside the metrics
and count in no metric. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or its children.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib.metadata import version  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402

WORKLOADS = list(workloads.SHAPES)
END_TO_END = {
    "wall_s": "s",  # sum over analyses of the median time of each, over rounds
    "setup_s": "s",  # median time for a fresh interpreter to import hibreak.cli
    "peak_rss_mb": "MB",  # peak resident memory of this process after one round
    "ok_frac": "ratio",  # 1 - failed analyses / attempted analyses
    "lts_objective_ratio": "ratio",  # geometric mean of LTS objective / reference (see quality)
    "mcd_det_ratio": "ratio",  # geometric mean of raw MCD determinant / reference (see quality)
    "planted_recall": "ratio",  # planted bad-leverage rows classified BadLeverage
    "oracle_ratio": "ratio",  # 1 + largest relative gap to the exact optimum (1 without --oracle)
}
SETUP_IMPORTS = 5


@dataclass(eq=False)
class Outcome:
    analysis: str
    code: int | None
    error: str | None  # an exception that escaped cli.main
    seconds: float
    rescaled: float  # seconds at the reference host speed (hostclock)
    digest: str  # of stdout, then of the --plot-data file
    oracle: dict  # the report's --oracle blocks by search ("lts", "mcd"), if asked for
    fits: dict  # fit_summary of the fits the recorder kept


class Tally:
    """Attempted analyses, and every failed check by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def record(self, outcome: Outcome, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.violations.extend(f"{name} ({outcome.analysis})" for name in problems)


class HashingWriter:
    """Stands in for stdout: hashes what is written, and keeps the text only if asked.

    Keeping no copy of a large report keeps the harness out of peak_rss_mb.
    """

    def __init__(self, keep_text: bool):
        self.hash = hashlib.sha256()
        self.parts: list[str] | None = [] if keep_text else None

    def write(self, text: str) -> int:
        self.hash.update(text.encode("utf-8"))
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def execute(
    cli, analysis: workloads.Analysis, argv: list[str], recorder=None, keep=False, clock=None
) -> Outcome:
    """One cli.main call with stdout/stderr captured; the timer covers only the call.

    keep: hold on to the fits the recorder saw, for the quality metrics.
    clock: a HostClock to rescale the time with.
    """
    if analysis.plot_path is not None:
        analysis.plot_path.unlink(missing_ok=True)
    out, err = HashingWriter(keep_text="--oracle" in argv), io.StringIO()
    span = recorder.request_span() if recorder else nullcontext()
    with redirect_stdout(out), redirect_stderr(err), span:
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except SystemExit as exc:  # argparse exits on a usage error
            code, error = exc.code, None
        except Exception as exc:  # a traceback a user would see; recorded, not raised
            code, error = 1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    digest = out.hash.hexdigest()
    if analysis.plot_path is not None and analysis.plot_path.exists():
        with analysis.plot_path.open("rb") as fh:
            digest += hashlib.file_digest(fh, "sha256").hexdigest()
    return Outcome(
        analysis=analysis.name,
        code=code,
        error=error,
        seconds=seconds,
        rescaled=clock.rescale(seconds) if clock else math.nan,
        digest=digest,
        oracle=oracle_blocks("".join(out.parts)) if out.parts is not None else {},
        fits=fit_summary(analysis, recorder.take_results()) if keep else {},
    )


def fit_summary(analysis: workloads.Analysis, kept: dict) -> dict:
    """The numbers the quality metrics need, so that no fit outlives its analysis."""
    summary = {}
    if "lts" in kept:
        summary["lts"] = (kept["lts"].objective, kept["lts"].h)
    if "mcd" in kept:
        summary["mcd"] = (kept["mcd"].raw_determinant, kept["mcd"].h)
    if "diagnostics" in kept:
        summary["recalled"] = sum(
            1 for rec in kept["diagnostics"]
            if rec.row_label in analysis.bad_leverage and rec.classification.value == "BadLeverage"
        )
    return summary


def problems_of(outcome: Outcome, argv: list[str]) -> list[str]:
    problems = []
    if outcome.error is not None:
        problems.append(f"exception_escaped: {outcome.error}")
    elif outcome.code != 0:
        problems.append(f"exit_code_{outcome.code}")
    elif "--oracle" in argv and not (
        outcome.oracle and all(block.get("match") is True for block in outcome.oracle.values())
    ):
        problems.append("oracle_match_not_true")
    return problems


def oracle_blocks(report: str) -> dict:
    """The --oracle blocks of a JSON report; none if the report lacks them."""
    try:
        blocks = json.loads(report)["oracle"]
    except (ValueError, KeyError, TypeError):
        return {}
    return blocks if isinstance(blocks, dict) else {}


def run_round(cli, modules, analyses, recorder, tally, reference, clock) -> list[Outcome]:
    """The workload's analysis list once, back to back, with recorder's wrappers installed.

    Every output must equal reference's (the first untraced round), if given.
    """
    differs = "traced_output_differs" if recorder.timed else "output_differs_between_rounds"
    outcomes = []
    with recorder.installed(*modules):
        for i, analysis in enumerate(analyses):
            outcome = execute(cli, analysis, analysis.argv, recorder, reference is None, clock)
            problems = problems_of(outcome, analysis.argv)
            if reference is not None and outcome.digest != reference[i].digest:
                problems.append(differs)
            tally.record(outcome, problems)
            outcomes.append(outcome)
    return outcomes


def wall(rounds: list[list[Outcome]], rescaled: bool = True) -> float:
    """Time to run the analysis list: the sum over analyses of each one's median time.

    A per-analysis median drops a round that a burst of contention on a
    shared host slowed down.
    """
    return sum(statistics.median(times) for times in zip(*(
        [o.rescaled if rescaled else o.seconds for o in r] for r in rounds
    )))


def check_repeat(cli, modules, analysis, reference: Outcome, tally) -> None:
    """Repeat one analysis as JSON, untraced and traced; both must match the reference."""
    argv = analysis.with_format("json")
    repeat = execute(cli, analysis, argv)
    tally.record(repeat, problems_of(repeat, argv) + (
        ["repeat_json_differs"] if repeat.digest != reference.digest else []))
    recorder = tracing.Recorder(timed=True)
    with recorder.installed(*modules):
        traced = execute(cli, analysis, argv, recorder)
    tally.record(traced, problems_of(traced, argv) + (
        ["traced_output_differs"] if traced.digest != reference.digest else []))


def quality(analyses, outcomes: list[Outcome]) -> dict:
    """Quality of the fits the pipeline produced in one round; independent of timing.

    Each optimum is divided by a reference: the exact optimum where --oracle
    enumerated it, else the optimum that concentration steps reach from the
    truth (workloads.Analysis). A search that finds worse optima raises the
    ratio. The raw objectives move with the seed's data and are not gated.
    """
    lts_logs, mcd_logs, lts_raw, mcd_raw = [], [], [], []
    planted = recalled = 0
    gap = 0.0
    for analysis, outcome in zip(analyses, outcomes):
        exact = {name: block["exact_objective"] for name, block in outcome.oracle.items()}
        if "lts" in outcome.fits:
            objective, h = outcome.fits["lts"]
            reference = exact.get("lts") or analysis.lts_reference(h)
            lts_raw.append(math.log(objective))
            lts_logs.append(math.log(objective / reference))
        if "mcd" in outcome.fits:
            determinant, h = outcome.fits["mcd"]
            reference = exact.get("mcd") or analysis.mcd_reference(h)
            mcd_raw.append(math.log(determinant))
            mcd_logs.append(math.log(determinant / reference))
        if "recalled" in outcome.fits:
            planted += len(analysis.bad_leverage)
            recalled += outcome.fits["recalled"]
        for block in outcome.oracle.values():
            best = block["exact_objective"]
            gap = max(gap, abs(block["heuristic_objective"] - best) / max(abs(best), 1e-300))

    def geo_mean(logs):
        return math.exp(statistics.fmean(logs)) if logs else math.nan

    return {
        "lts_objective_ratio": geo_mean(lts_logs),
        "mcd_det_ratio": geo_mean(mcd_logs),
        "planted_recall": recalled / planted if planted else math.nan,
        "oracle_ratio": 1.0 + gap,
        "info.lts_objective_geomean": geo_mean(lts_raw),
        "info.mcd_logdet_mean": statistics.fmean(mcd_raw) if mcd_raw else math.nan,
        "info.oracle_gap": gap,
    }


def time_imports(root: Path, count: int, clock: HostClock) -> tuple[float, float]:
    """Median time for a fresh interpreter to import hibreak.cli: (rescaled, raw)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    raw, rescaled = [], []
    clock.mark()
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hibreak.cli"], env=env, cwd=root, check=True)
        raw.append(time.perf_counter() - start)
        rescaled.append(clock.rescale(raw[-1]))
    return statistics.median(rescaled), statistics.median(raw)


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sources = sorted((root / "src" / "hibreak").glob("*.py"))
    lines = {f.name: f.read_bytes().count(b"\n") for f in sources}
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(v, 2) for v in os.getloadavg()],
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "wc_l_src_hibreak": {"total": sum(lines.values()), **lines},
    }


def run_probes(cli, workdir: Path) -> dict:
    """Each known-defect reproducer once through cli.main: exit code, escaped traceback."""
    report = {}
    for name, argv in workloads.probes(workdir).items():
        probe = workloads.Analysis(name, argv, None, frozenset(), None, None)
        outcome = execute(cli, probe, argv)
        report[name] = {"exit_code": outcome.code, "traceback": outcome.error is not None}
    return report


def run_workload(args, root: Path) -> dict:
    env = environment(root)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("env " + json.dumps(env, sort_keys=True))
    clock = HostClock()
    if not args.trace:
        setup_s, setup_raw_s = time_imports(root, 1 if args.smoke else SETUP_IMPORTS, clock)

    from hibreak import cli, mcd, pipeline

    modules = (cli, pipeline, mcd)
    workdir = root / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        analyses = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
        tally = Tally()
        # Warm-up and reference for the repeat check: the first analysis, as JSON.
        first = analyses[0]
        reference = execute(cli, first, first.with_format("json"))
        tally.record(reference, problems_of(reference, first.with_format("json")))

        # Untraced and traced rounds alternate, so that both see the same
        # host; rounds go on while another one fits in --seconds.
        keeper = tracing.Recorder(timed=False)
        tracer = tracing.Recorder(timed=True) if args.trace else None
        untraced, traced = [], []
        cpu_s = 0.0
        clock.mark()
        start = time.perf_counter()
        while True:
            untraced.append(run_round(
                cli, modules, analyses, keeper, tally, untraced[0] if untraced else None, clock
            ))
            if len(untraced) == 1:
                # Read after one round, so that it does not grow with the round count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                cpu_start = time.process_time()
                traced.append(run_round(cli, modules, analyses, tracer, tally, untraced[0], clock))
                cpu_s += time.process_time() - cpu_start
            elapsed = time.perf_counter() - start
            if args.smoke or elapsed + elapsed / len(untraced) > args.seconds:
                break
        check_repeat(cli, modules, first, reference, tally)
        for name, outcome in run_probes(cli, workdir).items():
            print(f"probe {name}: exit_code={outcome['exit_code']} traceback={outcome['traceback']}")

        if tracer:
            overhead = wall(traced) / wall(untraced) - 1.0
            metrics = tracing.layer_metrics(tracer.spans, len(traced), cpu_s, overhead)
            units = tracing.PER_LAYER_UNITS
        else:
            scores = quality(analyses, untraced[0])
            metrics = {
                "wall_s": wall(untraced),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
                "ok_frac": 1.0 - tally.failed / tally.attempted,
                **{k: v for k, v in scores.items() if not k.startswith("info.")},
            }
            units = END_TO_END
            for key, value in scores.items():
                if key.startswith("info."):
                    print(f"{key} {value:.6g}")
            print(f"info.failed_frac {tally.failed / tally.attempted:.6g}")
            print(f"info.wall_raw_s {wall(untraced, rescaled=False):.6g}")
            print(f"info.setup_raw_s {setup_raw_s:.6g}")
        print(f"rounds {len(untraced)}: untraced seconds per round "
              + " ".join(f"{sum(o.seconds for o in r):.4f}" for r in untraced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for violation in tally.violations:
        print(f"FAILED {violation}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            # NaN is not JSON; it only arises when every analysis failed.
            name: {"value": None if math.isnan(value) else value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_all(args) -> dict:
    """Every workload in its own process, so that peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one round")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hibreak" / "cli.py").is_file():
        print("run from the root of a hibreak checkout: src/hibreak/cli.py not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = run_all(args) if args.workload == "all" else run_workload(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

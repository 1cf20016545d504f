"""sha256 of every report and outlier map of the benchmark workloads.

Run from the repository root:

    python3 scripts/output_digests.py           # write scripts/digests.json
    python3 scripts/output_digests.py --check   # compare with it; exit 1 if any output moved

The inputs are those of the benchmark (perfbench.workloads.build) for the
workloads small_mixed, large_n and oracle_small at seeds 0, 1 and 2, plus
one seeded 20,000-row design (perfbench.workloads.contaminated, p = 4), above
the 10,000 elements from which OpenBLAS splits a dot product across threads.
Each analysis runs through hibreak.cli.main in this process once per report
format (json, markdown, tsv), each run writing its --plot-data outlier map:
183 reports and 183 maps. BLAS runs on the thread count the environment
sets (OPENBLAS_NUM_THREADS and the like), one where it sets none; the
outputs do not depend on it, so --check passes at any count. Their last
bits do depend on the numpy and BLAS build, so the file records those
beside the digests, and --check names them when they differ. For that
reason this check is not part of the test suite or CI. A change that moves
outputs on purpose rewrites the file and says which outputs moved and why.
"""

from __future__ import annotations

import os

# Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from perfbench import workloads  # noqa: E402

from hibreak import cli  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")
WORKLOADS = ("small_mixed", "large_n", "oracle_small")
SEEDS = (0, 1, 2)
FORMATS = ("json", "markdown", "tsv")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def run(argv: list[str], plot: Path) -> dict:
    """One cli.main call: its exit code and the sha256 of its report and of its outlier map."""
    plot.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {
        "exit": code,
        "report": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "map": hashlib.sha256(plot.read_bytes()).hexdigest() if plot.exists() else None,
    }


def above_10000(workdir: Path) -> workloads.Analysis:
    """The 20,000-row, p = 4 analysis, its CSV written as build writes its own."""
    n, p = 20000, 4
    x, y, _ = workloads.contaminated(np.random.default_rng(0), n, p)
    names = [f"x{j + 1}" for j in range(p)]
    path = workdir / f"n{n}_p{p}.csv"
    workloads.write_csv(path, ["label", "y", *names], [f"r{i}" for i in range(n)],
                        np.column_stack([y, x]))
    argv = ["analyze", str(path), "--response", "y", "--predictors", ",".join(names),
            "--format", "json"]
    return workloads.Analysis(path.stem, argv, None, frozenset(), x, y)


def analyses(tmp: Path):
    """(workload, seed, analysis) of each benchmark input, then of the 20,000-row one."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            workdir = tmp / f"{workload}-{seed}"
            workdir.mkdir()
            for analysis in workloads.build(workload, seed, workdir):
                yield workload, seed, analysis
    yield "above_10000", 0, above_10000(tmp)


def digests() -> dict:
    """{"<workload> seed=<seed> <analysis> <format>": run(...)} for every output."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, analysis in analyses(Path(tmp)):
            plot = analysis.plot_path or Path(analysis.argv[1]).with_suffix(".map.json")
            extra = [] if analysis.plot_path else ["--plot-data", str(plot)]
            for fmt in FORMATS:
                key = f"{workload} seed={seed} {analysis.name} {fmt}"
                outputs[key] = run(analysis.with_format(fmt) + extra, plot)
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {DIGESTS.name} instead of writing it")
    args = parser.parse_args(argv)
    current = {"environment": environment(), "outputs": digests()}
    if not args.check:
        DIGESTS.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote the digests of {len(current['outputs'])} runs to {DIGESTS}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    if recorded["environment"] != current["environment"]:
        print(f"environment differs: recorded {recorded['environment']}, "
              f"now {current['environment']}; last bits may move")
    keys = sorted(recorded["outputs"].keys() | current["outputs"].keys())
    moved = [k for k in keys if recorded["outputs"].get(k) != current["outputs"].get(k)]
    for key in moved:
        print(f"moved: {key}")
    print(f"{len(keys) - len(moved)} of {len(keys)} runs unchanged (report, map and exit code)")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

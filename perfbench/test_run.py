"""Smoke test of the benchmark harness: every workload at tiny sizes, one round.

Run from the repository root: python3 -m pytest perfbench/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_metric_and_passes_its_checks(trace, section):
    proc = run(ROOT, "--workload", "all", "--smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC[section]}
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)), metric
    for probe in ("magnitude_x_year_times_1000_n60", "too_few_rows_n5_p2", "dummy_6_ones_in_n100"):
        assert f"probe {probe}: exit_code=" in proc.stdout
    assert '"wc_l_src_hibreak"' in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run(tmp_path, "--workload", "small_mixed", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

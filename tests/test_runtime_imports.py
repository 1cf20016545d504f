"""The runtime imports numpy and the standard library only; scipy is a test dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hibreak

PROBE = (
    "import sys, hibreak, hibreak.cli; "
    "print(','.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
)


def test_import_loads_no_scipy():
    source_root = Path(hibreak.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source_root)}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == ""


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_only_the_core_stats_tests_import_scipy():
    # CI runs the suite on the installed package without scipy and ignores this one module
    importers = {path.name for path in Path(__file__).parent.glob("*.py")
                 if any(module.split(".")[0] == "scipy" for module in imported_modules(path))}
    assert importers == {"test_core_stats.py"}

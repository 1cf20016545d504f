"""The runtime imports numpy and the standard library only; scipy is a test dependency."""

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

"""The LAPACK extension is loaded by file, without importing scipy.linalg.

Both checks run in a fresh interpreter: the test process has scipy.linalg
loaded already (test_ecology imports it), and which of the two imports
comes first decides the path `dispersal.lapack` takes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dispersal

ROUTINES = ("dgtsv", "dpbtrf", "dpbtrs", "dpttrf", "dpttrs", "dstebz")
HEAVY = ("scipy.linalg", "scipy._lib._array_api")

PROBE = f"""
import json, sys
import dispersal.harness.cli
from dispersal import lapack
loaded = [name for name in {HEAVY!r} if name in sys.modules]
import scipy.linalg.lapack as scipy_lapack
same = [name for name in {ROUTINES!r}
        if getattr(lapack, name) is getattr(scipy_lapack, name)]
print(json.dumps({{"loaded": loaded, "same": same}}))
"""


@pytest.fixture(scope="module")
def fresh_import() -> dict:
    src = Path(dispersal.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_leaves_scipy_linalg_out(fresh_import):
    assert fresh_import["loaded"] == []


def test_routines_are_scipy_linalg_lapacks_own(fresh_import):
    # a later import of scipy.linalg reuses the extension loaded by file
    assert fresh_import["same"] == list(ROUTINES)

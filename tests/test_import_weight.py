"""What importing and running the package loads, in fresh interpreters.

* ``import repro, repro.api, repro.campaign, repro.tuning`` plus one
  simulate run loads no ``scipy`` module at all;
* a numeric run loads scipy's LAPACK extension ``scipy.linalg._flapack``
  alone, not the ``scipy.linalg`` package (which would pull in much more);
* after ``import scipy.linalg.lapack`` the numeric stages' LAPACK routines
  are scipy's own objects, whichever was loaded first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.kernels import flapack

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

pytestmark = pytest.mark.slow

PRELUDE = """
import json, sys
import numpy as np
import repro, repro.api, repro.campaign, repro.tuning
from repro.api import SvdPlan, execute

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(body: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_imports_and_a_simulate_run_load_no_scipy():
    out = _run("""
result = execute(SvdPlan(m=800, n=600, tile_size=100, n_cores=4), "simulate")
print(json.dumps({"scipy": scipy_modules(), "tasks": result.n_tasks}))
""")
    assert out["scipy"] == [] and out["tasks"] > 0


def test_a_numeric_run_loads_the_lapack_extension_alone():
    out = _run("""
before = scipy_modules()
result = execute(SvdPlan(m=48, n=32, tile_size=8), "numeric")
print(json.dumps({"before": before, "after": scipy_modules(),
                  "error": result.max_rel_error}))
""")
    assert out["before"] == []
    assert out["after"] == ["scipy.linalg._flapack"]
    assert out["error"] < 1e-12


@pytest.mark.parametrize("scipy_first", [False, True])
def test_the_kernels_call_scipys_own_lapack_objects(scipy_first):
    out = _run(f"""
if {scipy_first}:
    import scipy.linalg.lapack
execute(SvdPlan(m=48, n=32, tile_size=8), "numeric")
import scipy.linalg.lapack as lapack
from repro.kernels import flapack
print(json.dumps({{name: getattr(flapack, name) is getattr(lapack, name)
                  for name in flapack.NAMES}}))
""")
    assert out == {name: True for name in flapack.NAMES}


def test_a_missing_scipy_raises_a_clear_error():
    out = _run("""
import importlib.util
from repro.kernels import flapack
importlib.util.find_spec = lambda name, *args: None
try:
    execute(SvdPlan(m=48, n=32, tile_size=8), "numeric")
except ModuleNotFoundError as exc:
    print(json.dumps({"error": str(exc), "name": exc.name}))
""")
    assert out["name"] == "scipy"
    assert "pip install scipy" in out["error"]

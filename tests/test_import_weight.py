"""What importing and running the package loads, in fresh interpreters.

* ``import repro, repro.api, repro.campaign, repro.tuning`` plus one
  simulate run loads no ``scipy`` module at all;
* a numeric run loads scipy's LAPACK extensions ``scipy.linalg._flapack``
  (f2py wrappers) and ``scipy.linalg.cython_lapack`` (function pointers)
  and nothing else under ``scipy.linalg``, never the ``scipy.linalg``
  package itself (which would pull in much more);
* after ``import scipy.linalg.lapack`` the numeric stages' LAPACK routines
  are scipy's own objects, and the pointer wrappers call the capsules of
  scipy's own ``cython_lapack``, whichever was loaded first.
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

def scipy_modules(prefix="scipy"):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))
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
print(json.dumps({"before": before, "after": scipy_modules("scipy.linalg"),
                  "error": result.max_rel_error}))
""")
    assert out["before"] == []
    assert out["after"] == [flapack.EXTENSION, flapack.POINTERS]
    assert out["error"] < 1e-12


@pytest.mark.parametrize("scipy_first", [False, True])
def test_the_kernels_call_scipys_own_lapack_objects(scipy_first):
    out = _run(f"""
import ctypes
if {scipy_first}:
    import scipy.linalg.lapack
execute(SvdPlan(m=48, n=32, tile_size=8), "numeric")
import scipy.linalg.cython_lapack as cython_lapack
import scipy.linalg.lapack as lapack
from repro.kernels import flapack
api = ctypes.pythonapi
api.PyCapsule_GetName.restype = ctypes.c_char_p
api.PyCapsule_GetName.argtypes = [ctypes.py_object]
api.PyCapsule_GetPointer.restype = ctypes.c_void_p
api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
same = {{name: getattr(flapack, name) is getattr(lapack, name) for name in flapack.NAMES}}
for name in ("dgbbrd", "dbdsqr"):
    capsule = cython_lapack.__pyx_capi__[name]
    address = api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
    called = ctypes.cast(flapack._routine(name), ctypes.c_void_p).value
    same[name] = called == address
same["module"] = sys.modules[flapack.POINTERS] is cython_lapack
print(json.dumps(same))
""")
    assert out == {name: True for name in (*flapack.NAMES, "dgbbrd", "dbdsqr", "module")}


def test_a_missing_scipy_raises_a_clear_error():
    # The tile kernels' f2py loader, then the pointer loader behind BND2BD
    # and BD2VAL.
    out = _run("""
import importlib.util
from repro.algorithms import band_to_bidiagonal, bidiagonal_singular_values
importlib.util.find_spec = lambda name, *args: None
calls = {
    "kernels": lambda: execute(SvdPlan(m=48, n=32, tile_size=8), "numeric"),
    "dgbbrd": lambda: band_to_bidiagonal(np.triu(np.ones((4, 4))), 3),
    "dbdsqr": lambda: bidiagonal_singular_values([2.0, 1.0], [0.5]),
}
errors = {}
for name, call in calls.items():
    try:
        call()
    except ModuleNotFoundError as exc:
        errors[name] = [exc.name, str(exc)]
print(json.dumps(errors))
""")
    assert set(out) == {"kernels", "dgbbrd", "dbdsqr"}
    for name, error in out.values():
        assert name == "scipy" and "pip install scipy" in error

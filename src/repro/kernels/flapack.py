"""scipy's Fortran LAPACK wrappers, loaded on first use and alone.

The numeric backend's stages call LAPACK.  Each GE2BND tile kernel is one
call: ``dgeqrt`` / ``dgemqrt`` for GEQRT and its update, ``dtpqrt`` /
``dtpmqrt`` for the TS and TT pairs (the kernels of PLASMA's
``core_blas``).  BND2BD makes each bulge reflector with ``dlarfg`` and
applies it with ``dlarf``, and BD2VAL's values come from ``dstemr`` on the
Golub–Kahan tridiagonal.  scipy ships their f2py wrappers in the
extension module ``scipy.linalg._flapack``; this module
loads that extension by its file, so the ``scipy.linalg`` package (which
imports much more) stays unloaded, and registers it under its own name,
so a later ``import scipy.linalg`` reuses the same module object.

The first read of one of :data:`NAMES` here loads the extension; until
then importing this module costs nothing.  Without scipy that first read
raises :class:`ModuleNotFoundError` saying what to install.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import Any

#: Module name of the extension, in scipy and in :data:`sys.modules`.
EXTENSION = "scipy.linalg._flapack"
#: The LAPACK routines the numeric stages call: the tile kernels', then
#: BND2BD's and BD2VAL's.
NAMES = ("dgeqrt", "dgemqrt", "dtpqrt", "dtpmqrt", "dlarfg", "dlarf", "dstemr")


def _load_extension() -> ModuleType:
    loaded = sys.modules.get(EXTENSION)
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(list(scipy.submodule_search_locations)[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(EXTENSION)
    if spec is None or spec.loader is None:
        raise ModuleNotFoundError(
            "the numeric backend calls LAPACK (its tile kernels, bulge chase "
            f"and bidiagonal solver) through scipy's {EXTENSION} extension, "
            "and scipy is not installed "
            "(pip install scipy)",
            name="scipy",
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[EXTENSION] = module
    return module


def __getattr__(name: str) -> Any:
    if name not in NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    extension = _load_extension()
    # Bound as module globals: later reads are plain attribute lookups.
    routines = {routine: getattr(extension, routine) for routine in NAMES}
    globals().update(routines)
    return routines[name]

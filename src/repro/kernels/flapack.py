"""scipy's LAPACK, loaded on first use and alone.

The numeric backend's stages call LAPACK.  Each GE2BND tile kernel is one
call: ``dgeqrt`` / ``dgemqrt`` for GEQRT and its update, ``dtpqrt`` /
``dtpmqrt`` for the TS and TT pairs (the kernels of PLASMA's
``core_blas``).  scipy ships their f2py wrappers in the extension module
``scipy.linalg._flapack``.  The second stage is one call per stage:
BND2BD is :func:`dgbbrd` (the band-to-bidiagonal chase) and BD2VAL
:func:`dbdsqr` (dqds for values alone, the implicit QR iteration with
vectors).  scipy's f2py layer wraps neither, so both are called through
the function pointers that scipy's ``scipy.linalg.cython_lapack``
extension exports, each behind a wrapper that checks the dtype, Fortran
order and shape of every array before its address reaches LAPACK.

This module loads each extension by its file, so the ``scipy.linalg``
package (which imports much more) stays unloaded, and registers it under
its own name, so a later ``import scipy.linalg`` reuses the same module
object.  The first read of one of :data:`NAMES`, or the first call of
:func:`dgbbrd` or :func:`dbdsqr`, loads its extension; until then
importing this module costs nothing.  Without scipy that first use raises
:class:`ModuleNotFoundError` saying what to install.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: Module name of the f2py extension, in scipy and in :data:`sys.modules`.
EXTENSION = "scipy.linalg._flapack"
#: Module name of the extension that exports LAPACK's function pointers.
POINTERS = "scipy.linalg.cython_lapack"
#: The f2py-wrapped routines the tile kernels call.
NAMES = ("dgeqrt", "dgemqrt", "dtpqrt", "dtpmqrt")

_INT = ctypes.POINTER(ctypes.c_int)
_PTR = ctypes.c_void_p
#: Argument types of the routines called by pointer, in LAPACK's order, as
#: ``cython_lapack.pxd`` declares them: ``char *`` flags, ``int *`` sizes
#: and ``double *`` arrays.
_SIGNATURES = {
    # vect, m, n, ncc, kl, ku, ab, ldab, d, e, q, ldq, pt, ldpt, c, ldc, work, info
    "dgbbrd": (ctypes.c_char_p, _INT, _INT, _INT, _INT, _INT, _PTR, _INT, _PTR, _PTR,
               _PTR, _INT, _PTR, _INT, _PTR, _INT, _PTR, _INT),
    # uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc, work, info
    "dbdsqr": (ctypes.c_char_p, _INT, _INT, _INT, _INT, _PTR, _PTR, _PTR, _INT, _PTR, _INT,
               _PTR, _INT, _PTR, _INT),
}
_routines: Dict[str, Any] = {}
#: Passed for the array arguments LAPACK does not reference (no ``C``,
#: or no vectors); never written.
_UNREFERENCED = np.zeros(1)


def _load(name: str) -> ModuleType:
    """The scipy extension module ``name``, loaded by its file if needed."""
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(list(scipy.submodule_search_locations)[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(name)
    if spec is None or spec.loader is None:
        raise ModuleNotFoundError(
            "the numeric backend calls LAPACK (its tile kernels through "
            f"scipy's {EXTENSION} extension, its bulge chase and bidiagonal "
            f"solver through {POINTERS}), and scipy is not installed "
            "(pip install scipy)",
            name="scipy",
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def __getattr__(name: str) -> Any:
    if name not in NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    extension = _load(EXTENSION)
    # Bound as module globals: later reads are plain attribute lookups.
    routines = {routine: getattr(extension, routine) for routine in NAMES}
    globals().update(routines)
    return routines[name]


def _capsule_address(capsule: Any) -> int:
    """The function address a ``cython_lapack`` capsule holds."""
    # Private prototypes: setting argtypes on ctypes.pythonapi's shared
    # function objects would change them for every other caller.
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return int(get_pointer(capsule, get_name(capsule)))


def _routine(name: str) -> Any:
    """LAPACK's ``name`` as a ctypes function on its :data:`POINTERS` capsule."""
    found = _routines.get(name)
    if found is None:
        capsule = _load(POINTERS).__pyx_capi__[name]
        found = ctypes.CFUNCTYPE(None, *_SIGNATURES[name])(_capsule_address(capsule))
        _routines[name] = found
    return found


def _checked(name: str, array: Any, shape: Tuple[int, ...]) -> int:
    """The address of ``array`` once it is a writeable Fortran-ordered
    float64 array of exactly ``shape``; :class:`ValueError` otherwise."""
    if not (
        isinstance(array, np.ndarray)
        and array.dtype == np.float64
        and array.flags.f_contiguous
        and array.flags.writeable
        and array.shape == shape
    ):
        got = (
            f"{array.dtype} of shape {array.shape} "
            f"({'Fortran' if array.flags.f_contiguous else 'not Fortran'}-ordered"
            f"{'' if array.flags.writeable else ', read-only'})"
            if isinstance(array, np.ndarray)
            else type(array).__name__
        )
        raise ValueError(
            f"LAPACK argument {name} must be a writeable Fortran-ordered float64 "
            f"array of shape {shape}, got {got}"
        )
    return int(array.ctypes.data)


def _optional(name: str, array: Optional[np.ndarray], shape: Tuple[int, int]) -> Tuple[int, Any]:
    """Address and leading dimension of an array argument LAPACK may not
    reference: without ``array`` a never-written placeholder and 1."""
    if array is None:
        return int(_UNREFERENCED.ctypes.data), _int(1)
    return _checked(name, array, shape), _int(max(1, shape[0]))


def _int(value: int) -> Any:
    return ctypes.byref(ctypes.c_int(value))


def _info(name: str, info: ctypes.c_int) -> int:
    if info.value < 0:
        raise ValueError(f"LAPACK {name} rejected its argument {-info.value}")
    return info.value


def dgbbrd(
    ab: np.ndarray, q: Optional[np.ndarray] = None, pt: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """LAPACK ``dgbbrd`` on an ``n x n`` upper band: ``band = Q·bidiag(d, e)·Pᵀ``.

    ``ab`` is the band in LAPACK's band storage, ``(ku + 1) x n``: row
    ``ku - k`` holds superdiagonal ``k``.  It is overwritten.  ``q`` and
    ``pt``, when given, are ``n x n`` arrays that receive ``Q`` and ``Pᵀ``
    (their contents are not read).  Returns the diagonal ``d`` and the
    superdiagonal ``e`` of the bidiagonal factor.
    """
    rows, n = np.shape(ab)
    ab_ptr = _checked("ab", ab, (rows, n))
    q_ptr, ldq = _optional("q", q, (n, n))
    pt_ptr, ldpt = _optional("pt", pt, (n, n))
    # 'N', 'Q', 'P' or 'B': which of Q and P^T to form.
    vect = "NQPB"[(q is not None) + 2 * (pt is not None)].encode()
    d, e = np.empty(n), np.empty(max(n - 1, 0))
    work = np.empty(max(1, 2 * n))
    info = ctypes.c_int(0)
    _routine("dgbbrd")(
        vect, _int(n), _int(n), _int(0), _int(0), _int(rows - 1), ab_ptr, _int(rows),
        d.ctypes.data, e.ctypes.data, q_ptr, ldq, pt_ptr, ldpt,
        _UNREFERENCED.ctypes.data, _int(1), work.ctypes.data, ctypes.byref(info),
    )
    _info("dgbbrd", info)
    return d, e


def dbdsqr(
    d: np.ndarray,
    e: np.ndarray,
    vt: Optional[np.ndarray] = None,
    u: Optional[np.ndarray] = None,
) -> int:
    """LAPACK ``dbdsqr`` on the upper bidiagonal ``bidiag(d, e)``, in place.

    ``d`` (``n``) comes back holding the singular values in descending
    order; ``e`` (``n - 1``) is destroyed.  Without ``vt`` and ``u`` this
    is dqds (``dlasq1``); with them the implicit QR iteration, which
    pre-multiplies ``vt`` (``n x ncvt``) by ``Vᵀ`` and post-multiplies ``u``
    (``nru x n``) by ``U``.  Returns LAPACK's ``info``: 0, or the number of
    superdiagonal entries that did not converge to zero.
    """
    n = np.size(d)
    d_ptr = _checked("d", d, (n,))
    e_ptr = _checked("e", e, (max(n - 1, 0),))
    ncvt = 0 if vt is None else np.shape(vt)[-1]
    nru = 0 if u is None else np.shape(u)[0]
    vt_ptr, ldvt = _optional("vt", vt, (n, ncvt))
    u_ptr, ldu = _optional("u", u, (nru, n))
    work = np.empty(max(1, 4 * n))
    info = ctypes.c_int(0)
    _routine("dbdsqr")(
        b"U", _int(n), _int(ncvt), _int(nru), _int(0), d_ptr, e_ptr, vt_ptr, ldvt,
        u_ptr, ldu, _UNREFERENCED.ctypes.data, _int(1), work.ctypes.data, ctypes.byref(info),
    )
    return _info("dbdsqr", info)

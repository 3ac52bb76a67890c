"""Cholesky factorizations and solves, and the BLAS threads they run on.

A failed factorization raises; nothing adds jitter, which would make the
result depend on the jitter chosen. numpy's OpenBLAS serves ``cholesky``, one
call for a stack (scipy's ``dpotrf`` gave other bits on 2183 of 20,000
fig3-shaped BPR precisions); scipy's serves ``dtrtrs`` and ``dpotrs``, called
in its f2py LAPACK module ``_flapack``, loaded from its file on its own: the
scipy.linalg package around it loads some 250 more modules. On matrices this
small (k <= 6 for BPR, a few hundred rows for a GP) extra threads only spin,
so work runs inside ``one_blas_thread``; a pool worker enters it itself,
since a spawned one inherits no count.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager

import numpy as np

from .errors import NumericalError

__all__ = ["chol_spd", "chol_solve_vec", "solve_lower", "one_blas_thread"]

_FLAPACK = "scipy.linalg._flapack"

# Each OpenBLAS copy, reached by its symbols through an extension module that links it.
_OPENBLAS = (("numpy._core._multiarray_umath", "64_"), (_FLAPACK, ""))


def _load_flapack():
    """scipy's ``_flapack`` extension module, loaded from its file.

    ``find_spec`` locates scipy without importing it. The module's init
    registers it in ``sys.modules``; unless scipy.linalg put it there first,
    the entry is dropped again, so scipy.linalg, imported later, loads its
    own module object (sharing these function objects).
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    path = os.path.join(os.path.dirname(scipy.origin), "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK module {path} not found", path=path)
    registered = _FLAPACK in sys.modules  # by an earlier import of scipy.linalg
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        sys.modules.pop(_FLAPACK, None)
    return module


_flapack = _load_flapack()


def chol_spd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix, or of each in a stack; else ``NumericalError``."""
    a = np.asarray(a, dtype=float)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        n = a.shape[-1]
        raise NumericalError(f"Cholesky failed for {n}x{n} matrix in {a.shape}: {exc}") from exc


def chol_solve_vec(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b`` given the lower factor; ``b`` is a vector or a matrix.

    LAPACK ``dpotrs`` called directly: the routine behind
    ``scipy.linalg.cho_solve``, bit for bit, without its wrapper's
    overhead. Non-finite input raises ``ValueError``, as there.
    """
    if not (np.isfinite(lower).all() and np.isfinite(b).all()):
        raise ValueError("Cholesky solve: the factor or the right-hand side is not finite")
    x, info = _flapack.dpotrs(lower, b, lower=1)
    if info != 0:
        raise ValueError(f"Cholesky solve: dpotrs rejected argument {-info}")
    return x


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution ``L x = b``; ``b`` is a vector or a matrix.

    LAPACK ``dtrtrs`` called as ``scipy.linalg.solve_triangular(lower, b,
    lower=True)`` calls it, bit for bit, with its checks: non-finite input
    or mismatched shapes raise ``ValueError``, a singular factor
    ``LinAlgError``. A C-ordered factor is passed as the transposed upper
    one, which is the same memory in Fortran order.
    """
    lower, b = np.asarray(lower), np.asarray(b)
    if not (np.isfinite(lower).all() and np.isfinite(b).all()):
        raise ValueError("triangular solve: the factor or the right-hand side is not finite")
    if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
        raise ValueError(f"triangular solve: the factor of shape {lower.shape} is not square")
    if lower.shape[0] != b.shape[0]:
        raise ValueError(f"triangular solve: the factor of shape {lower.shape} and the "
                         f"right-hand side of shape {b.shape} are incompatible")
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    if lower.flags.f_contiguous:
        x, info = _flapack.dtrtrs(lower, b, lower=1, trans=0)
    else:
        x, info = _flapack.dtrtrs(lower.T, b, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"triangular solve: dtrtrs rejected argument {-info}")
    return x


@functools.cache
def _openblas(module: str, suffix: str):
    """The library path and the thread-count getter and setter of one copy."""
    owner = _flapack if module == _FLAPACK else importlib.import_module(module)
    lib = ctypes.CDLL(owner.__file__)
    get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}") for op in ("get", "set"))
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    dladdr, info = ctypes.CDLL(None).dladdr, (ctypes.c_char_p * 4)()  # Dl_info: path first
    dladdr.argtypes, dladdr.restype = [ctypes.c_void_p, ctypes.c_void_p], ctypes.c_int
    found = dladdr(ctypes.cast(get, ctypes.c_void_p), info)
    return (os.path.realpath(os.fsdecode(info[0])) if found else None), get, put


@contextmanager
def one_blas_thread():
    """Run the body with each OpenBLAS copy on one thread; restore the caller's counts.

    Yields one record per copy: its library path, the thread count found and
    the count set, or why the copy or its symbols could not be found.
    """
    records, restore = [], []
    for module, suffix in _OPENBLAS:
        try:
            path, get, put = _openblas(module, suffix)
        except (ImportError, OSError, AttributeError) as exc:
            records.append({"module": module, "missing": str(exc)})
            continue
        restore.append((put, get()))
        put(1)
        records.append({"module": module, "library": path,
                        "threads_before": restore[-1][1], "threads_set": get()})
    try:
        yield records
    finally:
        for put, before in restore:
            put(before)

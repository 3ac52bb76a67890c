"""Cholesky factorizations and solves, and the BLAS threads they run on.

A failed factorization raises; nothing adds jitter, which would make the
result depend on the jitter chosen. numpy's OpenBLAS serves ``cholesky``
and scipy's serves ``solve_triangular`` and ``dpotrs``; on matrices this
small (k <= 6 for BPR, a few hundred rows for a GP) extra threads only spin.
A pool worker sets its own count (``set_one_blas_thread``): a spawned one
inherits none.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
from contextlib import contextmanager, suppress

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs

from .errors import NumericalError

__all__ = ["chol_spd", "chol_solve_vec", "solve_lower", "one_blas_thread",
           "set_one_blas_thread"]

# Each OpenBLAS copy, reached by its symbols through an extension module that links it.
_OPENBLAS = (("numpy._core._multiarray_umath", "64_"), ("scipy.linalg._flapack", ""))


def chol_spd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix; ``NumericalError`` if it is not one."""
    a = np.asarray(a, dtype=float)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        n = a.shape[0]
        raise NumericalError(f"Cholesky failed for {n}x{n} matrix: {exc}") from exc


def chol_solve_vec(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b`` given the lower factor; ``b`` is a vector or a matrix.

    LAPACK ``dpotrs`` called directly: the routine behind
    ``scipy.linalg.cho_solve``, bit for bit, without its wrapper's
    overhead. Non-finite input raises ``ValueError``, as there.
    """
    if not (np.isfinite(lower).all() and np.isfinite(b).all()):
        raise ValueError("Cholesky solve: the factor or the right-hand side is not finite")
    x, info = dpotrs(lower, b, lower=1)
    if info != 0:
        raise ValueError(f"Cholesky solve: dpotrs rejected argument {-info}")
    return x


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution ``L x = b``."""
    return solve_triangular(lower, b, lower=True)


@functools.cache
def _openblas(module: str, suffix: str):
    """The library path and the thread-count getter and setter of one copy."""
    lib = ctypes.CDLL(importlib.import_module(module).__file__)
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


def set_one_blas_thread() -> None:
    """A pool worker's initializer: each OpenBLAS copy found on one thread, for good.
    ``one_blas_thread`` records a copy not found."""
    for module, suffix in _OPENBLAS:
        with suppress(ImportError, OSError, AttributeError):
            _openblas(module, suffix)[2](1)

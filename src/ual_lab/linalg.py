"""Symmetric positive definite factorizations with bounded jitter.

High-degree monomial features on [-2, 2] push condition numbers into the
1e6 range, so a plain Cholesky occasionally fails on matrices that are SPD
in exact arithmetic. The policy here: retry with jitter 1e-10*(trace/dim),
escalating tenfold up to 1e-6*(trace/dim), then give up loudly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import NumericalError

_JITTER_START = 1e-10
_JITTER_CEIL = 1e-6

__all__ = ["chol_spd", "spd_inverse", "chol_solve_vec", "solve_lower"]


def chol_spd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix, with jitter escalation."""
    a = np.asarray(a, dtype=float)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    scale = np.trace(a) / a.shape[0]
    if not np.isfinite(scale) or scale <= 0.0:
        scale = 1.0
    jitter = _JITTER_START
    eye = np.eye(a.shape[0])
    while jitter <= _JITTER_CEIL * (1.0 + 1e-12):
        try:
            return np.linalg.cholesky(a + jitter * scale * eye)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"Cholesky failed for {a.shape[0]}x{a.shape[0]} matrix even with "
        f"jitter up to {_JITTER_CEIL:g}*(trace/dim)"
    )


def chol_solve_vec(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b`` given the lower factor."""
    return cho_solve((lower, True), b)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Symmetrized inverse of an SPD matrix via Cholesky."""
    lower = chol_spd(a)
    inv = cho_solve((lower, True), np.eye(a.shape[0]))
    return 0.5 * (inv + inv.T)


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution ``L x = b``."""
    return solve_triangular(lower, b, lower=True)

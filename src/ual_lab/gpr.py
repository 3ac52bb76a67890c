"""Gaussian process regression with linear, RBF, and Matern-5/2 kernels.

Hyperparameters are fixed by configuration, never learned during a run.
A fitted GP is the lower Cholesky factor L of K + sigma^2 I and the
whitened targets z = L^-1 y, built by ``gp_fit`` in O(n^3). It is read at
points P through V = L^-1 K(X, P) (Rasmussen & Williams 2006, Alg. 2.1):
means V'z, latent variances k(p, p) minus V's squared column sums.
``prefix_predictions`` reads every prefix of the training order off the
same V and z, and :class:`PoolPredictions` keeps V over a fixed point set
and grows V and z by one row per label, in O(nm) for m points. Distances
are computed here (``distances``); scipy serves only LAPACK, through
``linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import chol_spd, solve_lower

__all__ = [
    "KernelSpec",
    "GpModel",
    "distances",
    "kernel_matrix",
    "gp_fit",
    "PoolPredictions",
    "gp_predict_batch",
    "prefix_predictions",
]

LINEAR = "linear"
RBF = "rbf"
MATERN52 = "matern52"


@dataclass(frozen=True)
class KernelSpec:
    """Covariance function parameters.

    linear:   bias + weight * <x, x'>
    rbf:      amplitude * exp(-r^2 / (2 l^2))
    matern52: amplitude * (1 + sqrt5 r/l + 5 r^2/(3 l^2)) * exp(-sqrt5 r/l)
    """

    kind: str
    amplitude: float = 1.0
    lengthscale: float = 1.0
    bias: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in (LINEAR, RBF, MATERN52):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == LINEAR:
            if self.bias < 0 or self.weight <= 0:
                raise ValueError("linear kernel needs bias >= 0 and weight > 0")
        else:
            if self.amplitude <= 0 or self.lengthscale <= 0:
                raise ValueError("stationary kernels need amplitude > 0 and lengthscale > 0")


def distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of two ``(n, d)`` and ``(m, d)`` arrays.

    The squared coordinate differences are added onto zeros one coordinate
    at a time, in order, before the square root: the sum that scipy's
    Euclidean ``cdist`` forms, so the result is the same bit for bit.
    """
    total = np.zeros((xa.shape[0], xb.shape[0]))
    step = np.empty_like(total)
    for a, b in zip(xa.T, xb.T):
        np.subtract(a[:, None], b, out=step)
        total += np.square(step, out=step)
    return np.sqrt(total, out=total)


def _points(xs) -> np.ndarray:
    """Inputs as (n, d) rows: (n,) is n one-dimensional points, a scalar is one."""
    xs = np.asarray(xs, dtype=float)
    return xs.reshape(-1, 1) if xs.ndim < 2 else xs


def kernel_matrix(spec: KernelSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix between row-stacked inputs."""
    xa, xb = _points(xa), _points(xb)
    if xa.shape[1] != xb.shape[1]:
        raise ValueError(f"input dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    if spec.kind == LINEAR:
        return spec.bias + spec.weight * (xa @ xb.T)
    r = distances(xa, xb)
    if spec.kind == RBF:
        return spec.amplitude * np.exp(-0.5 * (r / spec.lengthscale) ** 2)
    s = math.sqrt(5.0) * r / spec.lengthscale
    return spec.amplitude * (1.0 + s + (s * s) / 3.0) * np.exp(-s)


@dataclass(frozen=True)
class GpModel:
    """A fitted zero-mean GP: L L' = K + sigma^2 I and the whitened targets z = L^-1 y."""

    kernel: KernelSpec
    train_inputs: np.ndarray      # (n, d)
    chol_factor: np.ndarray       # lower factor L, (n, n)
    whitened_outputs: np.ndarray  # z, (n,)
    noise_variance: float

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]


def gp_fit(
    spec: KernelSpec,
    xs,
    ys,
    noise_variance: float,
) -> GpModel:
    """Fit from scratch on at least one point: factor (K + sigma^2 I) as L L'
    and whiten the targets, z = L^-1 y."""
    xs = _points(xs)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != (len(xs),):
        raise ValueError(f"ys of shape {ys.shape} do not match the {len(xs)} inputs")
    if ys.size == 0:
        raise ValueError("a GP needs at least one training point")
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    gram = kernel_matrix(spec, xs, xs) + noise_variance * np.eye(xs.shape[0])
    lower = chol_spd(gram)
    return GpModel(spec, xs, lower, solve_lower(lower, ys), noise_variance)


def gp_predict_batch(
    model: GpModel, xs, include_noise: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior means and variances over many inputs.

    ``include_noise`` adds sigma^2 to the returned variance (the predictive
    rather than latent posterior), the default so variance scores sit on
    the same scale as the parametric models'.
    """
    xs = _points(xs)
    cross = _whitened(model, xs)  # (n, m)
    variances = _prior_diag(model.kernel, xs) - np.einsum("ij,ij->j", cross, cross)
    if include_noise:
        variances = variances + model.noise_variance
    return cross.T @ model.whitened_outputs, variances


def prefix_predictions(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Latent means and variances at ``points`` of the fit on every prefix of
    ``model``'s training order.

    Row t is ``gp_predict_batch(gp_fit(kernel, xs[:t + 1], ys[:t + 1], ...),
    points, include_noise=False)``. The Cholesky factor of a prefix's Gram
    matrix is the leading block of the whole order's (Rasmussen & Williams
    2006, Alg. 2.1), and so are the leading entries of z = L^-1 y, so
    ``model``'s L and z serve every prefix: with V = L^-1 K(X, points), the
    means are running sums of V's rows weighted by z and the variances
    k(p, p) minus running sums of V's squared rows.
    """
    points = _points(points)
    cross = _whitened(model, points)
    latent = np.square(cross)
    np.cumsum(latent, axis=0, out=latent)
    np.subtract(_prior_diag(model.kernel, points), latent, out=latent)
    cross *= model.whitened_outputs[:, None]
    return np.cumsum(cross, axis=0, out=cross), latent


def _whitened(model: GpModel, points: np.ndarray) -> np.ndarray:
    """V = L^-1 K(X, points) for ``model``'s factor L."""
    return solve_lower(model.chol_factor,
                       kernel_matrix(model.kernel, model.train_inputs, points))


def _prior_diag(spec: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """k(x, x) for each row of ``xs``."""
    if spec.kind == LINEAR:
        return spec.bias + spec.weight * np.sum(xs * xs, axis=1)
    return np.full(xs.shape[0], spec.amplitude)


class PoolPredictions:
    """A fitted GP's latent means and variances over a fixed point set, kept current.

    Holds the rows of V = L^-1 K(X, P) for the training inputs X and the m
    points P, and z = L^-1 y. :meth:`append` conditions on point j with
    label y: with l = V[:, j] (column j needs no solve) the new factor row
    is [l', d], pivot d = sqrt(k(p_j, p_j) + sigma^2 - l'l), and the new
    rows of V and z are (k(p_j, P) - l'V) / d and (y - l'z) / d. Means grow
    by the V row times the z entry and latent variances shrink by its
    square: O(nm) per label. Where the pivot is not a positive finite
    number a plain Cholesky of the grown matrix would fail; this raises
    instead of adding jitter.
    """

    def __init__(self, model: GpModel, points, means, latent, capacity: int):
        """Start from ``model``'s predictions over ``points``.

        ``means`` and ``latent`` are ``gp_predict_batch(model, points,
        include_noise=False)``; ``capacity`` bounds the training points,
        appended ones included.
        """
        points = _points(points)
        n = model.n_train
        self._kernel = model.kernel
        self._noise_variance = model.noise_variance
        self._points = points
        self.means = np.array(means, dtype=float)
        self.latent = np.array(latent, dtype=float)
        self._n = n
        self._prior = _prior_diag(model.kernel, points)
        self._rows = np.empty((capacity, points.shape[0]))
        self._z = np.empty(capacity)
        self._rows[:n] = _whitened(model, points)
        self._z[:n] = model.whitened_outputs

    def append(self, index: int, y: float) -> None:
        """Condition on the label ``y`` observed at ``points[index]``."""
        y = float(y)
        if not math.isfinite(y):
            raise ValueError(f"GP append: label {y} at point {index} is not finite")
        n = self._n
        rows, z = self._rows[:n], self._z[:n]
        l_col = rows[:, index]
        pivot_sq = float(self._prior[index] + self._noise_variance - l_col @ l_col)
        if not (np.isfinite(pivot_sq) and pivot_sq > 0.0):
            raise NumericalError(
                f"GP append: K + sigma^2 I is not positive definite with training point {n} "
                f"added (pivot^2 = {pivot_sq:g})"
            )
        pivot = math.sqrt(pivot_sq)
        k_row = kernel_matrix(self._kernel, self._points[index:index + 1], self._points)[0]
        row = self._rows[n] = (k_row - l_col @ rows) / pivot
        z_new = self._z[n] = (y - float(l_col @ z)) / pivot
        self.means += row * z_new
        self.latent -= row * row
        self._n = n + 1

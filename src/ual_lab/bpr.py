"""Bayesian polynomial regression with a conjugate Gaussian prior.

Monomial features phi(x, p) = [1, x, ..., x^p] are used raw (no orthogonal
basis): the closed-form MSE machinery in :mod:`ual_lab.analysis` is stated
in this basis and must match it coordinate for coordinate. The noise
variance is known and never estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import chol_spd, chol_solve_vec

__all__ = [
    "BprPrior",
    "BprPosterior",
    "design_matrix",
    "posterior_update",
    "prefix_posteriors",
    "predictive_batch",
    "default_prior",
]


def design_matrix(xs, degree: int) -> np.ndarray:
    """Rows of phi(x_i, p) for inputs (n,), (n, 1) or one x; shape (n, p+1).

    Polynomial models are univariate: any other shape of input raises.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim > 1 and xs.shape[1:] != (1,):
        raise ValueError(f"polynomial models are univariate; got inputs of shape {xs.shape}")
    return np.vander(xs.reshape(-1), degree + 1, increasing=True)


@dataclass(frozen=True)
class BprPrior:
    """Gaussian coefficient prior N(mean, cov) with known noise variance.

    ``precision``, the symmetrized inverse of ``cov``, is derived on construction.
    """

    degree: int
    mean: np.ndarray
    cov: np.ndarray
    noise_variance: float
    precision: np.ndarray = field(init=False, compare=False, repr=False)

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
        lower = chol_spd(cov)  # NumericalError for a non-PD covariance
        if self.noise_variance <= 0:
            raise ValueError("noise_variance must be > 0")
        precision = chol_solve_vec(lower, np.eye(k))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "precision", 0.5 * (precision + precision.T))


@dataclass(frozen=True)
class BprPosterior:
    """Gaussian coefficient posterior N(mean, cov) with known noise variance."""

    degree: int
    mean: np.ndarray
    cov: np.ndarray
    noise_variance: float


def default_prior(degree: int, noise_variance: float = 1.0) -> BprPrior:
    """The experiment default: mean 0, identity covariance."""
    k = degree + 1
    return BprPrior(degree, np.zeros(k), np.eye(k), noise_variance)


def _precision_factor(prior: BprPrior, phi: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the posterior precision for designs (..., n, k)."""
    return chol_spd(prior.precision + phi.mT @ phi / prior.noise_variance)


def posterior_update(prior: BprPrior, xs, ys) -> BprPosterior:
    """Conjugate update on observations (xs, ys).

    posterior precision = prior precision + Phi^T Phi / sigma^2
    posterior mean      = cov @ (prior precision @ prior mean + Phi^T y / sigma^2)

    Solved via Cholesky of the posterior precision and symmetrized; the
    precision matrix is never inverted naively.
    """
    phi = design_matrix(xs, prior.degree)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != (len(phi),):
        raise ValueError(f"ys of shape {ys.shape} do not match the {len(phi)} inputs")
    if ys.size == 0:
        return BprPosterior(prior.degree, prior.mean.copy(), prior.cov.copy(),
                            prior.noise_variance)
    lower = _precision_factor(prior, phi)
    cov = chol_solve_vec(lower, np.eye(prior.degree + 1))
    cov = 0.5 * (cov + cov.T)
    rhs = prior.precision @ prior.mean + (phi.T @ ys) / prior.noise_variance
    mean = chol_solve_vec(lower, rhs)
    return BprPosterior(prior.degree, mean, cov, prior.noise_variance)


def prefix_posteriors(prior: BprPrior, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means (n, k) and covariances (n, k, k) of every prefix of (xs, ys).

    Row t is the :func:`posterior_update` on the first t + 1 observations.
    Its precision and right-hand side are running sums of phi phi^T and
    phi y (Bishop 2006, PRML 3.3), so one cumulative sum and one stacked
    solve of [I | rhs] give every prefix. A non-finite label raises
    ``ValueError``, as the Cholesky solve does there.
    """
    phi = design_matrix(xs, prior.degree)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != (len(phi),):
        raise ValueError(f"ys of shape {ys.shape} do not match the {len(phi)} inputs")
    if not np.isfinite(ys).all():
        raise ValueError(f"label {ys[~np.isfinite(ys)][0]} is not finite")
    n, k = phi.shape
    nv = prior.noise_variance
    precisions = prior.precision + np.cumsum(phi[:, :, None] * phi[:, None, :], axis=0) / nv
    rhs = prior.precision @ prior.mean + np.cumsum(phi * ys[:, None], axis=0) / nv
    both = np.linalg.solve(precisions, np.concatenate(
        [np.broadcast_to(np.eye(k), (n, k, k)), rhs[:, :, None]], axis=2))
    covs = both[:, :, :k]
    return both[:, :, k], 0.5 * (covs + covs.transpose(0, 2, 1))


def predictive_batch(post: BprPosterior, xs) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances over many inputs; variances include the noise floor."""
    phi = design_matrix(xs, post.degree)
    means = phi @ post.mean
    variances = post.noise_variance + np.einsum("ij,jk,ik->i", phi, post.cov, phi)
    return means, variances

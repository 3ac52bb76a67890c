"""Closed-form MSE of Bayesian polynomial regression under a random target.

The target family is an l-th order polynomial with coefficients drawn from
N(mean, cov) and known noise variance: the same four fields as a model
prior, so a family is a :class:`~ual_lab.bpr.BprPrior` of degree l. The
predictor is a degree-p conjugate Bayesian polynomial regressor with its
own prior. The model is matched when its prior equals the family, and
lower-order when its prior is the family's head block (the coordinates of
1..x^p).

Every closed form is evaluated on a grid ``xs`` for one set of training
inputs: it builds the designs and the posterior covariance once, then
evaluates the per-x expression at each grid point. The expected squared
error of the posterior-mean prediction (plus the posterior spread) has a
nine-term closed form, which collapses to twice the predictive quadratic
form when the model is matched, and to a six-term block expression when it
is lower-order. Each identity is kept term-by-term, unsimplified: the
tests' job is to confirm the algebra against a Monte-Carlo oracle, so no
terms are merged ahead of time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bpr import BprPosterior, BprPrior, design_matrix, feature_map
from .errors import TruncationError
from .linalg import chol_spd, chol_solve_vec, spd_inverse

__all__ = [
    "DecompositionReport",
    "BiasBoundReport",
    "closed_form_mse",
    "closed_form_mse_terms",
    "matched_mse",
    "lower_order_mse",
    "mc_bias_variance",
    "fixed_target_concentration",
    "variance_proxy_gap",
    "bias_bound_check",
]

_MC_BATCHES = 10          # batches behind the Monte-Carlo standard error
_RATIO_GRID_POINTS = 20001  # grid for the density-ratio supremum
_MASS_TOL = 1e-6          # probability mass allowed outside the truncated domain


def _posterior_cov(prior: BprPrior, phi_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(posterior covariance, prior precision) given a design matrix."""
    prior_precision = spd_inverse(prior.cov)
    precision = prior_precision + (phi_hat.T @ phi_hat) / prior.noise_variance
    cov = chol_solve_vec(chol_spd(precision), np.eye(prior.degree + 1))
    return 0.5 * (cov + cov.T), prior_precision


def _check_noise(family: BprPrior, prior: BprPrior) -> None:
    if not math.isclose(family.noise_variance, prior.noise_variance,
                        rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("family and prior must share one noise variance")


def _grid(xs) -> np.ndarray:
    return np.asarray(xs, dtype=float).reshape(-1)


def _quadratic_forms(xs, degree: int, cov: np.ndarray) -> np.ndarray:
    """phi(x, degree)^T cov phi(x, degree) at each x."""
    return np.array([phi @ cov @ phi for phi in (feature_map(x, degree) for x in _grid(xs))])


def closed_form_mse_terms(xs, family: BprPrior, prior: BprPrior, inputs) -> np.ndarray:
    """The nine summands of the expected MSE at each x, in derivation order.

    Returns a (len(xs), 9) array for training inputs ``inputs``.
    """
    _check_noise(family, prior)
    phi_full = design_matrix(inputs, family.degree)
    phi_hat = design_matrix(inputs, prior.degree)

    sig2 = prior.noise_variance
    mu, sigma = family.mean, family.cov
    mu_hat = prior.mean
    post_cov, prior_precision = _posterior_cov(prior, phi_hat)

    second_moment = np.outer(mu, mu) + sigma            # E[w w^T]
    shrink = prior_precision @ mu_hat                    # Sigma_hat^{-1} mu_hat
    a_vec = post_cov @ shrink                            # Sigma_p Sigma_hat^{-1} mu_hat
    cross = phi_hat.T @ phi_full                         # Phi_hat^T Phi
    gram = phi_hat.T @ phi_hat                           # Phi_hat^T Phi_hat

    xs = _grid(xs)
    terms = np.empty((xs.size, 9))
    for t, x in zip(terms, xs):
        phi_l = feature_map(x, family.degree)
        phi_p = feature_map(x, prior.degree)
        sp_phi = post_cov @ phi_p                        # Sigma_p phi^p
        b_vec = cross.T @ sp_phi                         # Phi^T Phi_hat Sigma_p phi^p
        t[0] = phi_l @ second_moment @ phi_l
        t[1] = -2.0 * (phi_p @ a_vec) * (mu @ phi_l)
        t[2] = -(2.0 / sig2) * (sp_phi @ cross @ second_moment @ phi_l)
        t[3] = (phi_p @ a_vec) ** 2
        t[4] = (1.0 / sig2) * (phi_p @ a_vec) * (mu @ b_vec)
        t[5] = (1.0 / sig2) * (b_vec @ mu) * (shrink @ sp_phi)
        t[6] = (1.0 / sig2**2) * (b_vec @ second_moment @ b_vec)
        t[7] = (1.0 / sig2) * (sp_phi @ gram @ sp_phi)
        t[8] = phi_p @ sp_phi
    return terms


def closed_form_mse(xs, family: BprPrior, prior: BprPrior, inputs) -> np.ndarray:
    """Expected MSE at each x: the sum of the nine closed-form terms."""
    return closed_form_mse_terms(xs, family, prior, inputs).sum(axis=1)


def matched_mse(xs, post: BprPosterior) -> np.ndarray:
    """2 * phi^T Sigma_p phi at each x: the matched-model MSE, twice the spread."""
    return 2.0 * _quadratic_forms(xs, post.degree, post.cov)


def lower_order_mse(xs, family: BprPrior, prior: BprPrior, inputs
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Six-term lower-order MSE at each x: (total, polynomial remainder, spread).

    The family is split at the model degree p into head blocks (1..x^p)
    and complement blocks (x^(p+1)..x^l). Valid under the block
    assumptions: the prior must equal the family's head blocks.
    total = remainder + 2 * spread.
    """
    p, l = prior.degree, family.degree
    if p > l:
        raise ValueError("prior degree must not exceed the family's order")
    _check_noise(family, prior)
    if not np.allclose(prior.mean, family.mean[: p + 1], atol=1e-12):
        raise ValueError("prior mean must equal the family's head mean block")
    if not np.allclose(prior.cov, family.cov[: p + 1, : p + 1], atol=1e-12):
        raise ValueError("prior cov must equal the family's head covariance block")

    sig2 = prior.noise_variance
    phi_full = design_matrix(inputs, l)
    phi_c, phi_hat = phi_full[:, p + 1:], phi_full[:, : p + 1]
    mean_c = family.mean[p + 1:]
    cov_cross = family.cov[p + 1:, : p + 1]              # complement x head
    m_second = family.cov[p + 1:, p + 1:] + np.outer(mean_c, mean_c)

    post_cov, prior_precision = _posterior_cov(prior, phi_hat)
    head_to_c = phi_hat.T @ phi_c                        # Phi_hat^T Phi_c

    xs = _grid(xs)
    out = np.empty((3, xs.size))
    for i, x in enumerate(xs):
        c_phi = np.power(float(x), np.arange(p + 1, l + 1))  # [x^(p+1), ..., x^l]
        q_phi = feature_map(x, p)
        sp_q = post_cov @ q_phi
        t1 = float(c_phi @ m_second @ c_phi)
        t2 = -(2.0 / sig2) * float(sp_q @ head_to_c @ m_second @ c_phi)
        t3 = 2.0 * float(q_phi @ post_cov @ prior_precision @ cov_cross.T @ c_phi)
        t4 = (1.0 / sig2**2) * float(sp_q @ head_to_c @ m_second @ head_to_c.T @ sp_q)
        t5 = -(2.0 / sig2) * float(sp_q @ head_to_c @ cov_cross @ prior_precision @ sp_q)
        var_term = float(q_phi @ sp_q)
        p_term = t1 + t2 + t3 + t4 + t5
        out[:, i] = p_term + 2.0 * var_term, p_term, var_term
    return out[0], out[1], out[2]


def variance_proxy_gap(xs, family: BprPrior, prior: BprPrior, inputs) -> np.ndarray:
    """|closed-form MSE - 2 * posterior quadratic form| at each x.

    Zero (to rounding) exactly when the model matches the family; strictly
    positive at generic x for lower-order models.
    """
    mse = closed_form_mse(xs, family, prior, inputs)
    post_cov, _ = _posterior_cov(prior, design_matrix(inputs, prior.degree))
    return np.abs(mse - 2.0 * _quadratic_forms(xs, prior.degree, post_cov))


@dataclass(frozen=True)
class DecompositionReport:
    """Pointwise Monte-Carlo MSE split into squared deviation and posterior spread."""

    mse: float
    bias: float
    variance: float
    bias_standard_error: float


def _affine_predictor(x: float, prior: BprPrior, inputs) -> tuple[float, float, np.ndarray]:
    """(spread, base, v) at x: the posterior-mean prediction is base + v . y.

    The prediction is affine in the training outputs y, so one posterior
    on the inputs serves every draw of y.
    """
    phi_hat = design_matrix(inputs, prior.degree)
    phi_p = feature_map(x, prior.degree)
    post_cov, prior_precision = _posterior_cov(prior, phi_hat)
    spread = float(phi_p @ post_cov @ phi_p)
    base = float(phi_p @ post_cov @ prior_precision @ prior.mean)
    v = (phi_hat @ (post_cov @ phi_p)) / prior.noise_variance
    return spread, base, v


def mc_bias_variance(
    x: float,
    family: BprPrior,
    prior: BprPrior,
    inputs,
    n_mc: int,
    rng: np.random.Generator,
) -> DecompositionReport:
    """Monte-Carlo oracle for the closed-form MSE at x on training inputs ``inputs``.

    Each replicate draws a target from the family and noisy outputs on the
    inputs, forms the conjugate posterior, and records the squared
    deviation of the posterior-mean prediction from the target's value at
    x. The spread term is exact (it depends only on the inputs); the
    deviation term is averaged, with a standard error from batching.
    """
    if n_mc < 1000:
        raise ValueError("need at least 1e3 Monte-Carlo samples")
    inputs = np.asarray(inputs, dtype=float).reshape(-1)
    variance, base, v = _affine_predictor(x, prior, inputs)
    phi_full = design_matrix(inputs, family.degree)
    phi_l = feature_map(x, family.degree)
    family_chol = np.linalg.cholesky(family.cov)
    sigma = math.sqrt(family.noise_variance)

    batch_means = np.empty(_MC_BATCHES)
    per_batch = n_mc // _MC_BATCHES
    for b in range(_MC_BATCHES):
        size = per_batch if b < _MC_BATCHES - 1 else n_mc - per_batch * (_MC_BATCHES - 1)
        w = family.mean + rng.standard_normal((size, family.degree + 1)) @ family_chol.T
        y = w @ phi_full.T + sigma * rng.standard_normal((size, inputs.size))
        batch_means[b] = np.mean((w @ phi_l - (base + y @ v)) ** 2)
    bias = float(batch_means.mean())
    se = float(batch_means.std(ddof=1) / math.sqrt(_MC_BATCHES))
    return DecompositionReport(bias + variance, bias, variance, se)


def fixed_target_concentration(
    x: float,
    coefficients,
    prior: BprPrior,
    inputs,
    n_rep: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Frequentist squared bias and posterior spread for one fixed target.

    Averages the posterior-mean prediction over ``n_rep`` noisy dataset
    draws from a single target before squaring the deviation, so the
    systematic offset is separated from dataset-to-dataset noise. Under a
    concentrating posterior this squared bias decays ~1/n^2 while the
    spread decays ~1/n.
    """
    coefficients = np.asarray(coefficients, dtype=float).reshape(-1)
    inputs = np.asarray(inputs, dtype=float).reshape(-1)
    order = coefficients.size - 1
    variance, base, v = _affine_predictor(x, prior, inputs)

    clean = design_matrix(inputs, order) @ coefficients
    sigma = math.sqrt(prior.noise_variance)
    y = clean + sigma * rng.standard_normal((n_rep, inputs.size))
    preds = base + y @ v
    f_x = float(feature_map(x, order) @ coefficients)
    bias_sq = float((preds.mean() - f_x) ** 2)
    return bias_sq, variance


@dataclass(frozen=True)
class BiasBoundReport:
    """Outcome of the density-ratio bias bound check."""

    abs_moment: float      # C = E[|Y|] under the reference density
    epsilon: float         # sup over the truncated domain of |ratio - 1|
    bias_sq: float         # (mean difference)^2
    bound: float           # epsilon^2 * C^2
    holds: bool


def _normal_mass(mean: float, var: float, trunc: float) -> float:
    s = math.sqrt(var)
    upper = 0.5 * (1.0 + math.erf((trunc - mean) / (s * math.sqrt(2.0))))
    lower = 0.5 * (1.0 + math.erf((-trunc - mean) / (s * math.sqrt(2.0))))
    return upper - lower


def _folded_mean(mean: float, var: float) -> float:
    s = math.sqrt(var)
    return s * math.sqrt(2.0 / math.pi) * math.exp(-mean * mean / (2.0 * var)) + mean * math.erf(
        mean / (s * math.sqrt(2.0))
    )


def bias_bound_check(
    approx_mean: float,
    approx_var: float,
    ref_mean: float,
    ref_var: float,
    trunc: float,
) -> BiasBoundReport:
    """Check (mean gap)^2 <= eps^2 C^2 for two Gaussian densities.

    eps is the supremum of |approx/ref - 1| over [-trunc, trunc] on a dense
    grid; the global supremum is infinite whenever the variances differ,
    so the domain must be truncated. Both densities must leave at most
    1e-6 of their probability outside the truncated domain, otherwise the
    check is meaningless and a TruncationError is raised.
    """
    if approx_var <= 0 or ref_var <= 0:
        raise ValueError("variances must be > 0")
    if trunc <= 0:
        raise ValueError("trunc must be > 0")
    for mean, var, label in ((approx_mean, approx_var, "approx"), (ref_mean, ref_var, "ref")):
        mass = _normal_mass(mean, var, trunc)
        if mass < 1.0 - _MASS_TOL:
            raise TruncationError(
                f"{label} density keeps only {mass:.8f} of its mass in "
                f"[-{trunc}, {trunc}]; enlarge the truncation"
            )
    ys = np.linspace(-trunc, trunc, _RATIO_GRID_POINTS)
    log_ratio = (
        -0.5 * ((ys - approx_mean) ** 2 / approx_var - (ys - ref_mean) ** 2 / ref_var)
        - 0.5 * math.log(approx_var / ref_var)
    )
    epsilon = float(np.max(np.abs(np.exp(log_ratio) - 1.0)))
    abs_moment = _folded_mean(ref_mean, ref_var)
    bias_sq = (approx_mean - ref_mean) ** 2
    bound = epsilon**2 * abs_moment**2
    return BiasBoundReport(abs_moment, epsilon, bias_sq, bound, bias_sq <= bound)

"""Candidate scoring strategies and argmax selection.

Four strategies: predictive-variance, uniform random, squared discrepancy
against a surrogate GP fit on the labeled data, and a high-probability
error upper bound (GP credible width plus a Lipschitz fill-distance term).
Ties always break to the lowest candidate index so selections are
reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .gpr import GpModel, KernelSpec, gp_predict_batch
from .synthetic import UnlabeledPool

__all__ = [
    "VARIANCE",
    "RANDOM",
    "DIRECT_MSE",
    "UPPER_BOUND",
    "StrategySpec",
    "score_variance",
    "score_random",
    "score_direct_mse",
    "score_upper_bound",
    "select",
    "default_surrogate_kernel",
]

VARIANCE = "variance"
RANDOM = "random"
DIRECT_MSE = "direct_mse"
UPPER_BOUND = "upper_bound"

STRATEGY_KINDS = (VARIANCE, RANDOM, DIRECT_MSE, UPPER_BOUND)


def default_surrogate_kernel() -> KernelSpec:
    # lengthscale 0.5 resolves one-cycle-per-unit wiggles on [-2, 2]
    return KernelSpec("rbf", amplitude=1.0, lengthscale=0.5)


@dataclass(frozen=True)
class StrategySpec:
    """Which strategy to run, plus its strategy-specific knobs.

    ``gradient_bound`` may be the string "auto", resolved per target by the
    experiment runner before the run starts.
    """

    kind: str
    surrogate_kernel: Optional[KernelSpec] = None
    gradient_bound: float | str | None = None
    confidence: float = 0.05

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind in (DIRECT_MSE, UPPER_BOUND) and self.surrogate_kernel is None:
            object.__setattr__(self, "surrogate_kernel", default_surrogate_kernel())
        if self.kind == UPPER_BOUND:
            if self.gradient_bound is None:
                raise ValueError("upper_bound strategy needs a gradient_bound")
            if isinstance(self.gradient_bound, str):
                if self.gradient_bound != "auto":
                    raise ValueError("gradient_bound must be a positive number or 'auto'")
            elif self.gradient_bound <= 0:
                raise ValueError("gradient_bound must be > 0")
            if not 0.0 < self.confidence < 1.0:
                raise ValueError("confidence must lie in (0, 1)")


def score_variance(model, xs) -> np.ndarray:
    """Predictive variance at each candidate (noise floor included)."""
    _, variances = model.predict_batch(np.atleast_2d(np.asarray(xs, dtype=float)))
    return variances


def score_random(rng: np.random.Generator, pool: UnlabeledPool) -> int:
    """Uniform draw over the active candidates."""
    active = pool.active_indices()
    if active.size == 0:
        raise ValueError("no active candidates to choose from")
    return int(active[rng.integers(active.size)])


def score_direct_mse(surrogate: GpModel, model, xs) -> np.ndarray:
    """(surrogate mean - predictor mean)^2 at each candidate."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    g_means, _ = gp_predict_batch(surrogate, xs, include_noise=False)
    f_means, _ = model.predict_batch(xs)
    return (g_means - f_means) ** 2


def score_upper_bound(
    surrogate: GpModel,
    model,
    xs,
    labeled_inputs,
    gradient_bound: float,
    confidence: float,
    pool_size: int,
) -> np.ndarray:
    """( B(x) + |surrogate mean - predictor mean| )^2 + sigma^2.

    B(x) = sqrt(2 ln(N/delta)) * surrogate latent std + L_f * d_min(x),
    where d_min is the distance from x to the nearest labeled input. The
    first term is a high-probability GP credible width, the second covers
    what a gradient-bounded function can do between observations.
    """
    if gradient_bound is None or (isinstance(gradient_bound, str)):
        raise ValueError("gradient_bound must be resolved to a number before scoring")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    labeled_inputs = np.atleast_2d(np.asarray(labeled_inputs, dtype=float))
    g_means, g_latent_var = gp_predict_batch(surrogate, xs, include_noise=False)
    f_means, _ = model.predict_batch(xs)
    beta = 2.0 * math.log(pool_size / confidence)
    width = math.sqrt(beta) * np.sqrt(np.clip(g_latent_var, 0.0, None))
    d_min = cdist(xs, labeled_inputs).min(axis=1)
    bound = width + gradient_bound * d_min
    return (bound + np.abs(g_means - f_means)) ** 2 + surrogate.noise_variance


def select(pool: UnlabeledPool, scores) -> int:
    """Argmax over active candidates; ties break to the lowest index."""
    active = pool.active_indices()
    scores = np.asarray(scores, dtype=float)
    if active.size == 0:
        raise ValueError("no active candidates to select from")
    if scores.shape != (active.size,):
        raise ValueError(
            f"scores must align with the {active.size} active candidates, "
            f"got shape {scores.shape}"
        )
    return int(active[int(np.argmax(scores))])

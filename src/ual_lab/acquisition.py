"""Candidate scoring strategies and argmax selection.

Four strategies: predictive-variance, uniform random, squared discrepancy
against a surrogate GP fit on the labeled data, and a high-probability
error upper bound (GP credible width plus a Lipschitz fill-distance term).
The three model-based scores predict through the fitted learner's
``predict_batch``, which converts the candidate array itself.
The two surrogate scores take the surrogate's means, latent variances and
nearest-labeled distances at the candidates, which the run loop keeps
current, so scoring does no kernel, solve or distance work over the
labeled set.
Selection works on the indices of the still-unlabeled pool candidates.
Ties always break to the lowest candidate index so selections are
reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# gp_predict_batch is bound here for bench/layertrace.py, which patches it at this name.
from .gpr import KernelSpec, gp_predict_batch  # noqa: F401

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
    _, variances = model.predict_batch(xs)
    return variances


def score_random(rng: np.random.Generator, active) -> int:
    """Uniform draw over the active candidate indices."""
    active = np.asarray(active)
    if active.size == 0:
        raise ValueError("no active candidates to choose from")
    return int(active[rng.integers(active.size)])


def score_direct_mse(model, xs, surrogate_means) -> np.ndarray:
    """(surrogate mean - predictor mean)^2 at each candidate; no surrogate variance."""
    f_means, _ = model.predict_batch(xs)
    return (surrogate_means - f_means) ** 2


def score_upper_bound(
    model,
    xs,
    surrogate_means,
    surrogate_latent,
    d_min,
    gradient_bound: float,
    confidence: float,
    pool_size: int,
) -> np.ndarray:
    """( B(x) + |surrogate mean - predictor mean| )^2 + sigma^2.

    B(x) = sqrt(2 ln(N/delta)) * surrogate latent std + L_f * d_min(x),
    where d_min is the distance from x to the nearest labeled input. The
    first term is a high-probability GP credible width, the second covers
    what a gradient-bounded function can do between observations. sigma^2
    is the model's noise variance, which the surrogate shares.
    """
    if gradient_bound is None or (isinstance(gradient_bound, str)):
        raise ValueError("gradient_bound must be resolved to a number before scoring")
    f_means, _ = model.predict_batch(xs)
    beta = 2.0 * math.log(pool_size / confidence)
    width = math.sqrt(beta) * np.sqrt(np.clip(surrogate_latent, 0.0, None))
    bound = width + gradient_bound * d_min
    return (bound + np.abs(surrogate_means - f_means)) ** 2 + model.noise_variance


def select(active, scores) -> int:
    """The active candidate index with the highest score; ties break to the lowest.

    ``scores[i]`` scores candidate ``active[i]``; ``active`` is ascending.
    """
    active = np.asarray(active)
    scores = np.asarray(scores, dtype=float)
    if active.size == 0:
        raise ValueError("no active candidates to select from")
    if scores.shape != (active.size,):
        raise ValueError(
            f"scores must align with the {active.size} active candidates, "
            f"got shape {scores.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    return int(active[int(np.argmax(scores))])

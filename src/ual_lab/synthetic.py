"""Synthetic targets, candidate pools, and holdout test sets.

Ground truth functions are univariate polynomials with standard-normal
coefficients, optionally plus a cosine component, observed under additive
Gaussian noise: y = f(x) + eps, eps ~ N(0, sigma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "PURE_POLYNOMIAL",
    "POLYNOMIAL_PLUS_COSINE",
    "GroundTruthTarget",
    "TestSet",
    "sample_target",
    "eval_target",
    "build_pool",
    "build_test_set",
    "gradient_bound",
]

PURE_POLYNOMIAL = "pure-polynomial"
POLYNOMIAL_PLUS_COSINE = "polynomial-plus-cosine"


@dataclass(frozen=True)
class GroundTruthTarget:
    """A target function: polynomial coefficients plus optional cosine term.

    ``coefficients[i]`` multiplies x**i; ``cosine_frequency`` is in cycles
    per unit x, so the cosine component is amplitude * cos(2*pi*freq*x).
    """

    coefficients: np.ndarray
    cosine_amplitude: float = 0.0
    cosine_frequency: float = 1.0
    noise_variance: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")


@dataclass(frozen=True)
class TestSet:
    """Holdout inputs with observed and (when available) noiseless outputs."""

    inputs: np.ndarray                     # (n, d)
    observed_outputs: np.ndarray           # (n,)
    clean_outputs: Optional[np.ndarray] = None  # (n,) or None for real data

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        observed = np.asarray(self.observed_outputs, dtype=float)
        if inputs.shape[0] != observed.shape[0]:
            raise ValueError("inputs and observed_outputs must have equal length")
        clean = self.clean_outputs
        if clean is not None:
            clean = np.asarray(clean, dtype=float)
            if clean.shape[0] != inputs.shape[0]:
                raise ValueError("clean_outputs length mismatch")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "observed_outputs", observed)
        object.__setattr__(self, "clean_outputs", clean)


def sample_target(
    order: int,
    rng: np.random.Generator,
    kind: str = PURE_POLYNOMIAL,
    noise_variance: float = 1.0,
    cosine_amplitude: float = 1.0,
    cosine_frequency: float = 1.0,
) -> GroundTruthTarget:
    """Draw a target with coefficients ~ N(0, I).

    For the polynomial-plus-cosine kind the cosine defaults to amplitude 1
    at one cycle per unit x, i.e. cos(2*pi*x).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if kind not in (PURE_POLYNOMIAL, POLYNOMIAL_PLUS_COSINE):
        raise ValueError(f"unknown target kind {kind!r}")
    coeffs = rng.standard_normal(order + 1)
    if kind == PURE_POLYNOMIAL:
        return GroundTruthTarget(coeffs, noise_variance=noise_variance)
    return GroundTruthTarget(coeffs, cosine_amplitude, cosine_frequency, noise_variance)


def eval_target(target: GroundTruthTarget, x) -> np.ndarray | float:
    """Noiseless f(x); accepts a scalar or an array of inputs."""
    x_arr = np.asarray(x, dtype=float)
    value = np.polyval(target.coefficients[::-1], x_arr)
    if target.cosine_amplitude != 0.0:
        value = value + target.cosine_amplitude * np.cos(
            2.0 * math.pi * target.cosine_frequency * x_arr
        )
    return float(value) if np.isscalar(x) or x_arr.ndim == 0 else value


def build_pool(n: int, lo: float, hi: float) -> np.ndarray:
    """(n, 1) evenly spaced candidates on [lo, hi], endpoints included."""
    if n < 2:
        raise ValueError("pool needs at least 2 candidates")
    if not lo < hi:
        raise ValueError("need lo < hi")
    return np.linspace(lo, hi, n)[:, None]


def build_test_set(
    n: int,
    lo: float,
    hi: float,
    target: GroundTruthTarget,
    rng: np.random.Generator,
) -> TestSet:
    """Holdout set with inputs uniform on [lo, hi]."""
    if n < 1:
        raise ValueError("test set needs at least 1 point")
    xs = rng.uniform(lo, hi, n)
    clean = np.asarray(eval_target(target, xs), dtype=float)
    noise = math.sqrt(target.noise_variance) * rng.standard_normal(n)
    return TestSet(xs[:, None], clean + noise, clean)


def gradient_bound(target: GroundTruthTarget, lo: float, hi: float) -> float:
    """Integer upper bound on |f'| over [lo, hi].

    Polynomial part: sum_k k*|w_k|*M^(k-1) with M = max(|lo|, |hi|); cosine
    part: amplitude * 2*pi*frequency. Rounded up to the next integer.
    """
    m = max(abs(lo), abs(hi))
    poly_slope = sum(
        k * abs(w) * m ** (k - 1) for k, w in enumerate(target.coefficients) if k >= 1
    )
    cos_slope = abs(target.cosine_amplitude) * 2.0 * math.pi * target.cosine_frequency
    return float(math.ceil(poly_slope + cos_slope))

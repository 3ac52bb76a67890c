"""Pool-based active learning driver.

One run works on indices into one candidate array and its label array:
fit on the initial candidate, record step 0, then repeatedly score the
still-unlabeled candidates, take the winner's label, refit the learner
from scratch, and record the test error. Learner refits are always on the
full labeled set, so the final model depends only on which points were
acquired, not in what order. The surrogate GP of ``direct_mse`` and
``upper_bound`` is fit once on the initial point and extended by one
Cholesky row per label (:func:`gpr.gp_append`).
Both learners return a :class:`FittedModel`, the one type the loop and
the acquisition scores predict through.

A polynomial posterior N(m, S) has predictive variance
phi(x)^T S phi(x) + sigma^2 (Bishop 2006, PRML 3.3.2), so its mean over
the N test inputs is tr(S G) + sigma^2 with G = Phi^T Phi / N fixed for
the run: a BPR step's test terms cost O(k^2) whatever N is. A GP run
still predicts over the test inputs at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import acquisition as acq
from .bpr import BprPosterior, default_prior, design_matrix, posterior_update, predictive_batch
from .gpr import (
    GpModel,
    KernelSpec,
    fit_lengthscale_grid,
    gp_append,
    gp_fit,
    gp_predict_batch,
)
from .rng import derive_rng
from .synthetic import GroundTruthTarget, TestSet, eval_target

__all__ = [
    "RunTrace",
    "SyntheticOracle",
    "FittedModel",
    "BprLearner",
    "GprLearner",
    "run_al",
]


@dataclass(frozen=True)
class RunTrace:
    """Per-step arrays of one run; row or entry ``k`` belongs to step ``k``.

    ``chosen_x`` has one row per acquisition (step 0 acquires nothing).
    ``bias`` and ``variance`` split ``test_mse`` against noiseless targets,
    and are None for a test set without them.
    """

    chosen_x: np.ndarray              # (budget, d)
    test_mse: np.ndarray              # (budget + 1,)
    bias: Optional[np.ndarray]        # (budget + 1,) or None
    variance: Optional[np.ndarray]    # (budget + 1,) or None


class SyntheticOracle:
    """Labels y = f(x) + eps with noise attached to the candidate.

    Each candidate's noise comes from its own counter-based stream, so a
    candidate's label is a pure function of (seed, index): whichever
    strategy queries it, in whatever order, sees the same value.
    """

    def __init__(self, target: GroundTruthTarget, master_seed: int, path: tuple[int, ...] = ()):
        self.target = target
        self._master_seed = master_seed
        self._path = tuple(path)
        self._sigma = float(np.sqrt(target.noise_variance))

    def label(self, index: int, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.size != 1:
            raise ValueError(f"a synthetic target is univariate; got x of shape {x.shape}")
        clean = eval_target(self.target, x.item())
        eps = derive_rng(self._master_seed, *self._path, index).standard_normal()
        return float(clean + self._sigma * eps)


@dataclass(frozen=True)
class FittedModel:
    """A fitted polynomial posterior or GP behind one prediction interface.

    Predictive variances include the noise floor, so variance scores of the
    two model kinds sit on the same scale.
    """

    posterior: BprPosterior | GpModel

    @property
    def noise_variance(self) -> float:
        return self.posterior.noise_variance

    def predict_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if isinstance(self.posterior, GpModel):
            return gp_predict_batch(self.posterior, xs, include_noise=True)
        if xs.shape[1] != 1:
            raise ValueError("polynomial models are univariate")
        return predictive_batch(self.posterior, xs[:, 0])


class BprLearner:
    """Refits a conjugate polynomial posterior (default prior) from scratch on each call."""

    def __init__(self, degree: int, noise_variance: float):
        self.prior = default_prior(degree, noise_variance)

    def fit(self, xs: np.ndarray, ys: np.ndarray) -> FittedModel:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.shape[1] != 1:
            raise ValueError("polynomial models are univariate")
        return FittedModel(posterior_update(self.prior, xs[:, 0], ys))


class GprLearner:
    """Refits a GP from scratch each call.

    With ``lengthscale_grid`` the first fit of the run picks the
    lengthscale by marginal likelihood, and every later fit keeps it.
    """

    def __init__(self, kernel: KernelSpec, noise_variance: float,
                 lengthscale_grid: bool = False):
        self.kernel = kernel
        self.noise_variance = noise_variance
        self.lengthscale_grid = lengthscale_grid

    def fit(self, xs: np.ndarray, ys: np.ndarray) -> FittedModel:
        if self.lengthscale_grid:
            model = fit_lengthscale_grid(self.kernel, xs, ys, self.noise_variance)
            self.kernel, self.lengthscale_grid = model.kernel, False
            return FittedModel(model)
        return FittedModel(gp_fit(self.kernel, xs, ys, self.noise_variance))


def run_al(
    learner,
    strategy: acq.StrategySpec,
    candidates: np.ndarray,
    labels: np.ndarray,
    init_index: int,
    test: TestSet,
    budget: int,
    rng: np.random.Generator,
) -> RunTrace:
    """Run ``budget`` acquisitions from ``candidates[init_index]`` and return the trace.

    ``candidates`` is the (n, d) pool and ``labels`` its (n,) outputs;
    every labeled point, the initial one included, is one of its rows.
    Step 0 records the model fit on the initial point alone. Each step
    records the test MSE split into bias and variance against the
    noiseless targets when the test set has them (synthetic targets), and
    the MSE against the observed targets otherwise (real datasets). The rng
    is consumed only by the random strategy, so selection and model are
    fully decoupled for the baselines.
    """
    n = candidates.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels of shape {labels.shape} do not match the {n} candidates")
    if not 0 <= init_index < n:
        raise ValueError(f"init_index {init_index} is not one of the {n} candidates")
    if budget > n - 1:
        raise ValueError(f"budget {budget} exceeds the {n - 1} candidates left "
                         "after the initial one")
    if isinstance(strategy.gradient_bound, str):
        raise ValueError("gradient_bound must be resolved to a number before running")

    labeled = [init_index]
    active = np.ones(n, dtype=bool)
    active[init_index] = False
    model = learner.fit(candidates[labeled], labels[labeled])
    bias_spread = _bias_spread(test, model)
    terms = [bias_spread(model)]
    surrogate = None
    if strategy.kind in (acq.DIRECT_MSE, acq.UPPER_BOUND):
        surrogate = gp_fit(strategy.surrogate_kernel, candidates[labeled], labels[labeled],
                           model.noise_variance)

    for _ in range(budget):
        indices = np.flatnonzero(active)
        if strategy.kind == acq.RANDOM:
            chosen = acq.score_random(rng, indices)
        else:
            xs = candidates[indices]
            if strategy.kind == acq.VARIANCE:
                scores = acq.score_variance(model, xs)
            elif strategy.kind == acq.DIRECT_MSE:
                scores = acq.score_direct_mse(surrogate, model, xs)
            else:
                scores = acq.score_upper_bound(
                    surrogate, model, xs, candidates[labeled],
                    strategy.gradient_bound, strategy.confidence, pool_size=indices.size,
                )
            chosen = acq.select(indices, scores)
        labeled.append(chosen)
        active[chosen] = False
        if surrogate is not None:
            surrogate = gp_append(surrogate, candidates[chosen], labels[chosen])
        model = learner.fit(candidates[labeled], labels[labeled])
        terms.append(bias_spread(model))

    bias, variance = np.array(terms).T
    clean = test.clean_outputs is not None
    return RunTrace(candidates[labeled[1:]], bias + variance,
                    bias if clean else None, variance if clean else None)


def _bias_spread(test: TestSet, model) -> Callable[[object], tuple[float, float]]:
    """The step recorder of a run whose first fitted model is ``model``.

    It maps a fitted model to its test MSE per point split in two:
    (target - predictive mean)^2 and the posterior spread (predictive
    variance minus the noise floor), averaged. The targets are the
    noiseless ones when the test set has them. For a polynomial posterior
    N(m, S) the test design Phi and G = Phi^T Phi / N are built once: the
    bias is mean((targets - Phi m)^2), as :func:`bpr.predictive_batch`
    computes it, and the spread is tr(S G). A GP predicts over the test
    inputs at each step.
    """
    targets = test.observed_outputs if test.clean_outputs is None else test.clean_outputs
    if len(targets) == 0:
        raise ValueError("test set is empty")
    if isinstance(model, FittedModel) and isinstance(model.posterior, BprPosterior):
        if test.inputs.shape[1] != 1:
            raise ValueError("polynomial models are univariate")
        phi = design_matrix(test.inputs[:, 0], model.posterior.degree)
        gram = phi.T @ phi / len(targets)

        def polynomial_terms(model) -> tuple[float, float]:
            post = model.posterior
            return (float(np.mean((targets - phi @ post.mean) ** 2)),
                    float(np.sum(gram * post.cov)))
        return polynomial_terms

    def predicted_terms(model) -> tuple[float, float]:
        means, variances = model.predict_batch(test.inputs)
        return (float(np.mean((targets - means) ** 2)),
                float(np.mean(variances - model.noise_variance)))
    return predicted_terms

"""Pool-based active learning driver.

One run works on indices into one candidate array: label the initial
candidate, fit, record step 0, then repeatedly score the still-unlabeled
candidates, query the winner's label, refit the learner from scratch, and
record the test error. Learner refits are always on the full labeled set,
so the final model depends only on which points were acquired, not in
what order. The surrogate GP of ``direct_mse`` and ``upper_bound`` is fit
once on the initial point and extended by one Cholesky row per label
(:func:`gpr.gp_append`).
Both learners return a :class:`FittedModel`, the one type the loop and
the acquisition scores predict through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from . import acquisition as acq
from .bpr import BprPosterior, default_prior, posterior_update, predictive_batch
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
    "StepRecord",
    "RunTrace",
    "SyntheticOracle",
    "TableOracle",
    "FittedModel",
    "BprLearner",
    "GprLearner",
    "run_al",
]


@dataclass(frozen=True)
class StepRecord:
    step: int
    chosen_x: Optional[np.ndarray]  # None for the pre-acquisition record
    test_mse: float
    bias: Optional[float] = None
    variance: Optional[float] = None


@dataclass(frozen=True)
class RunTrace:
    records: tuple[StepRecord, ...]


class LabelOracle(Protocol):
    def label(self, index: int, x: np.ndarray) -> float: ...


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
        clean = eval_target(self.target, float(np.asarray(x).reshape(-1)[0]))
        eps = derive_rng(self._master_seed, *self._path, index).standard_normal()
        return float(clean + self._sigma * eps)


class TableOracle:
    """Row lookup for real datasets: the label is the stored value."""

    def __init__(self, outputs):
        self._outputs = np.asarray(outputs, dtype=float)

    def label(self, index: int, x: np.ndarray) -> float:
        return float(self._outputs[index])


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
    oracle: LabelOracle,
    candidates: np.ndarray,
    init_index: int,
    test: TestSet,
    budget: int,
    rng: np.random.Generator,
) -> RunTrace:
    """Run ``budget`` acquisitions from ``candidates[init_index]`` and return the trace.

    ``candidates`` is the (n, d) pool; every labeled point, the initial one
    included, is one of its rows, labeled by ``oracle`` on its index. Step 0
    records the model fit on the initial point alone. Each step records the
    test MSE split into bias and variance against the noiseless targets
    when the test set has them (synthetic targets), and the MSE against the
    observed targets otherwise (real datasets). The rng is consumed only by
    the random strategy, so selection and model are fully decoupled for the
    baselines.
    """
    n = candidates.shape[0]
    if not 0 <= init_index < n:
        raise ValueError(f"init_index {init_index} is not one of the {n} candidates")
    if budget > n - 1:
        raise ValueError(f"budget {budget} exceeds the {n - 1} candidates left "
                         "after the initial one")
    if isinstance(strategy.gradient_bound, str):
        raise ValueError("gradient_bound must be resolved to a number before running")

    labeled = [init_index]
    outputs = [oracle.label(init_index, candidates[init_index])]
    active = np.ones(n, dtype=bool)
    active[init_index] = False
    model = learner.fit(candidates[labeled], np.array(outputs))
    records = [_record(0, model, test, None)]
    surrogate = None
    if strategy.kind in (acq.DIRECT_MSE, acq.UPPER_BOUND):
        surrogate = gp_fit(strategy.surrogate_kernel, candidates[labeled], outputs,
                           model.noise_variance)

    for step in range(1, budget + 1):
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
        x = candidates[chosen]
        y = oracle.label(chosen, x)
        labeled.append(chosen)
        outputs.append(y)
        active[chosen] = False
        if surrogate is not None:
            surrogate = gp_append(surrogate, x, y)
        model = learner.fit(candidates[labeled], np.array(outputs))
        records.append(_record(step, model, test, x))
    return RunTrace(tuple(records))


def _record(step: int, model, test: TestSet, x) -> StepRecord:
    """Test MSE per point: (target - predictive mean)^2 plus the posterior
    spread (predictive variance minus the noise floor), averaged."""
    chosen = None if x is None else np.asarray(x, dtype=float)
    clean = test.clean_outputs is not None
    targets = test.clean_outputs if clean else test.observed_outputs
    if len(targets) == 0:
        raise ValueError("test set is empty")
    means, variances = model.predict_batch(test.inputs)
    bias_term = float(np.mean((targets - means) ** 2))
    var_term = float(np.mean(variances - model.noise_variance))
    if clean:
        return StepRecord(step, chosen, bias_term + var_term, bias_term, var_term)
    return StepRecord(step, chosen, bias_term + var_term)

"""Pool-based active learning driver.

One run: fit on the initial labeled set, record step 0, then repeatedly
score the pool, query the winner's label, refit from scratch, and record
the test error. Refits are always on the full labeled set, so the final
model depends only on which points were acquired, not in what order.
Both learners return a :class:`FittedModel`, the one type the loop and
the acquisition scores predict through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from . import acquisition as acq
from .bpr import BprPosterior, default_prior, posterior_update, predictive_batch
from .gpr import GpModel, KernelSpec, fit_lengthscale_grid, gp_fit, gp_predict_batch
from .rng import derive_rng
from .synthetic import GroundTruthTarget, LabeledSet, TestSet, UnlabeledPool, eval_target

__all__ = [
    "VS_CLEAN",
    "VS_OBSERVED",
    "StepRecord",
    "RunTrace",
    "SyntheticOracle",
    "TableOracle",
    "FittedModel",
    "BprLearner",
    "GprLearner",
    "run_al",
    "test_mse",
]

VS_CLEAN = "vs_clean"
VS_OBSERVED = "vs_observed"


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

    def mse_at(self, step: int) -> float:
        return self.records[step].test_mse


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


def test_mse(model, test: TestSet, mode: str = VS_CLEAN) -> float:
    """Mean posterior expected squared error against the test targets.

    Per point: (target - predictive mean)^2 plus the posterior spread
    (predictive variance minus the noise floor). ``vs_clean`` measures
    against the noiseless targets and needs them present.
    """
    if mode == VS_CLEAN:
        if test.clean_outputs is None:
            raise ValueError("vs_clean needs noiseless outputs, which this test set lacks")
        targets = test.clean_outputs
    elif mode == VS_OBSERVED:
        targets = test.observed_outputs
    else:
        raise ValueError(f"unknown mse mode {mode!r}")
    bias_term, var_term = _mse_split(model, test.inputs, targets)
    return bias_term + var_term


def _mse_split(model, inputs: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    if len(targets) == 0:
        raise ValueError("test set is empty")
    means, variances = model.predict_batch(inputs)
    spread = variances - model.noise_variance
    return float(np.mean((targets - means) ** 2)), float(np.mean(spread))


def run_al(
    learner,
    strategy: acq.StrategySpec,
    oracle: LabelOracle,
    init_labeled: LabeledSet,
    pool: UnlabeledPool,
    test: TestSet,
    budget: int,
    rng: np.random.Generator,
) -> RunTrace:
    """Run ``budget`` acquisitions and return the full per-step trace.

    Step 0 records the model fit on the initial labeled set alone. Each
    step records the test MSE split into bias and variance against the
    noiseless targets when the test set has them (synthetic targets), and
    the MSE against the observed targets otherwise (real datasets). The
    rng is consumed only by the random strategy, so selection and model
    are fully decoupled for the baselines.
    """
    if len(init_labeled) == 0:
        raise ValueError("need at least one initial labeled point")
    if budget > pool.n_active:
        raise ValueError(f"budget {budget} exceeds the {pool.n_active} active candidates")
    if isinstance(strategy.gradient_bound, str):
        raise ValueError("gradient_bound must be resolved to a number before running")

    labeled = init_labeled
    model = learner.fit(labeled.inputs, labeled.outputs)
    records = [_record(0, model, test, None)]

    for step in range(1, budget + 1):
        if strategy.kind == acq.RANDOM:
            chosen = acq.score_random(rng, pool)
        else:
            candidates = pool.candidates[pool.active]
            if strategy.kind == acq.VARIANCE:
                scores = acq.score_variance(model, candidates)
            else:
                surrogate = gp_fit(
                    strategy.surrogate_kernel,
                    labeled.inputs,
                    labeled.outputs,
                    model.noise_variance,
                )
                if strategy.kind == acq.DIRECT_MSE:
                    scores = acq.score_direct_mse(surrogate, model, candidates)
                else:
                    scores = acq.score_upper_bound(
                        surrogate, model, candidates, labeled.inputs,
                        strategy.gradient_bound, strategy.confidence,
                        pool_size=candidates.shape[0],
                    )
            chosen = acq.select(pool, scores)
        x = pool.candidates[chosen]
        y = oracle.label(chosen, x)
        labeled = labeled.appended(x, y)
        pool = pool.deactivated(chosen)
        model = learner.fit(labeled.inputs, labeled.outputs)
        records.append(_record(step, model, test, x))
    return RunTrace(tuple(records))


def _record(step: int, model, test: TestSet, x) -> StepRecord:
    chosen = None if x is None else np.asarray(x, dtype=float)
    clean = test.clean_outputs is not None
    targets = test.clean_outputs if clean else test.observed_outputs
    bias_term, var_term = _mse_split(model, test.inputs, targets)
    if clean:
        return StepRecord(step, chosen, bias_term + var_term, bias_term, var_term)
    return StepRecord(step, chosen, bias_term + var_term)

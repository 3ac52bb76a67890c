"""Pool-based active learning driver.

One run works on indices into one candidate array and its label array:
fit on the initial candidate, record step 0, then repeatedly score the
still-unlabeled candidates, take the winner's label, refit the learner
from scratch, and record the test error. Learner refits are always on the
full labeled set, so the final model depends only on which points were
acquired, not in what order. The surrogate GP of ``direct_mse`` and
``upper_bound`` is fit once on the initial point; its pool means and
latent variances are then kept current by :class:`gpr.PoolPredictions`
at O(nm) per label for a pool of m, and ``upper_bound``'s distance from
each candidate to the nearest labeled one by a running minimum at O(m).
Each learner is its own fitted model: ``fit`` refits it in place, and the
loop, the acquisition scores and the step recorder all go through its
``predict_batch``, ``noise_variance`` and ``test_terms``.

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
from scipy.spatial.distance import cdist

from . import acquisition as acq
from .bpr import default_prior, design_matrix, posterior_update, predictive_batch
from .gpr import (
    KernelSpec,
    PoolPredictions,
    fit_lengthscale_grid,
    gp_fit,
    gp_predict_batch,
)
from .rng import derive_rng
from .synthetic import GroundTruthTarget, TestSet, eval_target

__all__ = [
    "RunTrace",
    "SyntheticOracle",
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


def _univariate(xs) -> np.ndarray:
    """The one coordinate of row-stacked inputs, which polynomial models need."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != 1:
        raise ValueError("polynomial models are univariate")
    return xs[:, 0]


class BprLearner:
    """A conjugate polynomial posterior (default prior), refit from scratch by each fit."""

    def __init__(self, degree: int, noise_variance: float):
        self.prior = default_prior(degree, noise_variance)
        self.noise_variance = noise_variance
        self.posterior = None

    def fit(self, xs, ys) -> "BprLearner":
        self.posterior = posterior_update(self.prior, _univariate(xs), ys)
        return self

    def predict_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances, noise floor included."""
        return predictive_batch(self.posterior, _univariate(xs))

    def test_terms(self, inputs, targets) -> Callable[[], tuple[float, float]]:
        """The recorder of the current fit's (bias, spread) over a fixed test set.

        The test design Phi and G = Phi^T Phi / N are built once: the bias
        is mean((targets - Phi m)^2), as :func:`bpr.predictive_batch`
        computes it, and the spread is tr(S G).
        """
        phi = design_matrix(_univariate(inputs), self.prior.degree)
        gram = phi.T @ phi / len(targets)

        def terms() -> tuple[float, float]:
            post = self.posterior
            return (float(np.mean((targets - phi @ post.mean) ** 2)),
                    float(np.sum(gram * post.cov)))
        return terms


class GprLearner:
    """A GP refit from scratch by each fit.

    With ``lengthscale_grid`` the first fit of the run picks the
    lengthscale by marginal likelihood, and every later fit keeps it.
    """

    def __init__(self, kernel: KernelSpec, noise_variance: float,
                 lengthscale_grid: bool = False):
        self.kernel = kernel
        self.noise_variance = noise_variance
        self.lengthscale_grid = lengthscale_grid
        self.model = None

    def fit(self, xs, ys) -> "GprLearner":
        if self.lengthscale_grid:
            self.model = fit_lengthscale_grid(self.kernel, xs, ys, self.noise_variance)
            self.kernel, self.lengthscale_grid = self.model.kernel, False
        else:
            self.model = gp_fit(self.kernel, xs, ys, self.noise_variance)
        return self

    def predict_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances, noise floor included."""
        return gp_predict_batch(self.model, xs, include_noise=True)

    def test_terms(self, inputs, targets) -> Callable[[], tuple[float, float]]:
        """The recorder of the current fit's (bias, spread) over a fixed test set.

        It predicts over the test inputs at each call.
        """
        def terms() -> tuple[float, float]:
            means, variances = self.predict_batch(inputs)
            return (float(np.mean((targets - means) ** 2)),
                    float(np.mean(variances - self.noise_variance)))
        return terms


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

    ``learner`` is a :class:`BprLearner` or :class:`GprLearner`, refit in
    place at every step. ``candidates`` is the (n, d) pool and ``labels``
    its (n,) outputs; every labeled point, the initial one included, is one
    of its rows. Step 0 records the model fit on the initial point alone. Each step
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

    clean = test.clean_outputs is not None
    targets = test.clean_outputs if clean else test.observed_outputs
    if len(targets) == 0:
        raise ValueError("test set is empty")

    labeled = [init_index]
    active = np.ones(n, dtype=bool)
    active[init_index] = False
    learner.fit(candidates[labeled], labels[labeled])
    test_terms = learner.test_terms(test.inputs, targets)
    terms = [test_terms()]
    surrogate = d_min = None
    if strategy.kind in (acq.DIRECT_MSE, acq.UPPER_BOUND):
        fit = gp_fit(strategy.surrogate_kernel, candidates[labeled], labels[labeled],
                     learner.noise_variance)
        means, latent = gp_predict_batch(fit, candidates, include_noise=False)
        surrogate = PoolPredictions(fit, candidates, means, latent, budget + 1)
    if strategy.kind == acq.UPPER_BOUND:
        d_min = cdist(candidates, candidates[labeled])[:, 0]

    for _ in range(budget):
        indices = np.flatnonzero(active)
        if strategy.kind == acq.RANDOM:
            chosen = acq.score_random(rng, indices)
        else:
            xs = candidates[indices]
            if strategy.kind == acq.VARIANCE:
                scores = acq.score_variance(learner, xs)
            elif strategy.kind == acq.DIRECT_MSE:
                scores = acq.score_direct_mse(learner, xs, surrogate.means[indices])
            else:
                scores = acq.score_upper_bound(
                    learner, xs, surrogate.means[indices], surrogate.latent[indices],
                    d_min[indices], strategy.gradient_bound, strategy.confidence,
                    pool_size=indices.size,
                )
            chosen = acq.select(indices, scores)
        labeled.append(chosen)
        active[chosen] = False
        if surrogate is not None:
            surrogate.append(chosen, labels[chosen])
        if d_min is not None:
            d_min = np.minimum(d_min, cdist(candidates, candidates[chosen:chosen + 1])[:, 0])
        learner.fit(candidates[labeled], labels[labeled])
        terms.append(test_terms())

    bias, variance = np.array(terms).T
    return RunTrace(candidates[labeled[1:]], bias + variance,
                    bias if clean else None, variance if clean else None)

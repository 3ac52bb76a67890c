"""Pool-based active learning driver.

One run works on indices into one candidate array and its label array. A
selection loop picks the labeled order: starting from the initial
candidate, it repeatedly scores the still-unlabeled candidates and takes
the winner's label. Before a step whose score reads the learner
(``variance``, ``direct_mse``, ``upper_bound``) it is fit from scratch on
the labeled set and predicts the unlabeled candidates once; the scores
read those arrays. A random run fits only in the curve pass. The
surrogate GP of ``direct_mse`` and ``upper_bound`` is fit once on the
initial point; its pool means and latent variances are then kept current
by :class:`gpr.PoolPredictions` at O(nm) per label for a pool of m, and
``upper_bound``'s distance from each candidate to the nearest labeled one
(the fill distance) by a running minimum of :func:`gpr.distances` at O(m).

After the loop, the learner's ``curve`` predicts the test set from the
fit on every prefix of the labeled order in one batched pass, and
``run_al`` alone forms the test error from it. A BPR posterior depends
only on running sums of phi phi^T and phi y (Bishop 2006, PRML 3.3), and
its mean latent variance over the N test inputs is tr(S G) with
G = Phi^T Phi / N built once. A GP's prefix Cholesky factors are the
leading blocks of the factor that ``gp_fit`` builds on the whole order
(Rasmussen & Williams 2006, Alg. 2.1), so one fit and one forward solve
for the test inputs give every prefix's test means and variances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import acquisition as acq
from .bpr import (
    default_prior,
    design_matrix,
    posterior_update,
    predictive_batch,
    prefix_posteriors,
)
from .gpr import (
    KernelSpec,
    PoolPredictions,
    distances,
    gp_fit,
    gp_predict_batch,
    prefix_predictions,
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


class BprLearner:
    """A conjugate polynomial posterior (default prior), refit from scratch by each fit."""

    def __init__(self, degree: int, noise_variance: float):
        self.prior = default_prior(degree, noise_variance)
        self.noise_variance = noise_variance
        self.posterior = None

    def fit(self, xs, ys) -> "BprLearner":
        self.posterior = posterior_update(self.prior, xs, ys)
        return self

    def predict_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances, noise floor included."""
        return predictive_batch(self.posterior, xs)

    def curve(self, xs, ys, inputs) -> tuple[np.ndarray, np.ndarray]:
        """(means, spread) at fixed test inputs of the fit on every prefix of (xs, ys).

        Row or entry t belongs to the first t + 1 points. With the test
        design Phi built once, the means are Phi m_t and the spread, the
        mean latent variance, tr(S_t G) with G = Phi^T Phi / N.
        """
        means, covs = prefix_posteriors(self.prior, xs, ys)
        phi = design_matrix(inputs, self.prior.degree)
        return means @ phi.T, np.einsum("tij,ij->t", covs, phi.T @ phi / len(phi))


class GprLearner:
    """A GP with a fixed kernel, refit from scratch by each fit."""

    def __init__(self, kernel: KernelSpec, noise_variance: float):
        self.kernel = kernel
        self.noise_variance = noise_variance
        self.model = None

    def fit(self, xs, ys) -> "GprLearner":
        self.model = gp_fit(self.kernel, xs, ys, self.noise_variance)
        return self

    def predict_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and variances, noise floor included."""
        return gp_predict_batch(self.model, xs, include_noise=True)

    def curve(self, xs, ys, inputs) -> tuple[np.ndarray, np.ndarray]:
        """(means, spread) at fixed test inputs of the fit on every prefix of (xs, ys).

        Row or entry t belongs to the first t + 1 points; the spread is the
        mean latent variance.
        """
        means, latent = prefix_predictions(gp_fit(self.kernel, xs, ys, self.noise_variance),
                                           inputs)
        return means, latent.mean(axis=1)


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

    ``learner`` is a :class:`BprLearner` or :class:`GprLearner`, fit in
    place on the labeled points before each step whose score reads it; its
    one ``predict_batch`` of that step, over the active candidates, gives
    the means and variances the score takes, with its noise variance.
    ``candidates`` is the (n, d) pool and ``labels`` its (n,) outputs;
    every labeled point, the initial one included, is one of its rows.
    Once the order is picked, ``learner.curve`` predicts the test inputs
    from the fit on each of its prefixes, step 0 being the initial point
    alone. The test error is the squared residual of its means (the bias)
    plus its spread: split against the noiseless targets when the test set
    has them (synthetic targets), the MSE against the observed targets
    otherwise (real datasets). The rng is consumed only by the random
    strategy, so selection and model are fully decoupled for the baselines.
    """
    n = candidates.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels of shape {labels.shape} do not match the {n} candidates")
    if not 0 <= init_index < n:
        raise ValueError(f"init_index {init_index} is not one of the {n} candidates")
    if not 0 <= budget <= n - 1:
        raise ValueError(f"budget {budget} is not within the {n - 1} candidates left "
                         "after the initial one")
    if isinstance(strategy.gradient_bound, str):
        raise ValueError("gradient_bound must be resolved to a number before running")

    clean = test.clean_outputs is not None
    targets = test.clean_outputs if clean else test.observed_outputs
    if len(targets) == 0:
        raise ValueError("test set is empty")

    order = np.empty(budget + 1, dtype=np.intp)  # the labeled order; step 0 is the initial one
    order[0] = init_index
    active = np.ones(n, dtype=bool)
    active[init_index] = False
    surrogate = d_min = None
    if strategy.kind in (acq.DIRECT_MSE, acq.UPPER_BOUND):
        fit = gp_fit(strategy.surrogate_kernel, candidates[order[:1]], labels[order[:1]],
                     learner.noise_variance)
        means, latent = gp_predict_batch(fit, candidates, include_noise=False)
        surrogate = PoolPredictions(fit, candidates, means, latent, budget + 1)
    if strategy.kind == acq.UPPER_BOUND:
        d_min = distances(candidates, candidates[order[:1]])[:, 0]

    for step in range(1, budget + 1):
        indices = np.flatnonzero(active)
        if strategy.kind == acq.RANDOM:
            chosen = acq.score_random(rng, indices)
        else:
            learner.fit(candidates[order[:step]], labels[order[:step]])
            means, variances = learner.predict_batch(candidates[indices])
            if strategy.kind == acq.VARIANCE:
                scores = acq.score_variance(variances)
            elif strategy.kind == acq.DIRECT_MSE:
                scores = acq.score_direct_mse(means, surrogate.means[indices])
            else:
                scores = acq.score_upper_bound(
                    means, surrogate.means[indices], surrogate.latent[indices], d_min[indices],
                    strategy.gradient_bound, strategy.confidence, learner.noise_variance)
            chosen = acq.select(indices, scores)
        order[step] = chosen
        active[chosen] = False
        if surrogate is not None:
            surrogate.append(chosen, labels[chosen])
        if d_min is not None:
            d_min = np.minimum(d_min, distances(candidates, candidates[chosen:chosen + 1])[:, 0])

    xs = candidates[order]
    means, variance = learner.curve(xs, labels[order], test.inputs)
    resid = np.subtract(targets, means, out=means)  # the one (steps, test) array, reused
    bias = np.mean(np.square(resid, out=resid), axis=1)
    return RunTrace(xs[1:], bias + variance,
                    bias if clean else None, variance if clean else None)

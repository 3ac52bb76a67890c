import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ual_lab.acquisition import (
    StrategySpec,
    score_direct_mse,
    score_random,
    score_upper_bound,
    score_variance,
    select,
)
from ual_lab.alloop import BprLearner, GprLearner
from ual_lab.gpr import KernelSpec, gp_fit, gp_predict_batch
from ual_lab.rng import derive_rng
from ual_lab.synthetic import build_pool


def _fit_bpr(degree, xs, ys, noise=1.0):
    return BprLearner(degree, noise).fit(np.asarray(xs, float)[:, None], ys)


def _direct(surrogate, means, xs):
    """The direct_mse score of predictor ``means`` against the surrogate at ``xs``."""
    g_means, _ = gp_predict_batch(surrogate, xs, include_noise=False)
    return score_direct_mse(means, g_means)


def _upper(surrogate, means, xs, labeled, gradient_bound, confidence, noise_variance):
    """The upper_bound score with the surrogate terms and distances computed from scratch."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    g_means, latent = gp_predict_batch(surrogate, xs, include_noise=False)
    d_min = cdist(xs, np.atleast_2d(labeled)).min(axis=1)
    return score_upper_bound(means, g_means, latent, d_min, gradient_bound, confidence,
                             noise_variance)


class TestVarianceScore:
    def test_prior_scores_grow_with_magnitude(self):
        _, variances = _fit_bpr(1, [], []).predict_batch(np.array([[0.0], [1.0], [2.0]]))
        scores = score_variance(variances)
        np.testing.assert_allclose(scores, [2.0, 3.0, 6.0], atol=1e-12)
        assert select(np.arange(3), scores) == 2

    def test_gp_prior_ties_break_low(self):
        # one point so far away that its covariance with the pool underflows
        # to zero: every pool variance is the prior's
        gp_model = GprLearner(KernelSpec("rbf"), 1.0).fit([[100.0]], [0.0])
        scores = score_variance(gp_model.predict_batch(build_pool(5, -2, 2))[1])
        np.testing.assert_array_equal(scores, 2.0)  # amplitude 1 plus noise 1
        assert select(np.arange(5), scores) == 0

    def test_observed_point_score_drops(self):
        x = np.array([[2.0]])
        before = score_variance(_fit_bpr(1, [], []).predict_batch(x)[1])
        after = score_variance(_fit_bpr(1, [2.0], [1.0]).predict_batch(x)[1])
        assert after[0] < before[0]


class TestRandomScore:
    def test_single_active_candidate_forced(self):
        assert score_random(derive_rng(40, 0), np.array([1])) == 1

    def test_seeded_sequence_reproducible(self):
        active = np.arange(10)
        a = [score_random(derive_rng(41, 0, i), active) for i in range(20)]
        b = [score_random(derive_rng(41, 0, i), active) for i in range(20)]
        assert a == b

    def test_uniform_frequencies(self):
        rng = derive_rng(42, 0)
        draws = np.array([score_random(rng, np.arange(4)) for _ in range(100_000)])
        freqs = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            score_random(derive_rng(43, 0), np.array([], dtype=int))


class TestDirectMseScore:
    def test_squared_discrepancy(self):
        # surrogate mean x^2 vs predictor mean x at x=2 -> 4
        xs = np.linspace(-2, 2, 40)
        surrogate = gp_fit(KernelSpec("rbf", lengthscale=0.5), xs[:, None], xs**2, 1e-8)
        x = np.array([[2.0]])
        f_means, _ = _fit_bpr(1, xs, xs, noise=1e-8).predict_batch(x)

        scores = _direct(surrogate, f_means, x)
        assert scores[0] == pytest.approx(4.0, abs=0.05)

    def test_identical_models_score_zero(self):
        xs = np.linspace(-2, 2, 30)
        surrogate = gp_fit(KernelSpec("rbf"), xs[:, None], np.sin(xs), 0.5)
        means, _ = gp_predict_batch(surrogate, xs[:, None], include_noise=False)
        np.testing.assert_array_equal(_direct(surrogate, means, xs[:, None]), 0.0)

    def test_argmax_matches_brute_force_residual_scan(self):
        # quadratic-plus-cosine target, linear predictor, 30 labeled points
        rng = derive_rng(45, 0)
        xs = rng.uniform(-2, 2, 30)
        f = 0.5 + 0.3 * xs - 0.8 * xs**2 + np.cos(2 * np.pi * xs)
        ys = f + 0.1 * rng.standard_normal(30)
        surrogate = gp_fit(KernelSpec("rbf", lengthscale=0.5), xs[:, None], ys, 0.01)
        model = _fit_bpr(1, xs, ys, noise=0.01)
        pool = build_pool(50, -2, 2)
        scores = _direct(surrogate, model.predict_batch(pool)[0], pool)
        # brute force: evaluate the same discrepancy one candidate at a time
        brute = np.array([
            _direct(surrogate, model.predict_batch(pool[i:i + 1])[0], pool[i:i + 1])[0]
            for i in range(50)
        ])
        np.testing.assert_allclose(scores, brute, atol=1e-12)
        assert select(np.arange(50), scores) == int(np.argmax(brute))


class TestUpperBoundScore:
    def test_reduces_to_discrepancy_at_labeled_point(self):
        xs = np.linspace(-2, 2, 25)
        ys = np.sin(xs)
        sig2 = 1e-12
        surrogate = gp_fit(KernelSpec("rbf", lengthscale=0.5), xs[:, None], ys, sig2)
        x = np.array([[xs[7]]])
        f_means, _ = _fit_bpr(1, xs, ys, noise=sig2).predict_batch(x)
        score = _upper(surrogate, f_means, x, xs[:, None], 3.0, 0.05, sig2)[0]
        assert score == pytest.approx((ys[7] - f_means[0]) ** 2 + sig2, abs=1e-4)

    def test_degenerate_parameters_give_scaled_variance(self):
        # L_f = 0 and matching means: score = beta * latent var + sigma^2
        rng = derive_rng(46, 0)
        xs = rng.uniform(-2, 2, 10)
        surrogate = gp_fit(KernelSpec("rbf"), xs[:, None], np.zeros(10), 1.0)
        qs = rng.uniform(-2, 2, (20, 1))
        means, latent = gp_predict_batch(surrogate, qs, include_noise=False)
        scores = _upper(surrogate, means, qs, xs[:, None], 0.0, 0.05, 1.0)
        beta = 2.0 * np.log(20 / 0.05)
        np.testing.assert_allclose(scores, beta * latent + 1.0, rtol=1e-12)

    def test_dominates_squared_discrepancy_on_pool(self):
        rng = derive_rng(47, 0)
        xs = rng.uniform(-2, 2, 15)
        ys = xs**2 + rng.standard_normal(15)
        surrogate = gp_fit(KernelSpec("rbf", lengthscale=0.5), xs[:, None], ys, 1.0)
        pool = build_pool(50, -2, 2)
        f_means, _ = _fit_bpr(1, xs, ys).predict_batch(pool)
        upper = _upper(surrogate, f_means, pool, xs[:, None], 5.0, 0.05, 1.0)
        direct = _direct(surrogate, f_means, pool)
        assert np.all(upper >= direct)
        assert np.all(upper >= 1.0)  # never below the noise floor

    def test_unresolved_auto_bound_rejected(self):
        surrogate = gp_fit(KernelSpec("rbf"), [[0.0]], [1.0], 1.0)
        with pytest.raises(ValueError, match="resolved"):
            _upper(surrogate, np.zeros(1), [[1.0]], [[0.0]], "auto", 0.05, 1.0)


class TestSelect:
    def test_tie_breaks_to_lowest_index(self):
        assert select(np.arange(3), [1.0, 3.0, 3.0]) == 1

    def test_full_tie_picks_first(self):
        assert select(np.arange(4), [2.0, 2.0, 2.0, 2.0]) == 0

    def test_single_survivor(self):
        assert select(np.array([2]), [5.0]) == 2

    def test_indices_refer_to_original_pool(self):
        assert select(np.array([1, 2, 3, 4]), [0.0, 9.0, 0.0, 0.0]) == 2

    def test_misaligned_scores_rejected(self):
        with pytest.raises(ValueError):
            select(np.arange(3), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        # np.argmax would pick the first NaN; a broken score must fail loudly
        with pytest.raises(ValueError, match="finite"):
            select(np.arange(4), [1.0, bad, 5.0, 2.0])

    def test_constant_shift_invariance(self):
        rng = derive_rng(48, 0)
        active = np.arange(20)
        for _ in range(50):
            scores = rng.standard_normal(20)
            shift = float(rng.uniform(-100, 100))
            assert select(active, scores) == select(active, scores + shift)


def test_perfect_surrogate_ranks_like_true_squared_error():
    # surrogate interpolating noiseless target data ranks candidates the
    # way the predictor's true pointwise squared error would
    rng = derive_rng(49, 0)
    xs = np.linspace(-2, 2, 120)
    f = 0.4 - 0.7 * xs + 0.9 * xs**2
    surrogate = gp_fit(KernelSpec("rbf", lengthscale=0.5), xs[:, None], f, 1e-10)
    model = _fit_bpr(1, xs, f, noise=1.0)
    pool = build_pool(40, -1.9, 1.9)
    f_means, _ = model.predict_batch(pool)
    scores = _direct(surrogate, f_means, pool)
    truth = (0.4 - 0.7 * pool[:, 0] + 0.9 * pool[:, 0] ** 2 - f_means) ** 2
    np.testing.assert_array_equal(np.argsort(scores), np.argsort(truth))


def test_variance_strategy_prefers_endpoints_on_symmetric_pool():
    _, variances = _fit_bpr(1, [0.1], [0.5]).predict_batch(build_pool(21, -2, 2))
    scores = score_variance(variances)
    chosen = select(np.arange(21), scores)
    assert chosen in (0, 20)


def test_strategy_spec_validation():
    with pytest.raises(ValueError):
        StrategySpec("upper_bound")  # missing gradient bound
    with pytest.raises(ValueError, match=">= 0"):
        StrategySpec("upper_bound", gradient_bound=-1.0)
    # the exact bound of a constant target
    assert StrategySpec("upper_bound", gradient_bound=0.0).gradient_bound == 0.0
    with pytest.raises(ValueError):
        StrategySpec("upper_bound", gradient_bound=1.0, confidence=1.5)
    spec = StrategySpec("direct_mse")
    assert spec.surrogate_kernel.kind == "rbf"
    assert spec.surrogate_kernel.lengthscale == 0.5

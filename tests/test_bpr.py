import numpy as np
import pytest

from ual_lab.bpr import (
    BprPrior,
    default_prior,
    design_matrix,
    feature_map,
    posterior_update,
    predictive_batch,
)
from ual_lab.rng import derive_rng


class TestFeatureMap:
    def test_powers_of_two(self):
        np.testing.assert_array_equal(feature_map(2.0, 3), [1, 2, 4, 8])

    def test_zero_input(self):
        np.testing.assert_array_equal(feature_map(0.0, 4), [1, 0, 0, 0, 0])

    def test_sign_alternation(self):
        np.testing.assert_array_equal(feature_map(-1.0, 2), [1, -1, 1])

    def test_design_matrix_rows(self):
        xs = [0.5, -1.0]
        np.testing.assert_allclose(design_matrix(xs, 2),
                                   [feature_map(0.5, 2), feature_map(-1.0, 2)])


class TestPosteriorUpdate:
    def test_empty_data_returns_prior(self):
        prior = default_prior(2, 1.0)
        post = posterior_update(prior, [], [])
        np.testing.assert_array_equal(post.mean, prior.mean)
        np.testing.assert_array_equal(post.cov, prior.cov)

    def test_single_observation_hand_values(self):
        # x=0, y=2 under the unit prior: cov diag(1/2, 1), mean [1, 0]
        post = posterior_update(default_prior(1, 1.0), [0.0], [2.0])
        np.testing.assert_allclose(post.cov, np.diag([0.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(post.mean, [1.0, 0.0], atol=1e-12)

    def test_repeated_observation_hand_values(self):
        post = posterior_update(default_prior(1, 1.0), [0.0, 0.0], [2.0, 2.0])
        np.testing.assert_allclose(post.cov, np.diag([1.0 / 3.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(post.mean, [4.0 / 3.0, 0.0], atol=1e-12)

    def test_batch_matches_incremental(self):
        rng = derive_rng(20, 0)
        for trial in range(20):
            prior = default_prior(3, float(rng.uniform(0.2, 2.0)))
            xs = rng.uniform(-2, 2, 2)
            ys = rng.standard_normal(2)
            batch = posterior_update(prior, xs, ys)
            sequential = posterior_update(
                posterior_update(prior, xs[:1], ys[:1]).as_prior(), xs[1:], ys[1:]
            )
            np.testing.assert_allclose(sequential.mean, batch.mean, rtol=1e-9)
            np.testing.assert_allclose(sequential.cov, batch.cov, rtol=1e-9)

    def test_information_only_grows(self):
        rng = derive_rng(21, 0)
        prior = default_prior(4, 1.0)
        xs = rng.uniform(-2, 2, 30)
        post = posterior_update(prior, xs, rng.standard_normal(30))
        gap = np.linalg.inv(post.cov) - np.linalg.inv(prior.cov)
        assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() > -1e-8

    def test_rejects_non_spd_prior(self):
        with pytest.raises(np.linalg.LinAlgError):
            BprPrior(1, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)

    def test_high_degree_conditioning(self):
        # degree-5 monomials on [-2, 2]: condition numbers ~1e6 must still factor
        rng = derive_rng(22, 0)
        xs = rng.uniform(-2, 2, 200)
        post = posterior_update(default_prior(5, 1.0), xs, rng.standard_normal(200))
        assert np.all(np.isfinite(post.cov))


class TestPredictive:
    def test_prior_predictive(self):
        post = posterior_update(default_prior(1, 1.0), [], [])
        (mean,), (var,) = predictive_batch(post, [1.0])
        assert mean == 0.0
        assert var == pytest.approx(3.0, abs=1e-12)

    def test_after_single_observation(self):
        post = posterior_update(default_prior(1, 1.0), [0.0], [2.0])
        (mean,), (var,) = predictive_batch(post, [0.0])
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(1.5, abs=1e-12)

    def test_variance_never_below_noise_floor(self):
        rng = derive_rng(23, 0)
        for trial in range(10):
            n = int(rng.integers(0, 40))
            post = posterior_update(default_prior(4, 1.0),
                                    rng.uniform(-2, 2, n), rng.standard_normal(n))
            _, variances = predictive_batch(post, rng.uniform(-2, 2, 50))
            assert np.all(variances >= 1.0 - 1e-10)

    def test_variance_monotone_under_data(self):
        rng = derive_rng(24, 0)
        prior = default_prior(3, 1.0)
        xs = rng.uniform(-2, 2, 25)
        ys = rng.standard_normal(25)
        queries = rng.uniform(-2, 2, 20)
        prev = posterior_update(prior, xs[:0], ys[:0])
        for n in range(1, 26):
            cur = posterior_update(prior, xs[:n], ys[:n])
            _, v_prev = predictive_batch(prev, queries)
            _, v_cur = predictive_batch(cur, queries)
            assert np.all(v_cur <= v_prev + 1e-10)
            prev = cur

    def test_batch_matches_scalar(self):
        rng = derive_rng(25, 0)
        post = posterior_update(default_prior(2, 0.7),
                                rng.uniform(-2, 2, 10), rng.standard_normal(10))
        xs = rng.uniform(-2, 2, 7)
        means, variances = predictive_batch(post, xs)
        for i, x in enumerate(xs):
            phi = feature_map(float(x), post.degree)
            m = float(phi @ post.mean)
            v = post.noise_variance + float(phi @ post.cov @ phi)
            assert means[i] == pytest.approx(m, abs=1e-14)
            assert variances[i] == pytest.approx(v, abs=1e-14)


def test_posterior_concentrates_on_true_coefficients():
    # matched degree, fixed coefficients: the posterior mean moves toward
    # them as data grows, in nearly every seeded trial
    wins = 0
    for seed in range(100):
        rng = derive_rng(26, seed)
        w = rng.standard_normal(4)
        prior = default_prior(3, 1.0)
        errs = {}
        for n in (10, 200):
            xs = rng.uniform(-2, 2, n)
            ys = design_matrix(xs, 3) @ w + rng.standard_normal(n)
            post = posterior_update(prior, xs, ys)
            errs[n] = np.linalg.norm(post.mean - w)
        wins += errs[200] < errs[10]
    assert wins >= 95

import re

import numpy as np
import pytest

from ual_lab.bpr import (
    BprPrior,
    default_prior,
    design_matrix,
    posterior_update,
    predictive_batch,
    prefix_posteriors,
)
from ual_lab.errors import NumericalError
from ual_lab.gpr import KernelSpec, gp_fit
from ual_lab.rng import derive_rng


class TestFeatureMap:
    def test_design_matrix_rows(self):
        np.testing.assert_array_equal(design_matrix([0.5, -1.0, 2.0, 0.0], 3),
                                      [[1, 0.5, 0.25, 0.125], [1, -1, 1, -1],
                                       [1, 2, 4, 8], [1, 0, 0, 0]])

    def test_design_matrix_takes_one_column(self):
        np.testing.assert_array_equal(design_matrix(np.array([[0.5], [-1.0]]), 2),
                                      design_matrix([0.5, -1.0], 2))
        prior = default_prior(1, 1.0)
        for call in (lambda: design_matrix(np.ones((3, 2)), 1),
                     lambda: posterior_update(prior, np.ones((3, 2)), np.ones(6)),
                     lambda: prefix_posteriors(prior, np.ones((3, 2)), np.ones(6))):
            with pytest.raises(ValueError, match="univariate"):
                call()

    def test_design_matrix_error_names_the_shape(self):
        for shape in ((2, 4), (3, 1, 1)):
            message = re.escape(f"univariate; got inputs of shape {shape}")
            with pytest.raises(ValueError, match=message):
                design_matrix(np.zeros(shape), 1)


def test_outputs_of_another_shape_raise():
    # one output per input: a (2, 2) array for 4 inputs is not read as 4 outputs
    xs, ys = [0.0, 1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]]
    for call in (lambda: posterior_update(default_prior(1), xs, ys),
                 lambda: prefix_posteriors(default_prior(1), xs, ys),
                 lambda: gp_fit(KernelSpec("rbf"), xs, ys, 1.0)):
        with pytest.raises(ValueError, match=r"ys of shape \(2, 2\) do not match the 4 inputs"):
            call()


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
            first = posterior_update(prior, xs[:1], ys[:1])
            sequential = posterior_update(
                BprPrior(first.degree, first.mean, first.cov, first.noise_variance),
                xs[1:], ys[1:],
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

    def test_precision_inverts_correlated_prior(self):
        rng = derive_rng(27, 0)
        a = rng.standard_normal((4, 4))
        prior = BprPrior(3, rng.standard_normal(4), a @ a.T + 0.5 * np.eye(4), 1.0)
        np.testing.assert_allclose(prior.precision @ prior.cov, np.eye(4), atol=1e-10)
        np.testing.assert_array_equal(prior.precision, prior.precision.T)

    def test_cov_does_not_depend_on_outputs(self):
        # the closed forms in analysis take the covariance from a zero-output update
        rng = derive_rng(28, 0)
        a = rng.standard_normal((3, 3))
        prior = BprPrior(2, rng.standard_normal(3), a @ a.T + 0.5 * np.eye(3), 0.7)
        xs = rng.uniform(-2, 2, 15)
        zero = posterior_update(prior, xs, np.zeros(15))
        noisy = posterior_update(prior, xs, 5.0 * rng.standard_normal(15))
        np.testing.assert_array_equal(zero.cov, noisy.cov)
        assert not np.array_equal(zero.mean, noisy.mean)

    def test_rejects_non_spd_prior(self):
        with pytest.raises(NumericalError, match="2x2"):
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
            phi = np.power(float(x), np.arange(post.degree + 1))
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


@pytest.mark.parametrize("degree", range(6))
def test_prefix_posteriors_equal_an_update_per_prefix(degree):
    # running sums of phi phi^T and phi y give every prefix's posterior
    rng = derive_rng(36, degree)
    xs, ys = rng.uniform(-2, 2, 40), rng.standard_normal(40)
    prior = default_prior(degree, 0.5)
    means, covs = prefix_posteriors(prior, xs, ys)
    assert means.shape == (40, degree + 1) and covs.shape == (40, degree + 1, degree + 1)
    for t in range(40):
        post = posterior_update(prior, xs[:t + 1], ys[:t + 1])
        np.testing.assert_allclose(means[t], post.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(covs[t], post.cov, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(covs[t], covs[t].T)


def test_prefix_posteriors_reject_a_non_finite_label():
    with pytest.raises(ValueError, match="not finite"):
        prefix_posteriors(default_prior(1), [0.0, 1.0], [1.0, np.inf])

import numpy as np
import pytest

from ual_lab.analysis import (
    LowerOrderPartition,
    TargetFamily,
    bias_bound_check,
    closed_form_mse,
    closed_form_mse_terms,
    fixed_target_concentration,
    lower_order_mse,
    matched_mse,
    mc_bias_variance,
    variance_proxy_gap,
)
from ual_lab.bpr import (
    BprPrior,
    default_prior,
    design_matrix,
    posterior_update,
    predictive_batch,
)
from ual_lab.errors import TruncationError
from ual_lab.rng import derive_rng


def _random_family(rng, order, noise=1.0):
    a = rng.standard_normal((order + 1, order + 1))
    cov = a @ a.T + 0.5 * np.eye(order + 1)
    return TargetFamily(order, rng.standard_normal(order + 1), cov, noise)


class TestClosedFormMse:
    def test_matched_empty_data_hand_value(self):
        # no data, unit prior, degree 1, x = 1: twice the prior quadratic form
        fam = TargetFamily(1, np.zeros(2), np.eye(2), 1.0)
        prior = default_prior(1, 1.0)
        empty = np.zeros((0, 2))
        assert closed_form_mse(1.0, fam, prior, empty, empty) == pytest.approx(4.0)

    def test_nine_terms_sum(self):
        rng = derive_rng(50, 0)
        fam = _random_family(rng, 3)
        prior = default_prior(2, 1.0)
        xs = rng.uniform(-2, 2, 10)
        terms = closed_form_mse_terms(0.3, fam, prior,
                                      design_matrix(xs, 3), design_matrix(xs, 2))
        assert terms.shape == (9,)
        total = closed_form_mse(0.3, fam, prior, design_matrix(xs, 3), design_matrix(xs, 2))
        assert total == pytest.approx(terms.sum())

    def test_matched_equals_twice_quadratic_form(self):
        rng = derive_rng(51, 0)
        for trial in range(20):
            fam = _random_family(rng, 3)
            prior = BprPrior(3, fam.mean, fam.cov, 1.0)
            n = (0, 5, 20, 100)[trial % 4]
            xs = rng.uniform(-2, 2, n)
            phi = design_matrix(xs, 3)
            post = posterior_update(prior, xs, rng.standard_normal(n))
            for x in np.linspace(-2, 2, 50):
                e_general = closed_form_mse(float(x), fam, prior, phi, phi)
                e_matched = matched_mse(float(x), post)
                assert abs(e_general - e_matched) / (1 + abs(e_general)) < 1e-8

    def test_noise_variance_mismatch_rejected(self):
        fam = TargetFamily(1, np.zeros(2), np.eye(2), 1.0)
        prior = default_prior(1, 2.0)
        empty = np.zeros((0, 2))
        with pytest.raises(ValueError):
            closed_form_mse(0.0, fam, prior, empty, empty)

    def test_agrees_with_monte_carlo(self):
        rng = derive_rng(52, 0)
        fam = TargetFamily(3, np.zeros(4), np.eye(4), 1.0)
        prior = default_prior(2, 1.0)
        inputs = rng.uniform(-2, 2, 15)
        x = 0.8
        rep = mc_bias_variance(x, fam, prior, 15, 100_000, derive_rng(52, 1),
                               inputs=inputs)
        cf = closed_form_mse(x, fam, prior,
                             design_matrix(inputs, 3), design_matrix(inputs, 2))
        assert abs(cf - rep.mse) < 3.0 * rep.bias_standard_error


class TestMatchedMse:
    def test_empty_data_hand_value(self):
        post = posterior_update(default_prior(1, 1.0), [], [])
        assert matched_mse(0.0, post) == pytest.approx(2.0)

    def test_identity_with_predictive_variance(self):
        rng = derive_rng(53, 0)
        for trial in range(10):
            n = int(rng.integers(0, 40))
            post = posterior_update(default_prior(3, 1.0),
                                    rng.uniform(-2, 2, n), rng.standard_normal(n))
            xs = rng.uniform(-2, 2, 10)
            _, variances = predictive_batch(post, xs)
            for x, var in zip(xs, variances):
                assert matched_mse(float(x), post) == pytest.approx(
                    2.0 * (var - 1.0), abs=1e-12)


class TestLowerOrderMse:
    def test_partition_reassembles_exactly(self):
        rng = derive_rng(54, 0)
        fam = _random_family(rng, 3)
        xs = rng.uniform(-2, 2, 8)
        part = LowerOrderPartition.from_family(fam, xs, 1)
        np.testing.assert_array_equal(part.full_design(), design_matrix(xs, 3))
        np.testing.assert_array_equal(part.full_mean(), fam.mean)
        np.testing.assert_array_equal(part.full_cov(), fam.cov)

    def test_degenerate_partition_collapses(self):
        rng = derive_rng(55, 0)
        fam = _random_family(rng, 2)
        part = LowerOrderPartition.from_family(fam, rng.uniform(-2, 2, 6), 2)
        prior = BprPrior(2, fam.mean, fam.cov, 1.0)
        total, p_term, var_term = lower_order_mse(0.7, part, prior, 1.0)
        assert p_term == 0.0
        assert total == 2.0 * var_term

    def test_equals_general_form_under_block_assumptions(self):
        rng = derive_rng(56, 0)
        for trial in range(20):
            fam = _random_family(rng, 3)
            p = (1, 2)[trial % 2]
            xs = rng.uniform(-2, 2, 12)
            part = LowerOrderPartition.from_family(fam, xs, p)
            prior = BprPrior(p, part.mean_head, part.cov_head, 1.0)
            phi = design_matrix(xs, 3)
            for x in np.linspace(-2, 2, 50):
                general = closed_form_mse(float(x), fam, prior, phi, part.design_head)
                total, _, _ = lower_order_mse(float(x), part, prior, 1.0)
                assert abs(general - total) / (1 + abs(general)) < 1e-8

    def test_prior_block_mismatch_rejected(self):
        rng = derive_rng(57, 0)
        fam = _random_family(rng, 3)
        part = LowerOrderPartition.from_family(fam, rng.uniform(-2, 2, 5), 1)
        bad = BprPrior(1, part.mean_head + 0.1, part.cov_head, 1.0)
        with pytest.raises(ValueError):
            lower_order_mse(0.0, part, bad, 1.0)

    def test_polynomial_orders_of_terms(self):
        # spread term has degree <= 2p; the remainder has degree <= 2l
        rng = derive_rng(58, 0)
        fam = _random_family(rng, 3)
        p, l = 1, 3
        part = LowerOrderPartition.from_family(fam, rng.uniform(-2, 2, 10), p)
        prior = BprPrior(p, part.mean_head, part.cov_head, 1.0)
        grid = np.linspace(-2, 2, 2 * l + 1)
        var_vals = np.array([lower_order_mse(float(x), part, prior, 1.0)[2] for x in grid])
        p_vals = np.array([lower_order_mse(float(x), part, prior, 1.0)[1] for x in grid])
        var_coeffs = np.polynomial.polynomial.polyfit(grid, var_vals, 2 * l)
        p_coeffs = np.polynomial.polynomial.polyfit(grid, p_vals, 2 * l)
        scale = np.abs(var_coeffs).max()
        assert np.all(np.abs(var_coeffs[2 * p + 1:]) < 1e-9 * scale)
        assert np.abs(p_coeffs[2 * l]) > 1e-9  # generic instance keeps full order


class TestMcBiasVariance:
    def test_no_data_matches_prior_moment(self):
        # with no training data the deviation is the target's own spread:
        # analytic oracle phi^T (Sigma + mu mu^T) phi with mu = 0
        fam = TargetFamily(2, np.zeros(3), np.eye(3), 1.0)
        prior = default_prior(2, 1.0)
        x = 1.3
        rep = mc_bias_variance(x, fam, prior, 0, 50_000, derive_rng(59, 0))
        phi = np.array([1.0, x, x * x])
        oracle = float(phi @ np.eye(3) @ phi)
        assert rep.variance == pytest.approx(oracle, abs=1e-12)
        assert abs(rep.bias - oracle) < 4.0 * rep.bias_standard_error

    def test_decomposition_identity_exact(self):
        fam = TargetFamily(3, np.zeros(4), np.eye(4), 1.0)
        rep = mc_bias_variance(0.4, fam, default_prior(1, 1.0), 10, 5_000,
                               derive_rng(60, 0))
        assert rep.mse == rep.bias + rep.variance
        assert rep.sample_count == 5_000

    def test_linear_in_y_shortcut_matches_explicit_posterior(self):
        # the oracle predicts via phi . mu_p = base + v . y; one replicate
        # through the explicit conjugate update must agree
        prior = default_prior(1, 1.0)
        inputs = np.array([-1.0, 0.5, 1.5])
        rng = derive_rng(61, 0)
        ys = design_matrix(inputs, 2) @ rng.standard_normal(3) + rng.standard_normal(3)
        post = posterior_update(prior, inputs, ys)
        x = 0.9
        phi = np.array([1.0, x])
        explicit = float(phi @ post.mean)
        v = design_matrix(inputs, 1) @ (post.cov @ phi) / 1.0
        assert explicit == pytest.approx(float(ys @ v), rel=1e-9)

    def test_minimum_sample_count_enforced(self):
        fam = TargetFamily(1, np.zeros(2), np.eye(2), 1.0)
        with pytest.raises(ValueError):
            mc_bias_variance(0.0, fam, default_prior(1, 1.0), 5, 10, derive_rng(62, 0))


def test_fixed_target_bias_shrinks_faster_than_spread():
    # matched model, many data: squared bias of the averaged prediction is
    # an order of magnitude below the posterior spread
    biases, spreads = [], []
    for seed in range(100):
        rng = derive_rng(63, seed)
        w = rng.standard_normal(4)
        xs = rng.uniform(-2, 2, 200)
        b, v = fixed_target_concentration(0.0, w, default_prior(3, 1.0), xs, 50,
                                          derive_rng(63, seed, 1))
        biases.append(b)
        spreads.append(v)
    assert np.mean(biases) < 0.05 * np.mean(spreads)


class TestVarianceProxyGap:
    def test_matched_gap_vanishes(self):
        rng = derive_rng(64, 0)
        fam = TargetFamily(3, np.zeros(4), np.eye(4), 1.0)
        prior = default_prior(3, 1.0)
        inputs = rng.uniform(-2, 2, 20)
        for x in np.linspace(-2, 2, 20):
            assert variance_proxy_gap(float(x), fam, prior, inputs) < 1e-8

    def test_lower_order_gap_positive(self):
        rng = derive_rng(65, 0)
        fam = TargetFamily(3, np.zeros(4), np.eye(4), 1.0)
        prior = default_prior(1, 1.0)
        inputs = rng.uniform(-2, 2, 20)
        gaps = [variance_proxy_gap(float(x), fam, prior, inputs)
                for x in np.linspace(-2, 2, 20)]
        assert min(gaps) > 0.0
        assert np.mean(gaps) > 1.0

    def test_gap_equals_block_remainder_under_assumptions(self):
        # when the prior equals the family's head blocks, the gap is exactly
        # the lower-order remainder |P(x)|: two independent evaluation routes
        rng = derive_rng(66, 0)
        base = _random_family(rng, 3)
        fam = TargetFamily(3, np.zeros(4), base.cov, 1.0)
        inputs = rng.uniform(-2, 2, 15)
        part = LowerOrderPartition.from_family(fam, inputs, 1)
        prior = BprPrior(1, part.mean_head, part.cov_head, 1.0)
        for x in (0.0, 0.7, -1.4):
            gap = variance_proxy_gap(x, fam, prior, inputs)
            _, p_term, _ = lower_order_mse(x, part, prior, 1.0)
            assert gap == pytest.approx(abs(p_term), rel=1e-8)


class TestBiasBoundCheck:
    def test_identical_densities(self):
        rep = bias_bound_check(0.0, 1.0, 0.0, 1.0, 8.0)
        assert rep.epsilon == 0.0
        assert rep.bias_sq == 0.0
        assert rep.holds

    def test_shifted_mean_example(self):
        rep = bias_bound_check(0.1, 1.0, 0.0, 1.0, 8.0)
        assert rep.abs_moment == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-12)
        assert rep.bias_sq == pytest.approx(0.01)
        # ratio sup on [-8, 8]: exp(0.1*8 - 0.005) - 1
        assert rep.epsilon == pytest.approx(np.exp(0.795) - 1.0, rel=1e-3)
        assert rep.holds

    def test_narrow_truncation_rejected(self):
        with pytest.raises(TruncationError):
            bias_bound_check(0.0, 1.0, 0.0, 4.0, 3.0)

    def test_holds_on_generated_valid_instances(self):
        rng = derive_rng(67, 0)
        for _ in range(100):
            m1, m2 = rng.uniform(-2, 2, 2)
            v1, v2 = rng.uniform(0.5, 2.0, 2)
            trunc = max(abs(m1), abs(m2)) + 6.0 * float(np.sqrt(max(v1, v2)))
            assert bias_bound_check(m1, v1, m2, v2, trunc).holds

import numpy as np
import pytest

from ual_lab.analysis import (
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
    return BprPrior(order, rng.standard_normal(order + 1), cov, noise)


def _head_prior(family, p):
    """The degree-p prior equal to the family's head blocks."""
    return BprPrior(p, family.mean[: p + 1], family.cov[: p + 1, : p + 1],
                    family.noise_variance)


# Per-point references: each closed form read directly off its per-x
# formula, one x and one np.power feature row per iteration, with matrix
# products in BLAS order. The array forms sum in another order, so they must
# agree with these to rounding (1e-12 relative), not bit for bit.


def _terms_per_point(xs, family, prior, inputs):
    phi_full = design_matrix(inputs, family.degree)
    phi_hat = design_matrix(inputs, prior.degree)
    sig2 = prior.noise_variance
    mu, sigma = family.mean, family.cov
    post_cov = posterior_update(prior, inputs, np.zeros(np.size(inputs))).cov
    second_moment = np.outer(mu, mu) + sigma
    shrink = prior.precision @ prior.mean
    a_vec = post_cov @ shrink
    cross = phi_hat.T @ phi_full
    gram = phi_hat.T @ phi_hat
    xs = np.asarray(xs, dtype=float).reshape(-1)
    terms = np.empty((xs.size, 9))
    for t, x in zip(terms, xs):
        phi_l = np.power(float(x), np.arange(family.degree + 1))
        phi_p = np.power(float(x), np.arange(prior.degree + 1))
        sp_phi = post_cov @ phi_p
        b_vec = cross.T @ sp_phi
        t[0] = phi_l @ second_moment @ phi_l
        t[1] = -2.0 * (phi_p @ a_vec) * (mu @ phi_l)
        t[2] = -(2.0 / sig2) * (sp_phi @ cross @ second_moment @ phi_l)
        t[3] = (phi_p @ a_vec) ** 2
        t[4] = (1.0 / sig2) * (phi_p @ a_vec) * (mu @ b_vec)
        t[5] = (1.0 / sig2) * (b_vec @ mu) * (shrink @ sp_phi)
        t[6] = (1.0 / sig2**2) * (b_vec @ second_moment @ b_vec)
        t[7] = (1.0 / sig2) * (sp_phi @ gram @ sp_phi)
        t[8] = phi_p @ sp_phi
    return terms


def _lower_order_per_point(xs, family, prior, inputs):
    p, l = prior.degree, family.degree
    sig2 = prior.noise_variance
    phi_full = design_matrix(inputs, l)
    phi_c, phi_hat = phi_full[:, p + 1:], phi_full[:, : p + 1]
    mean_c = family.mean[p + 1:]
    cov_cross = family.cov[p + 1:, : p + 1]
    m_second = family.cov[p + 1:, p + 1:] + np.outer(mean_c, mean_c)
    post_cov = posterior_update(prior, inputs, np.zeros(np.size(inputs))).cov
    head_to_c = phi_hat.T @ phi_c
    xs = np.asarray(xs, dtype=float).reshape(-1)
    out = np.empty((3, xs.size))
    for i, x in enumerate(xs):
        c_phi = np.power(float(x), np.arange(p + 1, l + 1))
        q_phi = np.power(float(x), np.arange(p + 1))
        sp_q = post_cov @ q_phi
        t1 = float(c_phi @ m_second @ c_phi)
        t2 = -(2.0 / sig2) * float(sp_q @ head_to_c @ m_second @ c_phi)
        t3 = 2.0 * float(q_phi @ post_cov @ prior.precision @ cov_cross.T @ c_phi)
        t4 = (1.0 / sig2**2) * float(sp_q @ head_to_c @ m_second @ head_to_c.T @ sp_q)
        t5 = -(2.0 / sig2) * float(sp_q @ head_to_c @ cov_cross @ prior.precision @ sp_q)
        var_term = float(q_phi @ sp_q)
        p_term = t1 + t2 + t3 + t4 + t5
        out[:, i] = p_term + 2.0 * var_term, p_term, var_term
    return out


def _matched_per_point(xs, post):
    phis = (np.power(float(x), np.arange(post.degree + 1))
            for x in np.asarray(xs, dtype=float).reshape(-1))
    return 2.0 * np.array([phi @ post.cov @ phi for phi in phis])


def _assert_rows_independent(fn, grid):
    """fn(grid) row i equals fn([grid[i]]), bit for bit, for every i."""
    whole = fn(grid)
    for i, x in enumerate(grid):
        np.testing.assert_array_equal(whole[..., i:i + 1], fn([x]))


class TestClosedFormMse:
    def test_matched_empty_data_hand_value(self):
        # no data, unit prior, degree 1, x = 1: twice the prior quadratic form
        prior = default_prior(1, 1.0)
        assert closed_form_mse([1.0], prior, prior, [])[0] == pytest.approx(4.0)

    def test_nine_terms_sum(self):
        rng = derive_rng(50, 0)
        fam = _random_family(rng, 3)
        prior = default_prior(2, 1.0)
        xs = rng.uniform(-2, 2, 10)
        grid = rng.uniform(-2, 2, 50)
        terms = closed_form_mse_terms(grid, fam, prior, xs)
        assert terms.shape == (50, 9)
        # a grid point's terms do not depend on the rest of the grid
        _assert_rows_independent(lambda g: closed_form_mse_terms(g, fam, prior, xs).T, grid)
        total = closed_form_mse(grid, fam, prior, xs)
        assert total == pytest.approx(terms.sum(axis=1))

    @pytest.mark.parametrize("p, l", [(1, 3), (3, 3), (4, 2), (0, 0)])
    @pytest.mark.parametrize("n_train", [0, 12])
    def test_array_form_matches_per_point_loop(self, p, l, n_train):
        rng = derive_rng(59, p, l, n_train)
        fam = _random_family(rng, l, noise=0.7)
        prior = BprPrior(p, rng.standard_normal(p + 1), _random_family(rng, p).cov, 0.7)
        inputs = rng.uniform(-2, 2, n_train)
        grid = np.linspace(-2, 2, 41)
        want = _terms_per_point(grid, fam, prior, inputs)
        np.testing.assert_allclose(closed_form_mse_terms(grid, fam, prior, inputs), want,
                                   rtol=1e-12, atol=0)

    def test_matched_equals_twice_quadratic_form(self):
        rng = derive_rng(51, 0)
        grid = np.linspace(-2, 2, 50)
        for trial in range(20):
            fam = _random_family(rng, 3)
            n = (0, 5, 20, 100)[trial % 4]
            xs = rng.uniform(-2, 2, n)
            post = posterior_update(fam, xs, rng.standard_normal(n))
            e_general = closed_form_mse(grid, fam, fam, xs)
            e_matched = matched_mse(grid, post)
            assert np.all(np.abs(e_general - e_matched) / (1 + np.abs(e_general)) < 1e-8)

    def test_noise_variance_mismatch_rejected(self):
        fam = default_prior(1, 1.0)
        prior = default_prior(1, 2.0)
        with pytest.raises(ValueError):
            closed_form_mse([0.0], fam, prior, [])

    def test_agrees_with_monte_carlo(self):
        rng = derive_rng(52, 0)
        fam = default_prior(3, 1.0)
        prior = default_prior(2, 1.0)
        inputs = rng.uniform(-2, 2, 15)
        x = 0.8
        rep = mc_bias_variance(x, fam, prior, inputs, 100_000, derive_rng(52, 1))
        cf = closed_form_mse([x], fam, prior, inputs)[0]
        assert abs(cf - rep.mse) < 3.0 * rep.bias_standard_error


class TestMatchedMse:
    def test_empty_data_hand_value(self):
        post = posterior_update(default_prior(1, 1.0), [], [])
        assert matched_mse([0.0], post)[0] == pytest.approx(2.0)

    def test_identity_with_predictive_variance(self):
        rng = derive_rng(53, 0)
        for trial in range(10):
            n = int(rng.integers(0, 40))
            post = posterior_update(default_prior(3, 1.0),
                                    rng.uniform(-2, 2, n), rng.standard_normal(n))
            xs = rng.uniform(-2, 2, 10)
            _, variances = predictive_batch(post, xs)
            assert matched_mse(xs, post) == pytest.approx(2.0 * (variances - 1.0), abs=1e-12)

    @pytest.mark.parametrize("n_train", [0, 15])
    def test_array_form_matches_per_point_loop(self, n_train):
        rng = derive_rng(60, n_train)
        post = posterior_update(_random_family(rng, 3), rng.uniform(-2, 2, n_train),
                                rng.standard_normal(n_train))
        grid = rng.uniform(-2, 2, 50)
        np.testing.assert_allclose(matched_mse(grid, post), _matched_per_point(grid, post),
                                   rtol=1e-12, atol=0)
        _assert_rows_independent(lambda g: matched_mse(g, post), grid)


class TestLowerOrderMse:
    def test_degenerate_partition_collapses(self):
        rng = derive_rng(55, 0)
        fam = _random_family(rng, 2)
        total, p_term, var_term = lower_order_mse([0.7], fam, fam, rng.uniform(-2, 2, 6))
        assert p_term[0] == 0.0
        assert total[0] == 2.0 * var_term[0]

    def test_equals_general_form_under_block_assumptions(self):
        rng = derive_rng(56, 0)
        grid = np.linspace(-2, 2, 50)
        for trial in range(20):
            fam = _random_family(rng, 3)
            p = (1, 2)[trial % 2]
            xs = rng.uniform(-2, 2, 12)
            prior = _head_prior(fam, p)
            general = closed_form_mse(grid, fam, prior, xs)
            total, _, _ = lower_order_mse(grid, fam, prior, xs)
            assert np.all(np.abs(general - total) / (1 + np.abs(general)) < 1e-8)

    @pytest.mark.parametrize("p, l", [(1, 3), (0, 4), (3, 3)])
    @pytest.mark.parametrize("n_train", [0, 12])
    def test_array_form_matches_per_point_loop(self, p, l, n_train):
        rng = derive_rng(61, p, l, n_train)
        fam = _random_family(rng, l, noise=0.7)
        prior = _head_prior(fam, p)
        inputs = rng.uniform(-2, 2, n_train)
        grid = rng.uniform(-2, 2, 50)
        got = np.array(lower_order_mse(grid, fam, prior, inputs))
        np.testing.assert_allclose(got, _lower_order_per_point(grid, fam, prior, inputs),
                                   rtol=1e-12, atol=0)
        # one set of inputs as one column reads as n points, as design_matrix reads it
        np.testing.assert_array_equal(np.array(lower_order_mse(grid, fam, prior,
                                                               inputs[:, None])), got)
        _assert_rows_independent(lambda g: np.array(lower_order_mse(g, fam, prior, inputs)),
                                 grid)

    def test_prior_block_mismatch_rejected(self):
        rng = derive_rng(57, 0)
        fam = _random_family(rng, 3)
        head = _head_prior(fam, 1)
        bad = BprPrior(1, head.mean + 0.1, head.cov, 1.0)
        with pytest.raises(ValueError):
            lower_order_mse([0.0], fam, bad, rng.uniform(-2, 2, 5))

    def test_polynomial_orders_of_terms(self):
        # spread term has degree <= 2p; the remainder has degree <= 2l
        rng = derive_rng(58, 0)
        fam = _random_family(rng, 3)
        p, l = 1, 3
        inputs = rng.uniform(-2, 2, 10)
        grid = np.linspace(-2, 2, 2 * l + 1)
        _, p_vals, var_vals = lower_order_mse(grid, fam, _head_prior(fam, p), inputs)
        var_coeffs = np.polynomial.polynomial.polyfit(grid, var_vals, 2 * l)
        p_coeffs = np.polynomial.polynomial.polyfit(grid, p_vals, 2 * l)
        scale = np.abs(var_coeffs).max()
        assert np.all(np.abs(var_coeffs[2 * p + 1:]) < 1e-9 * scale)
        assert np.abs(p_coeffs[2 * l]) > 1e-9  # generic instance keeps full order


class TestMcBiasVariance:
    def test_no_data_matches_prior_moment(self):
        # with no training data the deviation is the target's own spread:
        # analytic oracle phi^T (Sigma + mu mu^T) phi with mu = 0
        prior = default_prior(2, 1.0)
        x = 1.3
        rep = mc_bias_variance(x, prior, prior, [], 50_000, derive_rng(59, 0))
        phi = np.array([1.0, x, x * x])
        oracle = float(phi @ np.eye(3) @ phi)
        assert rep.variance == pytest.approx(oracle, abs=1e-12)
        assert abs(rep.bias - oracle) < 4.0 * rep.bias_standard_error

    def test_decomposition_identity_exact(self):
        rng = derive_rng(60, 0)
        rep = mc_bias_variance(0.4, default_prior(3, 1.0), default_prior(1, 1.0),
                               rng.uniform(-2, 2, 10), 5_000, rng)
        assert rep.mse == rep.bias + rep.variance

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
        prior = default_prior(1, 1.0)
        with pytest.raises(ValueError):
            mc_bias_variance(0.0, prior, prior, np.linspace(-2, 2, 5), 10, derive_rng(62, 0))


class TestOneSetOracles:
    # The oracles read their one set of training inputs as design_matrix
    # does: an (n, 1) column is that set, and a stack of sets raises.

    def test_a_stack_raises(self):
        fam, prior = default_prior(2, 1.0), default_prior(1, 1.0)
        stack = derive_rng(70, 0).uniform(-2, 2, (2, 4))
        for call in (lambda: mc_bias_variance(0.3, fam, prior, stack, 1000, derive_rng(70, 1)),
                     lambda: fixed_target_concentration(0.3, [1.0, -0.5, 0.2], prior, stack,
                                                        50, derive_rng(70, 2))):
            with pytest.raises(ValueError, match=r"univariate; got inputs of shape \(2, 4\)"):
                call()

    def test_a_column_is_the_set(self):
        fam, prior = default_prior(3, 1.0), default_prior(1, 1.0)
        inputs = derive_rng(71, 0).uniform(-2, 2, 7)
        for x in (-1.1, 0.3):
            flat = mc_bias_variance(x, fam, prior, inputs, 2000, derive_rng(71, 1))
            column = mc_bias_variance(x, fam, prior, inputs[:, None], 2000, derive_rng(71, 1))
            assert column == flat
            coefficients = [0.5, -1.0, 0.25, 0.1]
            flat = fixed_target_concentration(x, coefficients, prior, inputs, 50,
                                              derive_rng(71, 2))
            column = fixed_target_concentration(x, coefficients, prior, inputs[:, None], 50,
                                                derive_rng(71, 2))
            assert column == flat


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
        prior = default_prior(3, 1.0)
        inputs = rng.uniform(-2, 2, 20)
        assert np.all(variance_proxy_gap(np.linspace(-2, 2, 20), prior, prior, inputs) < 1e-8)

    def test_lower_order_gap_positive(self):
        rng = derive_rng(65, 0)
        inputs = rng.uniform(-2, 2, 20)
        gaps = variance_proxy_gap(np.linspace(-2, 2, 20), default_prior(3, 1.0),
                                  default_prior(1, 1.0), inputs)
        assert min(gaps) > 0.0
        assert np.mean(gaps) > 1.0

    def test_gap_equals_block_remainder_under_assumptions(self):
        # when the prior equals the family's head blocks, the gap is exactly
        # the lower-order remainder |P(x)|: two independent evaluation routes
        rng = derive_rng(66, 0)
        base = _random_family(rng, 3)
        fam = BprPrior(3, np.zeros(4), base.cov, 1.0)
        inputs = rng.uniform(-2, 2, 15)
        prior = _head_prior(fam, 1)
        xs = [0.0, 0.7, -1.4]
        _, p_term, _ = lower_order_mse(xs, fam, prior, inputs)
        assert variance_proxy_gap(xs, fam, prior, inputs) == pytest.approx(np.abs(p_term),
                                                                           rel=1e-8)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shape", [(9,), (3, 9)], ids=["one set", "stack of 3"])
    def test_gap_is_read_off_the_nine_terms(self, l, shape):
        # the last term is the spread phi^T Sigma_p phi, summed as the gap sums
        # it, so one closed-form pass holds everything the gap needs
        rng = derive_rng(69, l, len(shape))
        fam = _random_family(rng, l, noise=0.7)   # non-zero means
        grid = np.linspace(-2, 2, 23)
        inputs = rng.uniform(-2, 2, shape)
        for p in range(l + 1):
            prior = _head_prior(fam, p)
            terms = closed_form_mse_terms(grid, fam, prior, inputs)
            np.testing.assert_array_equal(variance_proxy_gap(grid, fam, prior, inputs),
                                          np.abs(terms.sum(-1) - 2 * terms[..., 8]))


_STACKED = (closed_form_mse_terms, closed_form_mse, variance_proxy_gap)


class TestStackOfTrainingSets:
    # An (S, n) stack of training sets gives, per set, the bits of that set
    # alone: BLAS and LAPACK run once per set, and the grid sums never mix sets.

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_sets", [1, 3])
    def test_stack_equals_single_calls(self, l, n_sets):
        rng = derive_rng(67, l, n_sets)
        fam = _random_family(rng, l, noise=0.7)
        grid = np.linspace(-2, 2, 23)
        sets = rng.uniform(-2, 2, (n_sets, 9))
        for p in range(l + 1):
            prior = _head_prior(fam, p)
            for fn in _STACKED:
                stacked = fn(grid, fam, prior, sets)
                single = np.array([fn(grid, fam, prior, one) for one in sets])
                assert stacked.shape == single.shape
                np.testing.assert_array_equal(stacked, single)

    def test_one_set_keeps_its_shapes(self):
        rng = derive_rng(68, 0)
        fam, grid, inputs = _random_family(rng, 3), np.linspace(-2, 2, 11), rng.uniform(-2, 2, 8)
        prior = _head_prior(fam, 1)
        assert closed_form_mse_terms(grid, fam, prior, inputs).shape == (11, 9)
        assert closed_form_mse(grid, fam, prior, inputs).shape == (11,)
        assert variance_proxy_gap(grid, fam, prior, inputs).shape == (11,)
        assert closed_form_mse_terms(grid, fam, prior, inputs[None]).shape == (1, 11, 9)
        assert variance_proxy_gap(grid, fam, prior, inputs[None]).shape == (1, 11)

    def test_a_column_is_a_stack_of_one_point_sets(self):
        # a 2-D input is always a stack: an (n, 1) column is n sets of one point
        rng = derive_rng(72, 0)
        fam, grid = _random_family(rng, 3), np.linspace(-2, 2, 11)
        column = rng.uniform(-2, 2, (6, 1))
        for p in range(4):
            prior = _head_prior(fam, p)
            np.testing.assert_array_equal(
                closed_form_mse(grid, fam, prior, column),
                np.array([closed_form_mse(grid, fam, prior, [c]) for c in column.ravel()]))

    def test_three_dimensional_inputs_raise(self):
        fam = default_prior(2, 1.0)
        cube = np.zeros((2, 3, 4))
        for fn in _STACKED:
            with pytest.raises(ValueError, match="stack of sets"):
                fn([0.0, 1.0], fam, fam, cube)


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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ual_lab.bpr import default_prior, posterior_update, predictive_batch
from ual_lab.errors import NumericalError
from ual_lab.gpr import (
    KernelSpec,
    PoolPredictions,
    distances,
    gp_fit,
    gp_predict_batch,
    kernel_matrix,
    prefix_predictions,
)
from ual_lab.rng import derive_rng


def _k(spec, x, x2):
    return float(kernel_matrix(spec, [x], [x2])[0, 0])


class TestKernels:
    @pytest.mark.parametrize("d", [0, 1, 2, 8, 11])
    def test_distances_equal_cdist_bitwise(self, d):
        rng = derive_rng(29, d)
        xa = rng.standard_normal((17, d)) * rng.uniform(0.01, 100.0, d)
        xb = rng.standard_normal((9, d)) * rng.uniform(0.01, 100.0, d)
        got = distances(xa, xb)
        assert got.shape == (17, 9)
        np.testing.assert_array_equal(got, cdist(xa, xb))

    def test_rbf_zero_distance(self):
        spec = KernelSpec("rbf", amplitude=2.5, lengthscale=0.7)
        assert _k(spec, [1.3], [1.3]) == pytest.approx(2.5)

    def test_rbf_unit_distance(self):
        spec = KernelSpec("rbf", amplitude=1.0, lengthscale=1.0)
        assert _k(spec, [0.0], [1.0]) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_linear_hand_value(self):
        spec = KernelSpec("linear", bias=1.0, weight=1.0)
        assert _k(spec, [2.0], [3.0]) == pytest.approx(7.0)

    def test_matern52_formula(self):
        spec = KernelSpec("matern52", amplitude=1.0, lengthscale=1.0)
        r = 0.8
        s = np.sqrt(5) * r
        expected = (1 + s + s * s / 3.0) * np.exp(-s)
        assert _k(spec, [0.0], [r]) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_matrix(KernelSpec("rbf"), [[0.0]], [[0.0, 1.0]])

    def test_matrix_is_psd(self):
        rng = derive_rng(30, 0)
        xs = rng.uniform(-2, 2, (20, 3))
        for kind in ("linear", "rbf", "matern52"):
            gram = kernel_matrix(KernelSpec(kind), xs, xs)
            assert np.linalg.eigvalsh(gram).min() > -1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", amplitude=-1.0)
        with pytest.raises(ValueError):
            KernelSpec("nope")


class TestFitPredict:
    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="at least one training point"):
            gp_fit(KernelSpec("rbf"), np.zeros((0, 1)), [], 1.0)

    def test_single_point_hand_values(self):
        model = gp_fit(KernelSpec("rbf"), [[0.0]], [2.0], 1.0)
        np.testing.assert_allclose(model.whitened_outputs, [2.0 / np.sqrt(2.0)])
        (mean,), (var,) = gp_predict_batch(model, [[0.0]], include_noise=False)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.5, abs=1e-12)

    def test_duplicate_inputs_with_noise(self):
        model = gp_fit(KernelSpec("rbf"), [[0.5], [0.5], [0.5]], [1.0, 1.2, 0.8], 0.5)
        assert np.all(np.isfinite(model.whitened_outputs))

    def test_interpolation_as_noise_vanishes(self):
        rng = derive_rng(31, 0)
        xs = np.sort(rng.uniform(-2, 2, 12))[:, None]
        ys = np.sin(xs[:, 0])
        model = gp_fit(KernelSpec("rbf", lengthscale=0.8), xs, ys, 1e-10)
        means, _ = gp_predict_batch(model, xs, include_noise=False)
        np.testing.assert_allclose(means, ys, atol=1e-4)

    def test_latent_variance_bounds(self):
        rng = derive_rng(32, 0)
        xs = rng.uniform(-2, 2, (25, 1))
        model = gp_fit(KernelSpec("matern52"), xs, rng.standard_normal(25), 1.0)
        qs = rng.uniform(-2, 2, (100, 1))
        _, variances = gp_predict_batch(model, qs, include_noise=False)
        assert np.all(variances >= -1e-8)
        assert np.all(variances <= 1.0 + 1e-8)

    def test_variance_monotone_under_data(self):
        rng = derive_rng(33, 0)
        xs = rng.uniform(-2, 2, (20, 1))
        ys = rng.standard_normal(20)
        qs = rng.uniform(-2, 2, (30, 1))
        prev = None
        for n in range(1, 21):
            model = gp_fit(KernelSpec("rbf"), xs[:n], ys[:n], 1.0)
            _, variances = gp_predict_batch(model, qs, include_noise=False)
            if prev is not None:
                assert np.all(variances <= prev + 1e-9)
            prev = variances

    def test_noise_flag_offsets_by_sigma2(self):
        rng = derive_rng(34, 0)
        model = gp_fit(KernelSpec("rbf"), rng.uniform(-2, 2, (8, 1)),
                       rng.standard_normal(8), 0.3)
        qs = rng.uniform(-2, 2, (5, 1))
        _, latent = gp_predict_batch(model, qs, include_noise=False)
        _, noisy = gp_predict_batch(model, qs, include_noise=True)
        np.testing.assert_allclose(noisy - latent, 0.3, atol=1e-12)


def test_linear_kernel_equals_degree_one_regression():
    # unit linear kernel vs the unit-prior linear model: same posterior
    rng = derive_rng(35, 0)
    for trial in range(50):
        n = int(rng.integers(1, 51))
        xs = rng.uniform(-2, 2, n)
        ys = 3.0 * rng.standard_normal(n)
        sig2 = float(rng.uniform(0.3, 2.0))
        post = posterior_update(default_prior(1, sig2), xs, ys)
        gp = gp_fit(KernelSpec("linear", bias=1.0, weight=1.0), xs[:, None], ys, sig2)
        qs = rng.uniform(-2, 2, 20)
        bpr_mean, bpr_var = predictive_batch(post, qs)
        gp_mean, gp_var = gp_predict_batch(gp, qs[:, None], include_noise=True)
        np.testing.assert_allclose(gp_mean, bpr_mean, atol=1e-8)
        np.testing.assert_allclose(gp_var, bpr_var, atol=1e-8)


def test_a_flat_array_is_one_dimensional_points():
    # (n,) is n points of one dimension, as design_matrix and build_pool read it
    rng = derive_rng(36, 0)
    xs, ys, qs = rng.uniform(-2, 2, 6), rng.standard_normal(6), rng.uniform(-2, 2, 9)
    for kind in ("linear", "rbf", "matern52"):
        spec = KernelSpec(kind)
        np.testing.assert_array_equal(kernel_matrix(spec, xs, xs),
                                      kernel_matrix(spec, xs[:, None], xs[:, None]))
        np.testing.assert_array_equal(kernel_matrix(spec, xs[0], qs),
                                      kernel_matrix(spec, xs[:1, None], qs[:, None]))
        flat, column = gp_fit(spec, xs, ys, 0.5), gp_fit(spec, xs[:, None], ys, 0.5)
        for got, want in ((gp_predict_batch(flat, qs), gp_predict_batch(column, qs[:, None])),
                          (prefix_predictions(flat, qs), prefix_predictions(column, qs[:, None]))):
            np.testing.assert_array_equal(got, want)
        means, latent = gp_predict_batch(column, qs[:, None], include_noise=False)
        pools = [PoolPredictions(column, points, means, latent, 7)
                 for points in (qs, qs[:, None])]
        for pool in pools:
            pool.append(4, 1.5)
        np.testing.assert_array_equal(pools[0].means, pools[1].means)
        np.testing.assert_array_equal(pools[0].latent, pools[1].latent)


@st.composite
def _append_cases(draw):
    """A kernel, a noise level, a 1-D or 2-D pool with near-duplicates mixed in, and
    a label order. A linear kernel's prior diagonal 1 + |x|^2 is not its amplitude."""
    kind = draw(st.sampled_from(("linear", "rbf", "matern52")))
    noise = draw(st.floats(1e-2, 10.0))
    dim = draw(st.sampled_from((1, 2)))
    base = draw(st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * dim), min_size=1, max_size=25))
    near = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.floats(-1e-8, 1e-8)),
                         max_size=10))
    pool = np.array(base + [tuple(c + eps for c in base[i]) for i, eps in near])
    order = np.array(draw(st.permutations(range(len(pool)))))
    ys = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=len(pool),
                                max_size=len(pool))))
    return KernelSpec(kind), noise, pool, order, ys


def _pool_start(spec, pool, index, y, noise, capacity):
    fit = gp_fit(spec, pool[index:index + 1], [y], noise)
    means, latent = gp_predict_batch(fit, pool, include_noise=False)
    return PoolPredictions(fit, pool, means, latent, capacity)


class TestAppend:
    @settings(max_examples=150, deadline=None)
    @given(_append_cases())
    def test_chained_appends_equal_one_fit(self, case):
        spec, noise, pool, order, ys = case
        grown = _pool_start(spec, pool, order[0], ys[0], noise, len(order))
        for j, y in zip(order[1:], ys[1:]):
            grown.append(j, y)
        scratch = gp_fit(spec, pool[order], ys, noise)
        means, latent = gp_predict_batch(scratch, pool, include_noise=False)
        tol = {"rtol": 1e-10, "atol": 1e-12}
        np.testing.assert_allclose(grown.means, means, **tol)
        np.testing.assert_allclose(grown.latent, latent, **tol)

    def test_zero_pivot_raises(self):
        # bias 0, weight 1: K = [[1, 2], [2, 4]] is singular, and noise 0 adds nothing
        pool = np.array([[1.0], [2.0]])
        grown = _pool_start(KernelSpec("linear", bias=0.0, weight=1.0), pool, 0, 1.0, 0.0, 2)
        with pytest.raises(NumericalError, match="GP append"):
            grown.append(1, 2.0)

    def test_non_finite_label_raises(self):
        grown = _pool_start(KernelSpec("rbf"), np.array([[0.0], [1.0]]), 0, 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="not finite"):
            grown.append(1, np.nan)


@settings(max_examples=100, deadline=None)
@given(_append_cases())
def test_prefix_predictions_equal_a_fit_per_prefix(case):
    # the leading blocks of one factor of the whole order serve every prefix
    spec, noise, pool, order, ys = case
    means, latent = prefix_predictions(gp_fit(spec, pool[order], ys, noise), pool)
    assert means.shape == latent.shape == (len(order), len(pool))
    tol = {"rtol": 1e-10, "atol": 1e-12}
    for t in range(len(order)):
        fit = gp_fit(spec, pool[order[:t + 1]], ys[:t + 1], noise)
        want_means, want_latent = gp_predict_batch(fit, pool, include_noise=False)
        np.testing.assert_allclose(means[t], want_means, **tol)
        np.testing.assert_allclose(latent[t], want_latent, **tol)

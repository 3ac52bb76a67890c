import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ual_lab.bpr import default_prior, posterior_update, predictive_batch
from ual_lab.errors import NumericalError
from ual_lab.gpr import (
    KernelSpec,
    fit_lengthscale_grid,
    gp_append,
    gp_fit,
    gp_predict_batch,
    kernel_matrix,
    log_marginal_likelihood,
)
from ual_lab.rng import derive_rng


def _k(spec, x, x2):
    return float(kernel_matrix(spec, [x], [x2])[0, 0])


class TestKernels:
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
    def test_empty_data_prior(self):
        model = gp_fit(KernelSpec("rbf"), np.zeros((0, 1)), [], 1.0)
        (mean,), (var,) = gp_predict_batch(model, [[0.7]], include_noise=False)
        assert mean == 0.0 and var == pytest.approx(1.0)

    def test_single_point_hand_values(self):
        model = gp_fit(KernelSpec("rbf"), [[0.0]], [2.0], 1.0)
        np.testing.assert_allclose(model.weights, [1.0])
        (mean,), (var,) = gp_predict_batch(model, [[0.0]], include_noise=False)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.5, abs=1e-12)

    def test_duplicate_inputs_with_noise(self):
        model = gp_fit(KernelSpec("rbf"), [[0.5], [0.5], [0.5]], [1.0, 1.2, 0.8], 0.5)
        assert np.all(np.isfinite(model.weights))

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
        for n in range(21):
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


def test_lengthscale_grid_prefers_data_scale():
    rng = derive_rng(36, 0)
    xs = np.sort(rng.uniform(-2, 2, 60))[:, None]
    ys = np.sin(2.0 * xs[:, 0]) + 0.05 * rng.standard_normal(60)
    model = fit_lengthscale_grid(KernelSpec("rbf"), xs, ys, 0.01)
    assert model.kernel.lengthscale in (0.3, 1.0)
    best_ll = log_marginal_likelihood(model)
    worse = gp_fit(KernelSpec("rbf", lengthscale=10.0), xs, ys, 0.01)
    assert best_ll > log_marginal_likelihood(worse)


@st.composite
def _append_cases(draw):
    """A kernel, a noise level and inputs with near-duplicates mixed in."""
    kind = draw(st.sampled_from(("linear", "rbf", "matern52")))
    noise = draw(st.floats(1e-2, 10.0))
    base = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=25))
    near = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.floats(-1e-8, 1e-8)),
                         max_size=10))
    xs = base + [base[i] + eps for i, eps in near]
    order = draw(st.permutations(range(len(xs))))
    xs = np.array([xs[i] for i in order])[:, None]
    ys = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=len(xs), max_size=len(xs))))
    return KernelSpec(kind), noise, xs, ys


class TestAppend:
    @settings(max_examples=150, deadline=None)
    @given(_append_cases())
    def test_chained_appends_equal_one_fit(self, case):
        spec, noise, xs, ys = case
        grown = gp_fit(spec, xs[:1], ys[:1], noise)
        for x, y in zip(xs[1:], ys[1:]):
            grown = gp_append(grown, x, y)
        scratch = gp_fit(spec, xs, ys, noise)
        tol = {"rtol": 1e-10, "atol": 1e-12}
        np.testing.assert_array_equal(grown.train_inputs, scratch.train_inputs)
        np.testing.assert_array_equal(grown.train_outputs, scratch.train_outputs)
        np.testing.assert_allclose(grown.chol_factor, scratch.chol_factor, **tol)
        np.testing.assert_allclose(grown.weights, scratch.weights, **tol)
        qs = np.linspace(-2.5, 2.5, 41)[:, None]
        for got, want in zip(gp_predict_batch(grown, qs), gp_predict_batch(scratch, qs)):
            np.testing.assert_allclose(got, want, **tol)

    def test_append_to_empty_fit(self):
        spec = KernelSpec("rbf")
        grown = gp_append(gp_fit(spec, np.zeros((0, 1)), [], 0.5), [0.3], 1.2)
        scratch = gp_fit(spec, [[0.3]], [1.2], 0.5)
        np.testing.assert_allclose(grown.chol_factor, scratch.chol_factor, rtol=1e-15)
        np.testing.assert_allclose(grown.weights, scratch.weights, rtol=1e-15)

    def test_zero_pivot_raises(self):
        # bias 0, weight 1: K = [[1, 2], [2, 4]] is singular, and noise 0 adds nothing
        model = gp_fit(KernelSpec("linear", bias=0.0, weight=1.0), [[1.0]], [1.0], 0.0)
        with pytest.raises(NumericalError):
            gp_append(model, [2.0], 2.0)

import numpy as np
import pytest

from ual_lab.rng import derive_rng
from ual_lab.synthetic import (
    POLYNOMIAL_PLUS_COSINE,
    GroundTruthTarget,
    build_pool,
    build_test_set,
    eval_target,
    gradient_bound,
    sample_target,
)


class TestSampleTarget:
    def test_seeded_determinism(self):
        a = sample_target(3, derive_rng(1, 0))
        b = sample_target(3, derive_rng(1, 0))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.coefficients.shape == (4,)

    def test_order_zero_is_constant(self):
        t = sample_target(0, derive_rng(2, 0))
        assert t.coefficients.shape == (1,)
        assert eval_target(t, -1.3) == eval_target(t, 5.0)

    def test_cosine_kind_adds_one_cycle_component(self):
        t = sample_target(2, derive_rng(3, 0), POLYNOMIAL_PLUS_COSINE)
        assert t.cosine_amplitude == 1.0
        assert t.cosine_frequency == 1.0
        w = t.coefficients
        x = 0.37
        poly = w[0] + w[1] * x + w[2] * x * x
        assert eval_target(t, x) == pytest.approx(poly + np.cos(2 * np.pi * x), abs=1e-12)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown target kind 'cosine'"):
            sample_target(2, derive_rng(3, 1), "cosine")


class TestEvalTarget:
    def test_constant_coefficient(self):
        t = GroundTruthTarget([1, 0, 0, 0])
        for x in (-2.0, 0.0, 1.7):
            assert eval_target(t, x) == 1.0

    def test_identity_monomial(self):
        t = GroundTruthTarget([0, 1, 0, 0])
        assert eval_target(t, 2.0) == 2.0

    def test_hand_polynomial(self):
        # 1 - 2 + 3 at x = -1
        t = GroundTruthTarget([1, 2, 3])
        assert eval_target(t, -1.0) == pytest.approx(2.0, abs=1e-14)

    def test_vectorized_matches_scalar(self):
        t = sample_target(3, derive_rng(4, 0), POLYNOMIAL_PLUS_COSINE)
        xs = np.linspace(-2, 2, 9)
        batch = eval_target(t, xs)
        np.testing.assert_allclose(batch, [eval_target(t, float(x)) for x in xs], atol=1e-14)


class TestBuildPool:
    def test_even_partition(self):
        pool = build_pool(3, -2.0, 2.0)
        assert pool.shape == (3, 1)
        np.testing.assert_array_equal(pool[:, 0], [-2.0, 0.0, 2.0])

    def test_protocol_scale_spacing(self):
        pool = build_pool(200, -2.0, 2.0)
        xs = pool[:, 0]
        assert xs[0] == -2.0 and xs[-1] == 2.0
        np.testing.assert_allclose(np.diff(xs), 4.0 / 199.0, atol=1e-12)

    def test_two_points(self):
        pool = build_pool(2, 0.0, 1.0)
        np.testing.assert_array_equal(pool[:, 0], [0.0, 1.0])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_pool(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            build_pool(10, 1.0, 1.0)


class TestBuildTestSet:
    def test_sizes_and_determinism(self):
        t = sample_target(3, derive_rng(8, 0))
        a = build_test_set(500, -2.0, 2.0, t, derive_rng(9, 0))
        b = build_test_set(500, -2.0, 2.0, t, derive_rng(9, 0))
        assert a.inputs.shape == (500, 1)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.observed_outputs, b.observed_outputs)

    def test_noiseless_observed_equals_clean(self):
        t = GroundTruthTarget([1, 0, 1], noise_variance=0.0)
        ts = build_test_set(50, -2.0, 2.0, t, derive_rng(10, 0))
        np.testing.assert_array_equal(ts.observed_outputs, ts.clean_outputs)


def test_gradient_bound_covers_sampled_slopes():
    t = sample_target(2, derive_rng(12, 0), POLYNOMIAL_PLUS_COSINE)
    bound = gradient_bound(t, -2.0, 2.0)
    xs = np.linspace(-2, 2, 4001)
    vals = np.asarray(eval_target(t, xs))
    slopes = np.abs(np.diff(vals) / np.diff(xs))
    assert slopes.max() <= bound
    assert bound == int(bound)

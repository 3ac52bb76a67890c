import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ual_lab import acquisition as acq
from ual_lab import alloop, gpr
from ual_lab.acquisition import StrategySpec
from ual_lab.alloop import BprLearner, GprLearner, SyntheticOracle, run_al
from ual_lab.gpr import KernelSpec, gp_fit, gp_predict_batch
from ual_lab.rng import derive_rng
from ual_lab.synthetic import TestSet as HoldoutSet
from ual_lab.synthetic import build_pool, build_test_set, gradient_bound, sample_target


def _setup(seed=0, pool_n=20, test_n=60, order=3, noise=1.0):
    target = sample_target(order, derive_rng(70, seed, 0), noise_variance=noise)
    pool = build_pool(pool_n, -2, 2)
    oracle = SyntheticOracle(target, 70, (seed, 1))
    labels = np.array([oracle.label(i, x) for i, x in enumerate(pool)])
    init_idx = int(derive_rng(70, seed, 2).integers(pool_n))
    test = build_test_set(test_n, -2, 2, target, derive_rng(70, seed, 3))
    return target, labels, pool, init_idx, test


class TestRunAl:
    def test_zero_budget_records_only_initial_model(self):
        _, labels, pool, init, test = _setup()
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), pool, labels,
                       init, test, 0, derive_rng(70, 0, 4))
        assert trace.test_mse.shape == trace.bias.shape == trace.variance.shape == (1,)
        assert trace.chosen_x.shape == (0, 1)

    def test_labeled_count_grows_by_one_per_step(self):
        _, labels, pool, init, test = _setup()
        budget = 10
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), pool, labels,
                       init, test, budget, derive_rng(70, 0, 5))
        assert trace.test_mse.shape == (budget + 1,)
        assert trace.chosen_x.shape == (budget, 1)
        # conservation: every acquisition is a distinct pool candidate
        assert len(np.unique(trace.chosen_x)) == budget

    def test_budget_exceeding_pool_rejected(self):
        _, labels, pool, init, test = _setup(pool_n=5)
        with pytest.raises(ValueError):
            run_al(BprLearner(1, 1.0), StrategySpec("random"), pool, labels,
                   init, test, 5, derive_rng(70, 0, 6))

    def test_init_index_outside_pool_rejected(self):
        _, labels, pool, _, test = _setup(pool_n=5)
        with pytest.raises(ValueError, match="init_index"):
            run_al(BprLearner(1, 1.0), StrategySpec("random"), pool, labels, 5, test, 1,
                   derive_rng(70, 0, 6))

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1)], ids=str)
    def test_wrong_shaped_labels_rejected(self, shape):
        _, _, pool, init, test = _setup(pool_n=5)
        with pytest.raises(ValueError, match="labels of shape"):
            run_al(BprLearner(1, 1.0), StrategySpec("random"), pool, np.zeros(shape),
                   init, test, 1, derive_rng(70, 0, 6))

    def test_full_pool_exhaustion_is_order_independent(self):
        # every strategy ends with the same labeled set, so the same model
        _, labels, pool, init, test = _setup(pool_n=12)
        budget = len(pool) - 1
        final = {}
        for kind in ("variance", "random"):
            trace = run_al(BprLearner(2, 1.0), StrategySpec(kind), pool, labels,
                           init, test, budget, derive_rng(70, 0, 7))
            final[kind] = trace.test_mse[-1]
        assert final["variance"] == pytest.approx(final["random"], abs=1e-9)

    def test_trace_is_deterministic(self):
        _, labels, pool, init, test = _setup()
        runs = [run_al(BprLearner(3, 1.0), StrategySpec("random"), pool, labels,
                       init, test, 8, derive_rng(70, 0, 8)) for _ in range(2)]
        np.testing.assert_array_equal(runs[0].chosen_x, runs[1].chosen_x)
        np.testing.assert_array_equal(runs[0].test_mse, runs[1].test_mse)

    def test_random_selection_ignores_the_model(self):
        _, labels, pool, init, test = _setup()
        chosen = {}
        for degree in (1, 4):
            trace = run_al(BprLearner(degree, 1.0), StrategySpec("random"), pool, labels,
                           init, test, 8, derive_rng(70, 0, 9))
            chosen[degree] = trace.chosen_x
        np.testing.assert_array_equal(chosen[1], chosen[4])

    def test_gp_learner_and_remedies_run(self):
        target, labels, pool, init, test = _setup()
        for spec in (
            StrategySpec("direct_mse"),
            StrategySpec("upper_bound", gradient_bound=gradient_bound(target, -2, 2)),
        ):
            trace = run_al(GprLearner(KernelSpec("rbf"), 1.0), spec, pool, labels,
                           init, test, 5, derive_rng(70, 0, 10))
            assert np.all(np.isfinite(trace.test_mse))

    def test_unresolved_auto_bound_rejected(self):
        _, labels, pool, init, test = _setup()
        with pytest.raises(ValueError):
            run_al(BprLearner(1, 1.0), StrategySpec("upper_bound", gradient_bound="auto"),
                   pool, labels, init, test, 2, derive_rng(70, 0, 11))

    def test_decomposition_components_sum_to_mse(self):
        _, labels, pool, init, test = _setup()
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), pool, labels,
                       init, test, 4, derive_rng(70, 0, 12))
        np.testing.assert_allclose(trace.test_mse, trace.bias + trace.variance, rtol=1e-12)


def _refit_surrogate_choices(learner, strategy, labels, pool, init, budget):
    """Reference selections: refit the surrogate with ``gp_fit`` before every step."""
    labeled = [init]
    for _ in range(budget):
        xs, ys = pool[labeled], labels[labeled]
        model = learner.fit(xs, ys)
        surrogate = gp_fit(strategy.surrogate_kernel, xs, ys, model.noise_variance)
        active = np.setdiff1d(np.arange(len(pool)), labeled)
        means, latent = gp_predict_batch(surrogate, pool[active], include_noise=False)
        if strategy.kind == acq.DIRECT_MSE:
            scores = acq.score_direct_mse(model, pool[active], means)
        else:
            scores = acq.score_upper_bound(model, pool[active], means, latent,
                                           cdist(pool[active], xs).min(axis=1),
                                           strategy.gradient_bound, strategy.confidence,
                                           pool_size=active.size)
        labeled.append(acq.select(active, scores))
    return pool[labeled[1:]]


def _dataset_shaped_run(seed, pool_n=150, test_n=100):
    """A 2-D pool drawn like a dataset's rows, noisy labels, observed-only test outputs."""
    rng = derive_rng(75, seed)
    pool = rng.uniform(-2, 2, (pool_n + test_n, 2))
    ys = np.sin(2.0 * pool[:, 0]) + 0.5 * pool[:, 1] ** 2 + 0.3 * rng.standard_normal(len(pool))
    test = HoldoutSet(pool[pool_n:], ys[pool_n:], None)
    return pool[:pool_n], ys[:pool_n], int(rng.integers(pool_n)), test


@pytest.mark.parametrize("seed, dim", [
    pytest.param(0, 1, id="0"), pytest.param(1, 1, id="1"), pytest.param(2, 1, id="2"),
    pytest.param(0, 2, id="2d-0"),
])
def test_extended_surrogate_selects_as_refit_surrogate(seed, dim):
    # fig10/fig11 shape: linear model, quadratic-plus-cosine target, pool of 200;
    # 2-D: a GP learner on a dataset-shaped pool of 150
    if dim == 1:
        target = sample_target(2, derive_rng(73, seed, 0), "polynomial-plus-cosine")
        pool = build_pool(200, -2, 2)
        oracle = SyntheticOracle(target, 73, (seed, 1))
        labels = np.array([oracle.label(i, x) for i, x in enumerate(pool)])
        init_idx = int(derive_rng(73, seed, 2).integers(200))
        test = build_test_set(500, -2, 2, target, derive_rng(73, seed, 3))
        bound = gradient_bound(target, -2, 2)

        def learner():
            return BprLearner(1, 1.0)
    else:
        pool, labels, init_idx, test = _dataset_shaped_run(seed)
        bound = 3.0

        def learner():
            return GprLearner(KernelSpec("matern52", lengthscale=1.0), 0.1)
    budget = 60
    for strategy in (
        StrategySpec("direct_mse"),
        StrategySpec("upper_bound", gradient_bound=bound),
    ):
        trace = run_al(learner(), strategy, pool, labels, init_idx, test, budget,
                       derive_rng(73, seed, 4))
        want = _refit_surrogate_choices(learner(), strategy, labels, pool, init_idx, budget)
        np.testing.assert_array_equal(trace.chosen_x, want, err_msg=strategy.kind)


@pytest.mark.parametrize("dim", [1, 2])
def test_running_distance_equals_nearest_labeled_distance(dim, monkeypatch):
    # the distances upper_bound scores with are, bit for bit, the distances
    # from each active candidate to its nearest labeled one
    if dim == 1:
        _, labels, pool, init, test = _setup(seed=6, pool_n=80)
        learner = BprLearner(1, 1.0)
    else:
        pool, labels, init, test = _dataset_shaped_run(1, pool_n=80)
        learner = GprLearner(KernelSpec("rbf"), 0.1)
    seen = []
    score = acq.score_upper_bound

    def recording(model, xs, means, latent, d_min, *args, **kwargs):
        seen.append((xs.copy(), d_min.copy()))
        return score(model, xs, means, latent, d_min, *args, **kwargs)

    monkeypatch.setattr(acq, "score_upper_bound", recording)
    trace = run_al(learner, StrategySpec("upper_bound", gradient_bound=2.0), pool, labels,
                   init, test, 40, derive_rng(70, 6, 4))
    assert len(seen) == 40
    for step, (xs, d_min) in enumerate(seen):
        labeled = np.vstack([pool[init:init + 1], trace.chosen_x[:step]])
        np.testing.assert_array_equal(d_min, cdist(xs, labeled).min(axis=1))


def test_surrogate_kernel_work_is_linear_in_budget(monkeypatch):
    # an upper_bound run evaluates O(budget * m) kernel entries over a pool
    # of m: one pool row per label, no per-step pass over the labeled set
    counted = []
    kernel = gpr.kernel_matrix

    def counting(spec, xa, xb):
        k = kernel(spec, xa, xb)
        counted.append(k.size)
        return k

    monkeypatch.setattr(gpr, "kernel_matrix", counting)
    _, labels, pool, init, test = _setup(seed=7, pool_n=200)
    budget = 60
    run_al(BprLearner(1, 1.0), StrategySpec("upper_bound", gradient_bound=3.0), pool, labels,
           init, test, budget, derive_rng(70, 7, 4))
    m = len(pool)
    # the fit, the step-0 prediction, the step-0 cross row and one row per label
    assert sum(counted) <= (budget + 3) * m


class TestOracles:
    def test_synthetic_labels_are_pure_functions_of_index(self):
        target = sample_target(2, derive_rng(71, 0))
        oracle = SyntheticOracle(target, 71, (0, 1))
        x = np.array([0.5])
        assert oracle.label(3, x) == oracle.label(3, x)
        assert oracle.label(3, x) != oracle.label(4, x)

    def test_synthetic_label_needs_exactly_one_coordinate(self):
        oracle = SyntheticOracle(sample_target(2, derive_rng(71, 0)), 71, (0, 1))
        for x in (np.array([0.5, 1.0]), np.full((2, 1), 0.5), np.array([])):
            with pytest.raises(ValueError, match="univariate"):
                oracle.label(3, x)
        assert oracle.label(3, np.array([[0.5]])) == oracle.label(3, 0.5)


class TestTestMse:
    """The test MSE that ``run_al`` records at step 0 for a given fitted model."""

    class _PerfectModel(GprLearner):
        """A GP learner that predicts the given outputs wherever it is asked."""

        def __init__(self, clean):
            super().__init__(KernelSpec("rbf"), 1.0)
            self._clean = clean

        def predict_batch(self, xs):
            return self._clean.copy(), np.ones(len(self._clean))  # spread zero

    class _FixedLearner:
        """Keeps ``model``'s fit, whatever ``run_al`` fits it on."""

        def __init__(self, model):
            self.model = model

        def fit(self, xs, ys):
            return self

        def test_terms(self, inputs, targets):
            return self.model.test_terms(inputs, targets)

    def _recorded_mse(self, model, test):
        trace = run_al(self._FixedLearner(model), StrategySpec("random"),
                       build_pool(2, -1, 1), np.zeros(2), 0, test, 0, derive_rng(71, 0))
        return trace.test_mse[0]

    def test_perfect_model_scores_zero_vs_clean(self):
        test = HoldoutSet(np.linspace(-1, 1, 5)[:, None], np.zeros(5), np.arange(5.0))
        model = self._PerfectModel(np.arange(5.0))
        assert self._recorded_mse(model, test) == 0.0

    def test_constant_offset_hand_value(self):
        test = HoldoutSet(np.zeros((4, 1)), np.zeros(4), np.full(4, 3.0))
        model = self._PerfectModel(np.zeros(4))
        assert self._recorded_mse(model, test) == pytest.approx(9.0)

    def test_observed_minus_clean_is_noise_variance(self):
        target = sample_target(3, derive_rng(72, 0), noise_variance=1.0)
        test = build_test_set(20_000, -2, 2, target, derive_rng(72, 1))
        observed_only = HoldoutSet(test.inputs, test.observed_outputs, None)
        xs = derive_rng(72, 2).uniform(-2, 2, 60)
        oracle_rng = derive_rng(72, 3)
        ys = np.asarray([float(np.asarray(target.coefficients) @ (x ** np.arange(4)))
                         for x in xs]) + oracle_rng.standard_normal(60)
        model = BprLearner(3, 1.0).fit(xs[:, None], ys)
        gap = self._recorded_mse(model, observed_only) - self._recorded_mse(model, test)
        assert gap == pytest.approx(1.0, abs=0.05)

    def test_without_clean_outputs_scores_observed(self):
        test = HoldoutSet(np.zeros((3, 1)), np.full(3, 2.0), None)
        model = self._PerfectModel(np.zeros(3))
        assert self._recorded_mse(model, test) == pytest.approx(4.0)


@pytest.mark.parametrize("clean", [True, False], ids=["clean", "observed"])
@pytest.mark.parametrize("degree", [*range(6), pytest.param(None, id="gp")])
def test_step_terms_match_test_set_predictions(degree, clean):
    # a BPR learner's per-run test Gram, and a GP learner's recorder, give the
    # terms that predicting every test row from scratch gives
    seed = 6 if degree is None else degree
    _, labels, pool, init, test = _setup(seed=seed, pool_n=30, test_n=200)
    if not clean:
        test = HoldoutSet(test.inputs, test.observed_outputs, None)
    targets = test.clean_outputs if clean else test.observed_outputs
    kernel = KernelSpec("rbf")
    learner = BprLearner(degree, 1.0) if degree is not None else GprLearner(kernel, 1.0)
    trace = run_al(learner, StrategySpec("variance"), pool, labels, init, test, 15,
                   derive_rng(70, seed, 4))
    order = [init] + [int(np.flatnonzero(pool[:, 0] == x)[0]) for x in trace.chosen_x[:, 0]]
    record = learner.test_terms(test.inputs, targets)
    for step in range(len(order)):
        xs, ys = pool[order[:step + 1]], labels[order[:step + 1]]
        model = learner.fit(xs, ys)
        if degree is None:
            means, variances = gp_predict_batch(gp_fit(kernel, xs, ys, 1.0), test.inputs)
        else:
            means, variances = model.predict_batch(test.inputs)
        bias = float(np.mean((targets - means) ** 2))
        spread = float(np.mean(variances - model.noise_variance))
        got_bias, got_spread = record()
        assert got_bias == bias
        assert got_spread == pytest.approx(spread, rel=1e-12, abs=0.0)
        assert trace.test_mse[step] == pytest.approx(bias + spread, rel=1e-12, abs=0.0)
        if clean:
            assert (trace.bias[step], trace.variance[step]) == (got_bias, got_spread)


def test_bpr_run_builds_its_test_design_once(monkeypatch):
    # the per-run test Gram: a BPR run of budget B over N test points builds
    # about N test-design rows in all, not N per step
    rows = []
    design = alloop.design_matrix

    def counting(xs, degree):
        phi = design(xs, degree)
        rows.append(phi.shape[0])
        return phi

    monkeypatch.setattr(alloop, "design_matrix", counting)
    _, labels, pool, init, test = _setup(seed=8, pool_n=40, test_n=300)
    budget = 30
    run_al(BprLearner(3, 1.0), StrategySpec("variance"), pool, labels, init, test, budget,
           derive_rng(70, 8, 4))
    # the test design once, plus at most one training row per fit
    assert len(test.inputs) <= sum(rows) <= len(test.inputs) + budget + 1


def test_lengthscale_grid_picks_on_the_first_fit_only(monkeypatch):
    grid_sizes, fit_kernels = [], []
    grid, fit = alloop.fit_lengthscale_grid, alloop.gp_fit

    def recording_grid(spec, xs, ys, noise_variance):
        grid_sizes.append(len(ys))
        return grid(spec, xs, ys, noise_variance)

    def recording_fit(spec, xs, ys, noise_variance):
        fit_kernels.append(spec)
        return fit(spec, xs, ys, noise_variance)

    monkeypatch.setattr(alloop, "fit_lengthscale_grid", recording_grid)
    monkeypatch.setattr(alloop, "gp_fit", recording_fit)
    _, labels, pool, init, test = _setup(seed=9)
    budget = 8
    learner = GprLearner(KernelSpec("rbf", lengthscale=0.5), 0.1, lengthscale_grid=True)
    run_al(learner, StrategySpec("variance"), pool, labels, init, test, budget,
           derive_rng(70, 9, 4))
    assert grid_sizes == [1]
    assert learner.kernel.lengthscale in gpr.LENGTHSCALE_GRID
    # every later fit is a plain fit at the lengthscale the grid chose
    assert fit_kernels == [learner.kernel] * budget


def test_paired_runs_share_step_zero():
    _, labels, pool, init, test = _setup(seed=5)
    traces = {}
    for si, kind in enumerate(("variance", "random")):
        traces[kind] = run_al(BprLearner(2, 1.0), StrategySpec(kind), pool, labels,
                              init, test, 3, derive_rng(70, 5, 4, 0, si))
    a, b = traces["variance"], traces["random"]
    assert (a.test_mse[0], a.bias[0], a.variance[0]) == (b.test_mse[0], b.bias[0], b.variance[0])


class _RecordingLearner(BprLearner):
    """A degree-1 polynomial learner that remembers the data of every fit."""

    def __init__(self):
        super().__init__(1, 1.0)
        self.fits = []

    def fit(self, xs, ys):
        self.fits.append((xs.copy(), np.array(ys, dtype=float)))
        return super().fit(xs, ys)


@st.composite
def _index_runs(draw):
    n = draw(st.integers(2, 24))
    return (n, draw(st.integers(0, n - 1)),
            draw(st.sampled_from(("variance", "random", "direct_mse", "upper_bound"))),
            draw(st.one_of(st.just(n - 1), st.integers(0, n - 1))))


@settings(max_examples=80, deadline=None)
@given(_index_runs())
def test_each_label_is_a_distinct_pool_candidate(case):
    n, init_idx, kind, budget = case
    pool = build_pool(n, -2, 2)
    labels = np.sin(np.arange(n))
    spec = StrategySpec(kind, gradient_bound=3.0 if kind == "upper_bound" else None)
    test = build_test_set(10, -2, 2, sample_target(2, derive_rng(74, 0)), derive_rng(74, 1))
    learner = _RecordingLearner()
    trace = run_al(learner, spec, pool, labels, init_idx, test, budget, derive_rng(74, 2))
    # the pool rows are distinct, so each fitted row names its candidate
    assert len(learner.fits) == budget + 1
    for size, (xs, ys) in enumerate(learner.fits, start=1):
        assert xs.shape == (size, 1) and ys.shape == (size,)
        rows = [int(np.flatnonzero(pool[:, 0] == x)[0]) for x in xs[:, 0]]
        np.testing.assert_array_equal(ys, labels[rows])
        # each fit adds the step's chosen candidate to the previous fit's rows
        if size > 1:
            np.testing.assert_array_equal(xs[:-1], learner.fits[size - 2][0])
            np.testing.assert_array_equal(xs[-1], trace.chosen_x[size - 2])
    assert learner.fits[0][0][0, 0] == pool[init_idx, 0]
    chosen = trace.chosen_x[:, 0]
    assert trace.chosen_x.shape == (budget, 1)
    assert len(set(chosen)) == budget and pool[init_idx, 0] not in chosen
    assert set(chosen) <= set(pool[:, 0])
    if budget == n - 1:
        assert sorted([pool[init_idx, 0], *chosen]) == list(pool[:, 0])

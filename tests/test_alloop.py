import numpy as np
import pytest

from ual_lab import acquisition as acq
from ual_lab.acquisition import StrategySpec
from ual_lab.alloop import (
    BprLearner,
    GprLearner,
    SyntheticOracle,
    TableOracle,
    run_al,
)
from ual_lab.gpr import KernelSpec, gp_fit
from ual_lab.rng import derive_rng
from ual_lab.synthetic import TestSet as HoldoutSet
from ual_lab.synthetic import (
    LabeledSet,
    build_pool,
    build_test_set,
    gradient_bound,
    sample_target,
)


def _setup(seed=0, pool_n=20, test_n=60, order=3, noise=1.0):
    target = sample_target(order, derive_rng(70, seed, 0), noise_variance=noise)
    pool = build_pool(pool_n, -2, 2)
    oracle = SyntheticOracle(target, 70, (seed, 1))
    init_idx = int(derive_rng(70, seed, 2).integers(pool_n))
    test = build_test_set(test_n, -2, 2, target, derive_rng(70, seed, 3))
    x0 = pool.candidates[init_idx]
    init = LabeledSet(x0[None, :], [oracle.label(init_idx, x0)])
    return target, oracle, init, pool.deactivated(init_idx), test


class TestRunAl:
    def test_zero_budget_records_only_initial_model(self):
        _, oracle, init, pool, test = _setup()
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), oracle, init,
                       pool, test, 0, derive_rng(70, 0, 4))
        assert len(trace.records) == 1
        assert trace.records[0].step == 0
        assert trace.records[0].chosen_x is None

    def test_labeled_count_grows_by_one_per_step(self):
        _, oracle, init, pool, test = _setup()
        budget = 10
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), oracle, init,
                       pool, test, budget, derive_rng(70, 0, 5))
        assert len(trace.records) == budget + 1
        assert [r.step for r in trace.records] == list(range(budget + 1))
        # conservation: every acquisition is a distinct pool candidate
        chosen = [tuple(r.chosen_x) for r in trace.records[1:]]
        assert len(set(chosen)) == budget

    def test_budget_exceeding_pool_rejected(self):
        _, oracle, init, pool, test = _setup(pool_n=5)
        with pytest.raises(ValueError):
            run_al(BprLearner(1, 1.0), StrategySpec("random"), oracle, init,
                   pool, test, 5, derive_rng(70, 0, 6))

    def test_full_pool_exhaustion_is_order_independent(self):
        # every strategy ends with the same labeled set, so the same model
        _, oracle, init, pool, test = _setup(pool_n=12)
        budget = pool.n_active
        final = {}
        for kind in ("variance", "random"):
            trace = run_al(BprLearner(2, 1.0), StrategySpec(kind), oracle, init,
                           pool, test, budget, derive_rng(70, 0, 7))
            final[kind] = trace.records[-1].test_mse
        assert final["variance"] == pytest.approx(final["random"], abs=1e-9)

    def test_trace_is_deterministic(self):
        _, oracle, init, pool, test = _setup()
        runs = []
        for _ in range(2):
            trace = run_al(BprLearner(3, 1.0), StrategySpec("random"), oracle, init,
                           pool, test, 8, derive_rng(70, 0, 8))
            runs.append([(r.step, float(r.chosen_x[0]) if r.chosen_x is not None else None,
                          r.test_mse) for r in trace.records])
        assert runs[0] == runs[1]

    def test_random_selection_ignores_the_model(self):
        _, oracle, init, pool, test = _setup()
        chosen = {}
        for degree in (1, 4):
            trace = run_al(BprLearner(degree, 1.0), StrategySpec("random"), oracle,
                           init, pool, test, 8, derive_rng(70, 0, 9))
            chosen[degree] = [tuple(r.chosen_x) for r in trace.records[1:]]
        assert chosen[1] == chosen[4]

    def test_gp_learner_and_remedies_run(self):
        target, oracle, init, pool, test = _setup()
        for spec in (
            StrategySpec("direct_mse"),
            StrategySpec("upper_bound", gradient_bound=gradient_bound(target, -2, 2)),
        ):
            trace = run_al(GprLearner(KernelSpec("rbf"), 1.0), spec, oracle, init,
                           pool, test, 5, derive_rng(70, 0, 10))
            assert all(np.isfinite(r.test_mse) for r in trace.records)

    def test_unresolved_auto_bound_rejected(self):
        _, oracle, init, pool, test = _setup()
        with pytest.raises(ValueError):
            run_al(BprLearner(1, 1.0), StrategySpec("upper_bound", gradient_bound="auto"),
                   oracle, init, pool, test, 2, derive_rng(70, 0, 11))

    def test_decomposition_components_sum_to_mse(self):
        _, oracle, init, pool, test = _setup()
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), oracle, init,
                       pool, test, 4, derive_rng(70, 0, 12))
        for rec in trace.records:
            assert rec.test_mse == pytest.approx(rec.bias + rec.variance, rel=1e-12)


def _refit_surrogate_choices(learner, strategy, oracle, labeled, pool, budget):
    """Reference selections: refit the surrogate with ``gp_fit`` before every step."""
    chosen = []
    for _ in range(budget):
        model = learner.fit(labeled.inputs, labeled.outputs)
        surrogate = gp_fit(strategy.surrogate_kernel, labeled.inputs, labeled.outputs,
                           model.noise_variance)
        candidates = pool.candidates[pool.active]
        if strategy.kind == acq.DIRECT_MSE:
            scores = acq.score_direct_mse(surrogate, model, candidates)
        else:
            scores = acq.score_upper_bound(surrogate, model, candidates, labeled.inputs,
                                           strategy.gradient_bound, strategy.confidence,
                                           pool_size=candidates.shape[0])
        index = acq.select(pool, scores)
        x = pool.candidates[index]
        chosen.append(x)
        labeled = labeled.appended(x, oracle.label(index, x))
        pool = pool.deactivated(index)
    return np.array(chosen)


@pytest.mark.parametrize("seed", range(3))
def test_extended_surrogate_selects_as_refit_surrogate(seed):
    # fig10/fig11 shape: linear model, quadratic-plus-cosine target, pool of 200
    target = sample_target(2, derive_rng(73, seed, 0), "polynomial-plus-cosine")
    pool = build_pool(200, -2, 2)
    oracle = SyntheticOracle(target, 73, (seed, 1))
    init_idx = int(derive_rng(73, seed, 2).integers(200))
    test = build_test_set(500, -2, 2, target, derive_rng(73, seed, 3))
    x0 = pool.candidates[init_idx]
    init = LabeledSet(x0[None, :], [oracle.label(init_idx, x0)])
    pool = pool.deactivated(init_idx)
    budget = 60
    for strategy in (
        StrategySpec("direct_mse"),
        StrategySpec("upper_bound", gradient_bound=gradient_bound(target, -2, 2)),
    ):
        trace = run_al(BprLearner(1, 1.0), strategy, oracle, init, pool, test, budget,
                       derive_rng(73, seed, 4))
        got = np.array([r.chosen_x for r in trace.records[1:]])
        want = _refit_surrogate_choices(BprLearner(1, 1.0), strategy, oracle, init, pool,
                                        budget)
        np.testing.assert_array_equal(got, want, err_msg=strategy.kind)


class TestOracles:
    def test_synthetic_labels_are_pure_functions_of_index(self):
        target = sample_target(2, derive_rng(71, 0))
        oracle = SyntheticOracle(target, 71, (0, 1))
        x = np.array([0.5])
        assert oracle.label(3, x) == oracle.label(3, x)
        assert oracle.label(3, x) != oracle.label(4, x)

    def test_table_oracle_returns_stored_rows(self):
        oracle = TableOracle([10.0, 20.0, 30.0])
        assert oracle.label(2, np.array([999.0])) == 30.0


class TestTestMse:
    """The test MSE that ``run_al`` records at step 0 for a given fitted model."""

    class _PerfectModel:
        noise_variance = 1.0

        def __init__(self, clean):
            self._clean = clean

        def predict_batch(self, xs):
            return self._clean.copy(), np.ones(len(self._clean))  # spread zero

    class _FixedLearner:
        def __init__(self, model):
            self.model = model

        def fit(self, xs, ys):
            return self.model

    def _recorded_mse(self, model, test):
        init = LabeledSet(np.zeros((1, 1)), [0.0])
        trace = run_al(self._FixedLearner(model), StrategySpec("random"), TableOracle([0.0]),
                       init, build_pool(2, -1, 1), test, 0, derive_rng(71, 0))
        return trace.records[0].test_mse

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


def test_paired_runs_share_step_zero():
    _, oracle, init, pool, test = _setup(seed=5)
    traces = {}
    for si, kind in enumerate(("variance", "random")):
        traces[kind] = run_al(BprLearner(2, 1.0), StrategySpec(kind), oracle, init,
                              pool, test, 3, derive_rng(70, 5, 4, 0, si))
    a, b = traces["variance"].records[0], traces["random"].records[0]
    assert (a.test_mse, a.bias, a.variance) == (b.test_mse, b.bias, b.variance)
    assert a.chosen_x is None and b.chosen_x is None

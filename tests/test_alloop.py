import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ual_lab.synthetic import build_pool, build_test_set, gradient_bound, sample_target


def _setup(seed=0, pool_n=20, test_n=60, order=3, noise=1.0):
    target = sample_target(order, derive_rng(70, seed, 0), noise_variance=noise)
    pool = build_pool(pool_n, -2, 2)
    oracle = SyntheticOracle(target, 70, (seed, 1))
    init_idx = int(derive_rng(70, seed, 2).integers(pool_n))
    test = build_test_set(test_n, -2, 2, target, derive_rng(70, seed, 3))
    return target, oracle, pool, init_idx, test


class TestRunAl:
    def test_zero_budget_records_only_initial_model(self):
        _, oracle, pool, init, test = _setup()
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), oracle, pool,
                       init, test, 0, derive_rng(70, 0, 4))
        assert len(trace.records) == 1
        assert trace.records[0].step == 0
        assert trace.records[0].chosen_x is None

    def test_labeled_count_grows_by_one_per_step(self):
        _, oracle, pool, init, test = _setup()
        budget = 10
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), oracle, pool,
                       init, test, budget, derive_rng(70, 0, 5))
        assert len(trace.records) == budget + 1
        assert [r.step for r in trace.records] == list(range(budget + 1))
        # conservation: every acquisition is a distinct pool candidate
        chosen = [tuple(r.chosen_x) for r in trace.records[1:]]
        assert len(set(chosen)) == budget

    def test_budget_exceeding_pool_rejected(self):
        _, oracle, pool, init, test = _setup(pool_n=5)
        with pytest.raises(ValueError):
            run_al(BprLearner(1, 1.0), StrategySpec("random"), oracle, pool,
                   init, test, 5, derive_rng(70, 0, 6))

    def test_init_index_outside_pool_rejected(self):
        _, oracle, pool, _, test = _setup(pool_n=5)
        with pytest.raises(ValueError, match="init_index"):
            run_al(BprLearner(1, 1.0), StrategySpec("random"), oracle, pool, 5, test, 1,
                   derive_rng(70, 0, 6))

    def test_full_pool_exhaustion_is_order_independent(self):
        # every strategy ends with the same labeled set, so the same model
        _, oracle, pool, init, test = _setup(pool_n=12)
        budget = len(pool) - 1
        final = {}
        for kind in ("variance", "random"):
            trace = run_al(BprLearner(2, 1.0), StrategySpec(kind), oracle, pool,
                           init, test, budget, derive_rng(70, 0, 7))
            final[kind] = trace.records[-1].test_mse
        assert final["variance"] == pytest.approx(final["random"], abs=1e-9)

    def test_trace_is_deterministic(self):
        _, oracle, pool, init, test = _setup()
        runs = []
        for _ in range(2):
            trace = run_al(BprLearner(3, 1.0), StrategySpec("random"), oracle, pool,
                           init, test, 8, derive_rng(70, 0, 8))
            runs.append([(r.step, float(r.chosen_x[0]) if r.chosen_x is not None else None,
                          r.test_mse) for r in trace.records])
        assert runs[0] == runs[1]

    def test_random_selection_ignores_the_model(self):
        _, oracle, pool, init, test = _setup()
        chosen = {}
        for degree in (1, 4):
            trace = run_al(BprLearner(degree, 1.0), StrategySpec("random"), oracle,
                           pool, init, test, 8, derive_rng(70, 0, 9))
            chosen[degree] = [tuple(r.chosen_x) for r in trace.records[1:]]
        assert chosen[1] == chosen[4]

    def test_gp_learner_and_remedies_run(self):
        target, oracle, pool, init, test = _setup()
        for spec in (
            StrategySpec("direct_mse"),
            StrategySpec("upper_bound", gradient_bound=gradient_bound(target, -2, 2)),
        ):
            trace = run_al(GprLearner(KernelSpec("rbf"), 1.0), spec, oracle, pool,
                           init, test, 5, derive_rng(70, 0, 10))
            assert all(np.isfinite(r.test_mse) for r in trace.records)

    def test_unresolved_auto_bound_rejected(self):
        _, oracle, pool, init, test = _setup()
        with pytest.raises(ValueError):
            run_al(BprLearner(1, 1.0), StrategySpec("upper_bound", gradient_bound="auto"),
                   oracle, pool, init, test, 2, derive_rng(70, 0, 11))

    def test_decomposition_components_sum_to_mse(self):
        _, oracle, pool, init, test = _setup()
        trace = run_al(BprLearner(2, 1.0), StrategySpec("variance"), oracle, pool,
                       init, test, 4, derive_rng(70, 0, 12))
        for rec in trace.records:
            assert rec.test_mse == pytest.approx(rec.bias + rec.variance, rel=1e-12)


def _refit_surrogate_choices(learner, strategy, oracle, pool, init, budget):
    """Reference selections: refit the surrogate with ``gp_fit`` before every step."""
    labeled = [init]
    ys = [oracle.label(init, pool[init])]
    for _ in range(budget):
        xs = pool[labeled]
        model = learner.fit(xs, np.array(ys))
        surrogate = gp_fit(strategy.surrogate_kernel, xs, ys, model.noise_variance)
        active = np.setdiff1d(np.arange(len(pool)), labeled)
        if strategy.kind == acq.DIRECT_MSE:
            scores = acq.score_direct_mse(surrogate, model, pool[active])
        else:
            scores = acq.score_upper_bound(surrogate, model, pool[active], xs,
                                           strategy.gradient_bound, strategy.confidence,
                                           pool_size=active.size)
        index = acq.select(active, scores)
        labeled.append(index)
        ys.append(oracle.label(index, pool[index]))
    return pool[labeled[1:]]


@pytest.mark.parametrize("seed", range(3))
def test_extended_surrogate_selects_as_refit_surrogate(seed):
    # fig10/fig11 shape: linear model, quadratic-plus-cosine target, pool of 200
    target = sample_target(2, derive_rng(73, seed, 0), "polynomial-plus-cosine")
    pool = build_pool(200, -2, 2)
    oracle = SyntheticOracle(target, 73, (seed, 1))
    init_idx = int(derive_rng(73, seed, 2).integers(200))
    test = build_test_set(500, -2, 2, target, derive_rng(73, seed, 3))
    budget = 60
    for strategy in (
        StrategySpec("direct_mse"),
        StrategySpec("upper_bound", gradient_bound=gradient_bound(target, -2, 2)),
    ):
        trace = run_al(BprLearner(1, 1.0), strategy, oracle, pool, init_idx, test, budget,
                       derive_rng(73, seed, 4))
        got = np.array([r.chosen_x for r in trace.records[1:]])
        want = _refit_surrogate_choices(BprLearner(1, 1.0), strategy, oracle, pool,
                                        init_idx, budget)
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
        trace = run_al(self._FixedLearner(model), StrategySpec("random"), TableOracle([0.0]),
                       build_pool(2, -1, 1), 0, test, 0, derive_rng(71, 0))
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
    _, oracle, pool, init, test = _setup(seed=5)
    traces = {}
    for si, kind in enumerate(("variance", "random")):
        traces[kind] = run_al(BprLearner(2, 1.0), StrategySpec(kind), oracle, pool,
                              init, test, 3, derive_rng(70, 5, 4, 0, si))
    a, b = traces["variance"].records[0], traces["random"].records[0]
    assert (a.test_mse, a.bias, a.variance) == (b.test_mse, b.bias, b.variance)
    assert a.chosen_x is None and b.chosen_x is None


class _RecordingOracle:
    """Table labels; remembers which indices were queried, in order."""

    def __init__(self, n):
        self._table = TableOracle(np.sin(np.arange(n)))
        self.queried = []

    def label(self, index, x):
        self.queried.append(index)
        return self._table.label(index, x)


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
    spec = StrategySpec(kind, gradient_bound=3.0 if kind == "upper_bound" else None)
    test = build_test_set(10, -2, 2, sample_target(2, derive_rng(74, 0)), derive_rng(74, 1))
    oracle = _RecordingOracle(n)
    trace = run_al(BprLearner(1, 1.0), spec, oracle, pool, init_idx, test, budget,
                   derive_rng(74, 2))
    queried = oracle.queried
    assert queried[0] == init_idx and len(queried) == budget + 1
    assert len(set(queried)) == len(queried)
    assert all(0 <= i < n for i in queried)
    for rec, index in zip(trace.records[1:], queried[1:]):
        np.testing.assert_array_equal(rec.chosen_x, pool[index])
    if budget == n - 1:
        assert sorted(queried) == list(range(n))

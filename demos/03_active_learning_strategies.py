"""Race the four acquisition strategies on a mismatched predictor.

The target is a quadratic plus cos(2*pi*x); the predictor is a straight
line, so its predictive spread says nothing useful about where it errs.
Variance-guided selection drains the pool edges and stalls; the two
error-targeting strategies keep pace with random sampling.
"""

import numpy as np

from ual_lab.acquisition import StrategySpec
from ual_lab.alloop import BprLearner, SyntheticOracle, run_al
from ual_lab.rng import derive_rng
from ual_lab.svg import Series, line_chart
from ual_lab.synthetic import (
    POLYNOMIAL_PLUS_COSINE,
    build_pool,
    build_test_set,
    gradient_bound,
    sample_target,
)

BUDGET = 80
SEEDS = 8

strategies = {
    "variance": StrategySpec("variance"),
    "random": StrategySpec("random"),
    "direct_mse": StrategySpec("direct_mse"),
    "upper_bound": None,  # needs the target's gradient bound, filled per seed
}

curves = {name: [] for name in strategies}
for seed in range(SEEDS):
    target = sample_target(2, derive_rng(99, seed, 0), POLYNOMIAL_PLUS_COSINE)
    pool = build_pool(200, -2, 2)
    oracle = SyntheticOracle(target, 99, (seed, 1))
    labels = np.array([oracle.label(i, x) for i, x in enumerate(pool)])
    init_idx = int(derive_rng(99, seed, 2).integers(200))
    test = build_test_set(500, -2, 2, target, derive_rng(99, seed, 3))
    strategies["upper_bound"] = StrategySpec(
        "upper_bound", gradient_bound=gradient_bound(target, -2, 2))
    for si, (name, spec) in enumerate(strategies.items()):
        trace = run_al(BprLearner(1, 1.0), spec, pool, labels, init_idx, test,
                       BUDGET, derive_rng(99, seed, 4, 0, si))
        curves[name].append(trace.test_mse)

steps = np.arange(BUDGET + 1)
print(f"mean test MSE over {SEEDS} paired seeds:")
print("step  " + "  ".join(f"{n:>11s}" for n in strategies))
mean_curves = {n: np.mean(curves[n], axis=0) for n in strategies}
for step in (0, 5, 10, 20, 40, 80):
    row = "  ".join(f"{mean_curves[n][step]:11.4f}" for n in strategies)
    print(f"{step:4d}  {row}")

chart = line_chart(
    "linear predictor on a quadratic-plus-cosine target",
    "acquisitions", "mean test MSE",
    [Series(name, steps, mean_curves[name]) for name in strategies],
)
with open("demo03_strategies.svg", "w") as handle:
    handle.write(chart)
print("wrote demo03_strategies.svg")

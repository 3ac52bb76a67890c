"""Race the four acquisition strategies on a mismatched predictor.

The target is a quadratic plus cos(2*pi*x); the predictor is a straight
line, so its predictive spread says nothing useful about where it errs.
Variance-guided selection drains the pool edges and stalls; the two
error-targeting strategies keep pace with random sampling. The race is an
experiment config run by the config runner, as in demo 04: every seed's
target, labels, initial point, test set and upper-bound gradient bound
come from the runner, so the strategies stay paired.
"""

import numpy as np

from ual_lab.expcli import parse_config_dict, run_experiment
from ual_lab.svg import Series, line_chart

config = parse_config_dict({
    "experiment_id": "demo03",
    "master_seed": 99,
    "n_seeds": 8,
    "budget": 80,
    "target": {"kind": "synthetic", "order": 2, "family": "polynomial-plus-cosine"},
    "pool": {"n": 200, "lo": -2.0, "hi": 2.0},
    "test": {"n": 500, "lo": -2.0, "hi": 2.0},
    "models": [{"kind": "bpr", "degree": 1}],
    "strategies": [{"kind": "variance"}, {"kind": "random"}, {"kind": "direct_mse"},
                   {"kind": "upper_bound", "gradient_bound": "auto"}],
})

# test_mse is (seeds, models, strategies, steps): one model, so row 0 of the mean
mean_curves = dict(zip(config.strategy_ids, run_experiment(config).test_mse.mean(axis=0)[0]))
print(f"mean test MSE over {config.n_seeds} paired seeds:")
print("step  " + "  ".join(f"{n:>11s}" for n in mean_curves))
for step in (0, 5, 10, 20, 40, 80):
    row = "  ".join(f"{curve[step]:11.4f}" for curve in mean_curves.values())
    print(f"{step:4d}  {row}")

steps = np.arange(config.budget + 1)
chart = line_chart(
    "linear predictor on a quadratic-plus-cosine target",
    "acquisitions", "mean test MSE",
    [Series(name, steps, curve) for name, curve in mean_curves.items()],
)
with open("demo03_strategies.svg", "w") as handle:
    handle.write(chart)
print("wrote demo03_strategies.svg")

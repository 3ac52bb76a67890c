"""Drive a full experiment through the config runner.

Builds a small config in code (identical to a JSON file on disk), runs the
seed batch, and emits the standard outputs: traces.csv, summary.csv,
meta.json, and one SVG learning-curve chart per model. The command-line
equivalent is:

    ual-lab run --config my_config.json --out demo04_out --parallel 2
"""

import time
from pathlib import Path

from ual_lab.expcli import emit, parse_config_dict, run_experiment

config = parse_config_dict({
    "experiment_id": "demo04",
    "description": "degrees 1 and 3 on cubic targets, variance vs random",
    "master_seed": 31,
    "n_seeds": 10,
    "budget": 40,
    "parallelism": 2,
    "target": {"kind": "synthetic", "order": 3, "family": "pure-polynomial",
               "noise_variance": 1.0},
    "pool": {"n": 200, "lo": -2.0, "hi": 2.0},
    "test": {"n": 500, "lo": -2.0, "hi": 2.0},
    "models": [{"kind": "bpr", "degree": 1}, {"kind": "bpr", "degree": 3}],
    "strategies": [{"kind": "variance"}, {"kind": "random"}],
})

start = time.perf_counter()
results = run_experiment(config)
wall = time.perf_counter() - start

for path in emit(results, Path("demo04_out"), config, wall):
    print("wrote", path)

print("\nfinal-step mean MSE per (model, strategy):")
for model_id in config.model_ids:
    for strategy_id in config.strategy_ids:
        means, stds = results.summary[(model_id, strategy_id)]
        print(f"  {model_id:9s} {strategy_id:9s} {means[-1]:8.4f} +- {stds[-1]:.4f}")
print("\nthe low-degree model ends worse under variance guidance; the matched "
      "one ends better. rerun with more seeds to tighten the bands")

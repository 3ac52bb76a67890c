"""The four benchmark workloads, each a synthetic experiment config.

A workload is a function of the benchmark seed only: the seed becomes the
config's ``master_seed`` and everything else is fixed here, so the same
seed always gives the same inputs. README.md in this directory records why
each workload exists and which layers it stresses.
"""

from __future__ import annotations

import os

DEFAULT_SEED = 0

# Shared by every curves workload.
_POOL = {"n": 200, "lo": -2.0, "hi": 2.0}
_TEST = {"n": 500, "lo": -2.0, "hi": 2.0}
_BUDGET = 199
_CUBIC = {"kind": "synthetic", "order": 3, "family": "pure-polynomial", "noise_variance": 1.0}
_RBF_SURROGATE = {"kind": "rbf", "amplitude": 1.0, "lengthscale": 0.5}
_DEGREES_1_TO_5 = [{"kind": "bpr", "degree": d} for d in range(1, 6)]


def cores() -> int:
    """Cores this process may run on; the parallel workload uses all of them."""
    return len(os.sched_getaffinity(0))


def _curves(seed: int, name: str, n_seeds: int, parallelism: int, target: dict,
            models: list, strategies: list) -> dict:
    return {
        "experiment_id": f"bench_{name}",
        "master_seed": seed,
        "n_seeds": n_seeds,
        "parallelism": parallelism,
        "budget": _BUDGET,
        "target": target,
        "pool": dict(_POOL),
        "test": dict(_TEST),
        "models": models,
        "strategies": strategies,
    }


def bpr_curves(seed: int) -> dict:
    """fig3 shape: BPR degrees 1-5 x {variance, random} on cubic targets."""
    return _curves(seed, "bpr_curves", 1, 1, _CUBIC, _DEGREES_1_TO_5,
                   [{"kind": "variance"}, {"kind": "random"}])


def gp_curves_parallel(seed: int) -> dict:
    """fig7 shape: GP Matern-5/2 and linear x {variance, random}, K = cores.

    Two seeds, so on a two-core machine each worker gets one. The reference
    summary is for two seeds; more cores leave the extra workers idle.
    """
    models = [
        {"kind": "gpr", "kernel": {"kind": "matern52", "amplitude": 1.0, "lengthscale": 1.0}},
        {"kind": "gpr", "kernel": {"kind": "linear", "bias": 1.0, "weight": 1.0}},
    ]
    return _curves(seed, "gp_curves_parallel", 2, cores(), _CUBIC, models,
                   [{"kind": "variance"}, {"kind": "random"}])


def remedies_curves(seed: int) -> dict:
    """fig10 + fig11: BPR degree 1 x the four strategies, quadratic + cosine."""
    target = {"kind": "synthetic", "order": 2, "family": "polynomial-plus-cosine",
              "noise_variance": 1.0}
    strategies = [
        {"kind": "direct_mse", "surrogate_kernel": dict(_RBF_SURROGATE)},
        {"kind": "upper_bound", "surrogate_kernel": dict(_RBF_SURROGATE),
         "gradient_bound": "auto", "confidence": 0.05},
        {"kind": "variance"},
        {"kind": "random"},
    ]
    return _curves(seed, "remedies_curves", 1, 1, target,
                   [{"kind": "bpr", "degree": 1}], strategies)


def discrepancy(seed: int) -> dict:
    """fig5 shape: closed-form MSE gap for BPR degrees 1-5 on a 50-point grid."""
    return {
        "experiment_id": "bench_discrepancy",
        "kind": "discrepancy",
        "master_seed": seed,
        "n_seeds": 10,
        "parallelism": 1,
        "n_train": 20,
        "target": dict(_CUBIC),
        "grid": {"n": 50, "lo": -2.0, "hi": 2.0, "layout": "grid"},
        "models": _DEGREES_1_TO_5,
    }


WORKLOADS = {
    "bpr_curves": bpr_curves,
    "gp_curves_parallel": gp_curves_parallel,
    "remedies_curves": remedies_curves,
    "discrepancy": discrepancy,
}


def runs_per_experiment(raw: dict) -> int:
    """(seed, model, strategy) runs in one experiment; (seed, model) for discrepancy."""
    strategies = raw.get("strategies", [None])
    return raw["n_seeds"] * len(raw["models"]) * len(strategies)


def units_per_experiment(raw: dict) -> int:
    """Work units: acquisition steps, or (seed, model, grid point) evaluations."""
    if raw.get("kind") == "discrepancy":
        return raw["n_seeds"] * len(raw["models"]) * raw["grid"]["n"]
    return runs_per_experiment(raw) * raw["budget"]

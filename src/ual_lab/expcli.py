"""Configuration-driven experiment runner and emitter.

A config (parsed by :mod:`ual_lab.config`) describes one experiment: a
target (synthetic family or real dataset), a list of models, a list of
strategies, and seed-batch sizes. Each seed shares one target, one initial
labeled point, and one test set across every (model, strategy) run, so
strategy comparisons are paired.
Outputs are deterministic CSV/JSON/SVG files; results are identical for
any parallelism setting.

CLI: ``run --config <path|id> [--out DIR] [--parallel K] [--seed N]``,
``validate --config <path|id>``, ``list-experiments``. The environment
variable ``UAL_LAB_OUT`` supplies the default output root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .alloop import BprLearner, GprLearner, RunTrace, SyntheticOracle, run_al
from .analysis import variance_proxy_gap
from .bpr import default_prior
from .config import ExperimentConfig, ModelSpec, config_to_dict, parse_config, parse_config_dict
from .datasets import TabularDataset, load_csv, split, standardized
from .errors import ConfigError, UalLabError
from .linalg import one_blas_thread
from .rng import derive_rng
from .svg import Series, line_chart
from .synthetic import TestSet, build_pool, build_test_set, gradient_bound, sample_target

__all__ = [
    "AggregateResults",
    "run_experiment",
    "emit",
    "main",
    "shipped_experiments",
]

TRACES_HEADER = "experiment_id,seed,model,strategy,step,n_labeled,chosen_x,test_mse,mc_bias,mc_variance"
SUMMARY_HEADER = "experiment_id,model,strategy,step,mean_mse,std_mse,n_seeds"
DISCREPANCY_HEADER = "experiment_id,model,x,mean_gap"


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class AggregateResults:
    """What one experiment computed; which experiment it was stays in its config.

    An al_curves run fills ``runs[seed][model_id][strategy_id]`` and
    ``test_mse``, shaped (seeds, models, strategies, budget + 1) in config
    order; a discrepancy run fills ``gaps``, the (models, grid) mean gaps.
    ``runtime`` is the setup the run had: versions, cores, workers, OpenBLAS.
    """

    runs: Optional[list] = None
    test_mse: Optional[np.ndarray] = None
    gaps: Optional[np.ndarray] = None
    runtime: Optional[dict] = None


def _make_learner(spec: ModelSpec, noise_variance: float):
    if spec.kind == "bpr":
        return BprLearner(spec.degree, noise_variance)
    return GprLearner(spec.kernel, noise_variance)


def _synthetic_setup(cfg: ExperimentConfig, seed: int, data: None):
    t = cfg.target
    target = sample_target(t.order, derive_rng(cfg.master_seed, seed, 0), t.family,
                           noise_variance=t.noise_variance)
    candidates = build_pool(cfg.pool.n, cfg.pool.lo, cfg.pool.hi)
    oracle = SyntheticOracle(target, cfg.master_seed, (seed, 1))
    labels = np.array([oracle.label(i, x) for i, x in enumerate(candidates)])
    test = build_test_set(cfg.test.n, cfg.test.lo, cfg.test.hi, target,
                          derive_rng(cfg.master_seed, seed, 3))
    strategies = tuple(
        replace(s, gradient_bound=gradient_bound(target, cfg.pool.lo, cfg.pool.hi))
        if s.gradient_bound == "auto" else s
        for s in cfg.strategies
    )
    return candidates, labels, test, t.noise_variance, strategies


def _dataset_setup(cfg: ExperimentConfig, seed: int, data: TabularDataset):
    t = cfg.target
    train, test = split(data, t.test_fraction,
                        derive_rng(cfg.master_seed, seed, 0), subsample=t.subsample)
    train_x, train_y, test_x, test_y = standardized(data, train, test)
    if cfg.budget > len(train) - 1:
        raise ConfigError(
            f"budget: {cfg.budget} exceeds train split capacity {len(train)} - 1"
        )
    return train_x, train_y, TestSet(test_x, test_y), t.model_noise_variance, cfg.strategies


def _seed_runs(cfg: ExperimentConfig, seed: int,
               data: Optional[TabularDataset]) -> dict[str, dict[str, RunTrace]]:
    """Every run of one seed as ``runs[model_id][strategy_id]``, all from one
    initial candidate.

    The per-target setup gives the (n, d) candidate array, its (n,) labels,
    the test set, the models' noise variance, and the strategies with every
    bound resolved. Every run reads the same labels and starts from the same
    initial candidate, so paired runs share their step 0.
    """
    setup = _dataset_setup if cfg.target.kind == "dataset" else _synthetic_setup
    candidates, labels, test, noise_variance, strategies = setup(cfg, seed, data)
    init_index = int(derive_rng(cfg.master_seed, seed, 2).integers(len(labels)))

    runs = {}
    for mi, model_spec in enumerate(cfg.models):
        runs[model_spec.model_id] = {}
        for si, strategy in enumerate(strategies):
            learner = _make_learner(model_spec, noise_variance)
            name = f"seed {seed}, model {model_spec.model_id}, strategy {strategy.kind}"
            try:
                trace = run_al(learner, strategy, candidates, labels, init_index, test,
                               cfg.budget, derive_rng(cfg.master_seed, seed, 4, mi, si))
            except UalLabError as exc:
                # keep the class, so the CLI reports it as a library error
                raise type(exc)(f"run failed at {name}: {exc}") from exc
            except Exception as exc:
                raise RuntimeError(f"run failed at {name}: {exc}") from exc
            runs[model_spec.model_id][strategy.kind] = trace
    return runs


def _discrepancy(cfg: ExperimentConfig) -> np.ndarray:
    """Gap |closed-form MSE - 2*spread| per (seed, model, grid point).

    Each seed's training inputs come from its own stream; every model's
    gaps over the whole stack of seeds are one call.
    """
    t = cfg.target
    inputs = np.array([derive_rng(cfg.master_seed, seed, 0).uniform(
        cfg.grid.lo, cfg.grid.hi, cfg.n_train) for seed in range(cfg.n_seeds)])
    family = default_prior(t.order, t.noise_variance)
    xs = np.linspace(cfg.grid.lo, cfg.grid.hi, cfg.grid.n)
    return np.stack([
        variance_proxy_gap(xs, family, default_prior(m.degree, t.noise_variance), inputs)
        for m in cfg.models
    ], axis=1)


def _seed_worker(args):
    with one_blas_thread():  # a spawned worker inherits no thread count
        return _seed_runs(*args)


def run_experiment(cfg: ExperimentConfig) -> AggregateResults:
    """Run every (seed, model, strategy) combination and aggregate.

    Seeds fan out to min(``cfg.parallelism``, cores, seeds) worker processes,
    whose results come back in seed order; BLAS runs on one thread in this
    process (the caller's counts are restored) and in each seed task, which
    sets its own whatever the start method, so outputs depend on neither
    the pool size nor the cores. A discrepancy run is one stacked pass per
    model, in this process, whatever ``cfg.parallelism`` says. A dataset
    target's file is loaded once, here, and the rows it dropped are counted
    in ``runtime``.
    """
    dataset = cfg.target.kind == "dataset"
    data = load_csv(cfg.target.path, cfg.target.schema) if dataset else None
    payloads = [(cfg, seed, data) for seed in range(cfg.n_seeds)]
    cores = len(os.sched_getaffinity(0))
    discrepancy = cfg.kind == "discrepancy"
    workers = 1 if discrepancy else min(cfg.parallelism, cores, cfg.n_seeds)
    with one_blas_thread() as openblas:
        if discrepancy:
            per_seed = _discrepancy(cfg)
        elif workers > 1:
            with ProcessPoolExecutor(workers) as pool:
                per_seed = list(pool.map(_seed_worker, payloads))
        else:
            per_seed = [_seed_worker(p) for p in payloads]
    runtime = {"numpy": np.__version__, "scipy": scipy.__version__, "cores": cores,
               "workers": workers, "openblas": openblas}
    if dataset:
        runtime["dropped_rows"] = data.dropped_rows

    if discrepancy:
        return AggregateResults(gaps=per_seed.mean(axis=0), runtime=runtime)
    test_mse = np.array([[[runs[m][s].test_mse for s in cfg.strategy_ids]
                          for m in cfg.model_ids] for runs in per_seed])
    return AggregateResults(per_seed, test_mse, runtime=runtime)


# ---------------------------------------------------------------------------
# emission


def emit(results: AggregateResults, out_dir: str | Path, cfg: ExperimentConfig,
         wall_time_s: float = 0.0) -> list[Path]:
    """Write traces.csv, summary.csv, meta.json, and one SVG per model."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    exp_id = cfg.experiment_id

    def write(name: str, text: str) -> None:
        path = out / name
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        written.append(path)

    if cfg.kind == "discrepancy":
        xs = np.linspace(cfg.grid.lo, cfg.grid.hi, cfg.grid.n)
        lines = [DISCREPANCY_HEADER]
        for model_id, gaps in zip(cfg.model_ids, results.gaps):
            lines.extend(f"{exp_id},{model_id},{x:.17g},{g:.17g}"
                         for x, g in zip(xs.tolist(), gaps.tolist()))
        write("discrepancy.csv", "\n".join(lines) + "\n")
        series = [Series(model_id, xs, gaps)
                  for model_id, gaps in zip(cfg.model_ids, results.gaps)]
        write("discrepancy.svg", line_chart(
            f"{exp_id}: variance-proxy gap", "x", "|MSE - 2*spread|", series))
    else:
        trace_lines = [TRACES_HEADER]
        for seed, runs in enumerate(results.runs):
            for model_id in cfg.model_ids:
                for strategy_id in cfg.strategy_ids:
                    trace = runs[model_id][strategy_id]
                    # step 0 acquires nothing; n_labeled counts the initial point
                    chosen = [""] + [";".join(f"{c:.17g}" for c in row)
                                     for row in trace.chosen_x.tolist()]
                    split = [","] * len(chosen) if trace.bias is None else [
                        f"{b:.17g},{v:.17g}"
                        for b, v in zip(trace.bias.tolist(), trace.variance.tolist())]
                    trace_lines.extend(
                        f"{exp_id},{seed},{model_id},{strategy_id},{step},{step + 1},"
                        f"{chosen[step]},{mse:.17g},{split[step]}"
                        for step, mse in enumerate(trace.test_mse.tolist()))
        write("traces.csv", "\n".join(trace_lines) + "\n")

        means, stds = results.test_mse.mean(axis=0), results.test_mse.std(axis=0)
        summary_lines = [SUMMARY_HEADER]
        for mi, model_id in enumerate(cfg.model_ids):
            for si, strategy_id in enumerate(cfg.strategy_ids):
                summary_lines.extend(
                    f"{exp_id},{model_id},{strategy_id},{step},{mean:.17g},{std:.17g},"
                    f"{cfg.n_seeds}"
                    for step, (mean, std) in enumerate(zip(means[mi, si].tolist(),
                                                           stds[mi, si].tolist())))
        write("summary.csv", "\n".join(summary_lines) + "\n")

        steps = np.arange(cfg.budget + 1)
        for mi, model_id in enumerate(cfg.model_ids):
            series = [Series(strategy_id, steps, mean, band_low=mean - std,
                             band_high=mean + std)
                      for strategy_id, mean, std in zip(cfg.strategy_ids, means[mi], stds[mi])]
            write(f"curves_{model_id}.svg", line_chart(
                f"{exp_id}: {model_id}", "acquisitions", "mean test MSE", series))

    meta = {
        "artifact_version": __version__,
        "config": config_to_dict(cfg),
        "runtime": results.runtime,
        "wall_time_s": wall_time_s,
    }
    write("meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return written


# ---------------------------------------------------------------------------
# CLI


def shipped_experiments() -> dict[str, Path]:
    """Map of shipped experiment ids to their config files, ``configs/<id>.json``."""
    return {path.stem: path for path in sorted(Path(__file__).with_name("configs").glob("*.json"))}


def _resolve_config_arg(value: str) -> Path:
    path = Path(value)
    if path.is_file():  # a directory named like an id does not shadow it
        return path
    shipped = shipped_experiments()
    if value in shipped:
        return shipped[value]
    raise ConfigError(f"config not found: {value!r} is neither a file nor a shipped id")


def _default_out_dir(cfg: ExperimentConfig) -> Path:
    if cfg.output_dir:
        return Path(cfg.output_dir)
    root = os.environ.get("UAL_LAB_OUT", "out")
    return Path(root) / cfg.experiment_id


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ual-lab",
        description="Run paired active-learning experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True, help="config path or shipped id")
    run_p.add_argument("--out", help="output directory (overrides config and UAL_LAB_OUT)")
    run_p.add_argument("--parallel", type=int, help="worker processes (overrides config)")
    run_p.add_argument("--seed", type=int, help="master seed (overrides config)")

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("--config", required=True, help="config path or shipped id")

    sub.add_parser("list-experiments", help="list shipped experiment configs")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-experiments":
            for exp_id, path in shipped_experiments().items():
                cfg = parse_config(path)
                print(f"{exp_id}: {cfg.description or '(no description)'}")
            return 0
        cfg = parse_config(_resolve_config_arg(args.config))
        if args.command == "validate":
            print(f"OK: {cfg.experiment_id} ({cfg.kind}, {cfg.n_seeds} seeds)")
            return 0
        # the overrides pass through the same field rules as the config file
        overrides = {key: value for key, value in
                     (("parallelism", args.parallel), ("master_seed", args.seed))
                     if value is not None}
        cfg = parse_config_dict({**config_to_dict(cfg), **overrides})
        out_dir = Path(args.out) if args.out else _default_out_dir(cfg)
        start = time.perf_counter()
        results = run_experiment(cfg)
        wall = time.perf_counter() - start
        for path in emit(results, out_dir, cfg, wall):
            print(f"wrote {path}")
        return 0
    except (UalLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .alloop import BprLearner, GprLearner, RunTrace, SyntheticOracle, run_al
from .analysis import variance_proxy_gap
from .bpr import default_prior
from .config import (
    DatasetTargetSpec,
    ExperimentConfig,
    ModelSpec,
    config_to_dict,
    parse_config,
    parse_config_dict,
)
from .datasets import TabularDataset, apply_standardizer, fit_standardizer, load_csv, split
from .errors import ConfigError, UalLabError
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
    """

    runs: Optional[list] = None
    test_mse: Optional[np.ndarray] = None
    gaps: Optional[np.ndarray] = None


def _make_learner(spec: ModelSpec, noise_variance: float):
    if spec.kind == "bpr":
        return BprLearner(spec.degree, noise_variance)
    return GprLearner(spec.kernel, noise_variance, spec.lengthscale_grid)


def _synthetic_setup(cfg: ExperimentConfig, seed: int, data: None):
    t = cfg.target
    target = sample_target(
        t.order, derive_rng(cfg.master_seed, seed, 0), t.family,
        noise_variance=t.noise_variance, cosine_amplitude=t.cosine_amplitude,
        cosine_frequency=t.cosine_frequency,
    )
    candidates = build_pool(cfg.pool.n, cfg.pool.lo, cfg.pool.hi)
    oracle = SyntheticOracle(target, cfg.master_seed, (seed, 1))
    labels = np.array([oracle.label(i, x) for i, x in enumerate(candidates)])
    init_index = int(derive_rng(cfg.master_seed, seed, 2).integers(cfg.pool.n))
    test = build_test_set(cfg.test.n, cfg.test.lo, cfg.test.hi, target,
                          derive_rng(cfg.master_seed, seed, 3))
    strategies = tuple(
        replace(s, gradient_bound=gradient_bound(target, cfg.pool.lo, cfg.pool.hi))
        if s.gradient_bound == "auto" else s
        for s in cfg.strategies
    )
    return candidates, labels, init_index, test, t.noise_variance, strategies


def _dataset_setup(cfg: ExperimentConfig, seed: int, data: TabularDataset):
    t = cfg.target
    train, test_part = split(data, t.test_fraction,
                             derive_rng(cfg.master_seed, seed, 0), subsample=t.subsample)
    st = fit_standardizer(train)
    train = apply_standardizer(st, train)
    test_part = apply_standardizer(st, test_part)
    if cfg.budget > len(train) - 1:
        raise ConfigError(
            f"budget: {cfg.budget} exceeds train split capacity {len(train)} - 1"
        )
    init_index = int(derive_rng(cfg.master_seed, seed, 2).integers(len(train)))
    test = TestSet(test_part.features, test_part.targets, None)
    return (train.features, train.targets, init_index, test,
            t.model_noise_variance, cfg.strategies)


def _seed_runs(cfg: ExperimentConfig, seed: int,
               data: Optional[TabularDataset]) -> dict[str, dict[str, RunTrace]]:
    """Every run of one seed as ``runs[model_id][strategy_id]``, all from one
    initial candidate.

    The per-target setup gives the (n, d) candidate array, its (n,) labels,
    the index of the initial candidate, the test set, the models' noise
    variance, and the strategies with every bound resolved. Every run reads
    the same labels, so paired runs share their step 0.
    """
    setup = _dataset_setup if isinstance(cfg.target, DatasetTargetSpec) else _synthetic_setup
    candidates, labels, init_index, test, noise_variance, strategies = setup(cfg, seed, data)

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


def _seed_discrepancy(cfg: ExperimentConfig, seed: int) -> np.ndarray:
    """Gap |closed-form MSE - 2*spread| per (model, grid point) for one seed."""
    t = cfg.target
    rng = derive_rng(cfg.master_seed, seed, 0)
    inputs = rng.uniform(cfg.grid.lo, cfg.grid.hi, cfg.n_train)
    family = default_prior(t.order, t.noise_variance)
    xs = np.linspace(cfg.grid.lo, cfg.grid.hi, cfg.grid.n)
    return np.array([
        variance_proxy_gap(xs, family, default_prior(m.degree, t.noise_variance), inputs)
        for m in cfg.models
    ])


def _seed_worker(args):
    cfg, seed, data = args
    if cfg.kind == "discrepancy":
        return seed, _seed_discrepancy(cfg, seed)
    return seed, _seed_runs(cfg, seed, data)


def run_experiment(cfg: ExperimentConfig,
                   data: Optional[TabularDataset] = None) -> AggregateResults:
    """Run every (seed, model, strategy) combination and aggregate.

    Seeds fan out to a process pool of size ``cfg.parallelism``; results
    are folded in seed order, so outputs do not depend on the pool size.
    """
    if isinstance(cfg.target, DatasetTargetSpec) and data is None and cfg.kind == "al_curves":
        data = load_csv(cfg.target.path, cfg.target.schema)
    payloads = [(cfg, seed, data) for seed in range(cfg.n_seeds)]
    if cfg.parallelism > 1 and cfg.n_seeds > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            results = list(pool.map(_seed_worker, payloads))
    else:
        results = [_seed_worker(p) for p in payloads]
    results.sort(key=lambda item: item[0])
    per_seed = [value for _, value in results]

    if cfg.kind == "discrepancy":
        return AggregateResults(gaps=np.stack(per_seed).mean(axis=0))
    test_mse = np.array([[[runs[m][s].test_mse for s in cfg.strategy_ids]
                          for m in cfg.model_ids] for runs in per_seed])
    return AggregateResults(per_seed, test_mse)


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def emit(results: AggregateResults, out_dir: str | Path, cfg: ExperimentConfig,
         wall_time_s: float = 0.0) -> list[Path]:
    """Write traces.csv, summary.csv, meta.json, and one SVG per model."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    if cfg.kind == "discrepancy":
        path = out / "discrepancy.csv"
        xs = np.linspace(cfg.grid.lo, cfg.grid.hi, cfg.grid.n)
        lines = [DISCREPANCY_HEADER]
        for model_id, gaps in zip(cfg.model_ids, results.gaps):
            lines.extend(
                f"{cfg.experiment_id},{model_id},{_fmt(x)},{_fmt(g)}"
                for x, g in zip(xs, gaps)
            )
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)
        series = [
            Series(model_id, xs, np.maximum(gaps, 1e-18))
            for model_id, gaps in zip(cfg.model_ids, results.gaps)
        ]
        svg_path = out / "discrepancy.svg"
        _write_text(svg_path, line_chart(
            f"{cfg.experiment_id}: variance-proxy gap", "x", "|MSE - 2*spread|", series))
        written.append(svg_path)
    else:
        trace_lines = [TRACES_HEADER]
        for seed, runs in enumerate(results.runs):
            for model_id in cfg.model_ids:
                for strategy_id in cfg.strategy_ids:
                    trace = runs[model_id][strategy_id]
                    for step, mse in enumerate(trace.test_mse):
                        # step 0 acquires nothing; n_labeled counts the initial point
                        chosen = ";".join(map(_fmt, trace.chosen_x[step - 1])) if step else ""
                        bias = "" if trace.bias is None else _fmt(trace.bias[step])
                        var = "" if trace.variance is None else _fmt(trace.variance[step])
                        trace_lines.append(
                            f"{cfg.experiment_id},{seed},{model_id},{strategy_id},"
                            f"{step},{step + 1},{chosen},"
                            f"{_fmt(mse)},{bias},{var}"
                        )
        path = out / "traces.csv"
        _write_text(path, "\n".join(trace_lines) + "\n")
        written.append(path)

        means, stds = results.test_mse.mean(axis=0), results.test_mse.std(axis=0)
        summary_lines = [SUMMARY_HEADER]
        for mi, model_id in enumerate(cfg.model_ids):
            for si, strategy_id in enumerate(cfg.strategy_ids):
                summary_lines.extend(
                    f"{cfg.experiment_id},{model_id},{strategy_id},{step},"
                    f"{_fmt(mean)},{_fmt(std)},{cfg.n_seeds}"
                    for step, (mean, std) in enumerate(zip(means[mi, si], stds[mi, si]))
                )
        path = out / "summary.csv"
        _write_text(path, "\n".join(summary_lines) + "\n")
        written.append(path)

        steps = np.arange(cfg.budget + 1)
        for mi, model_id in enumerate(cfg.model_ids):
            series = []
            for si, strategy_id in enumerate(cfg.strategy_ids):
                mean, std = means[mi, si], stds[mi, si]
                floor = 1e-12
                series.append(Series(
                    strategy_id, steps, np.maximum(mean, floor),
                    band_low=np.maximum(mean - std, floor),
                    band_high=np.maximum(mean + std, floor),
                ))
            svg_path = out / f"curves_{model_id}.svg"
            _write_text(svg_path, line_chart(
                f"{cfg.experiment_id}: {model_id}", "acquisitions", "mean test MSE", series))
            written.append(svg_path)

    meta = {
        "artifact_version": __version__,
        "config": config_to_dict(cfg),
        "wall_time_s": wall_time_s,
    }
    meta_path = out / "meta.json"
    _write_text(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    written.append(meta_path)
    return written


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# CLI


def shipped_experiments() -> dict[str, Path]:
    """Map of shipped experiment ids to their packaged config paths."""
    root = resources.files("ual_lab.configs")
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = Path(str(entry))
    return out


def _resolve_config_arg(value: str) -> Path:
    path = Path(value)
    if path.exists():
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

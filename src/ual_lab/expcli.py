"""Configuration-driven experiment runner and emitter.

A config describes one experiment: a target (synthetic family or real
dataset), a list of models, a list of strategies, and seed-batch sizes.
Each seed shares one target, one initial labeled point, and one test set
across every (model, strategy) run, so strategy comparisons are paired.
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
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .acquisition import DIRECT_MSE, RANDOM, UPPER_BOUND, VARIANCE, StrategySpec
from .alloop import BprLearner, GprLearner, RunTrace, SyntheticOracle, TableOracle, run_al
from .analysis import TargetFamily, variance_proxy_gap
from .bpr import default_prior
from .datasets import TabularDataset, apply_standardizer, fit_standardizer, load_csv, split
from .errors import ConfigError
from .gpr import KernelSpec
from .rng import derive_rng
from .svg import Series, line_chart
from .synthetic import (
    POLYNOMIAL_PLUS_COSINE,
    PURE_POLYNOMIAL,
    LabeledSet,
    TestSet,
    UnlabeledPool,
    build_pool,
    build_test_set,
    gradient_bound,
    sample_target,
)

__all__ = [
    "ExperimentConfig",
    "AggregateResults",
    "parse_config",
    "parse_config_dict",
    "run_experiment",
    "emit",
    "main",
    "shipped_experiments",
]

_ID_PATTERN = re.compile(r"^[a-z0-9_-]+$")

TRACES_HEADER = "experiment_id,seed,model,strategy,step,n_labeled,chosen_x,test_mse,mc_bias,mc_variance"
SUMMARY_HEADER = "experiment_id,model,strategy,step,mean_mse,std_mse,n_seeds"
DISCREPANCY_HEADER = "experiment_id,model,x,mean_gap"


# ---------------------------------------------------------------------------
# config model


@dataclass(frozen=True)
class SyntheticTargetSpec:
    order: int
    family: str
    noise_variance: float
    cosine_amplitude: float = 1.0
    cosine_frequency: float = 1.0


@dataclass(frozen=True)
class DatasetTargetSpec:
    schema: str
    path: str
    test_fraction: float
    subsample: Optional[int]
    model_noise_variance: float


@dataclass(frozen=True)
class PoolSpec:
    n: int
    lo: float
    hi: float


@dataclass(frozen=True)
class TestSpec:
    n: int
    lo: float
    hi: float
    layout: str = "random"


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "bpr" | "gpr"
    degree: Optional[int] = None
    kernel: Optional[KernelSpec] = None
    lengthscale_grid: bool = False

    @property
    def model_id(self) -> str:
        return f"bpr_deg{self.degree}" if self.kind == "bpr" else f"gpr_{self.kernel.kind}"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    kind: str  # "al_curves" | "discrepancy"
    master_seed: int
    n_seeds: int
    budget: int
    parallelism: int
    output_dir: Optional[str]
    target: SyntheticTargetSpec | DatasetTargetSpec
    pool: Optional[PoolSpec]
    test: Optional[TestSpec]
    models: tuple[ModelSpec, ...]
    strategies: tuple[StrategySpec, ...]
    description: str = ""
    # discrepancy-kind knobs
    n_train: int = 20
    grid: Optional[TestSpec] = None

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(m.model_id for m in self.models)

    @property
    def strategy_ids(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self.strategies)


# ---------------------------------------------------------------------------
# parsing / validation


def _reject_unknown(raw: dict, allowed: set[str], where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _need(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return raw[key]


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_kernel(raw: dict, where: str) -> KernelSpec:
    _reject_unknown(raw, {"kind", "amplitude", "lengthscale", "bias", "weight"}, where)
    kind = _need(raw, "kind", where)
    try:
        return KernelSpec(
            kind=kind,
            amplitude=_as_number(raw.get("amplitude", 1.0), f"{where}.amplitude"),
            lengthscale=_as_number(raw.get("lengthscale", 1.0), f"{where}.lengthscale"),
            bias=_as_number(raw.get("bias", 1.0), f"{where}.bias"),
            weight=_as_number(raw.get("weight", 1.0), f"{where}.weight"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_target(raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError("target: expected an object")
    kind = _need(raw, "kind", "target")
    if kind == "synthetic":
        _reject_unknown(raw, {"kind", "order", "family", "noise_variance",
                              "cosine_amplitude", "cosine_frequency"}, "target")
        family = raw.get("family", PURE_POLYNOMIAL)
        if family not in (PURE_POLYNOMIAL, POLYNOMIAL_PLUS_COSINE):
            raise ConfigError(f"target.family: unknown family {family!r}")
        order = _as_int(_need(raw, "order", "target"), "target.order")
        if order < 0:
            raise ConfigError("target.order: must be >= 0")
        nv = _as_number(raw.get("noise_variance", 1.0), "target.noise_variance")
        if nv < 0:
            raise ConfigError("target.noise_variance: must be >= 0")
        return SyntheticTargetSpec(
            order=order,
            family=family,
            noise_variance=nv,
            cosine_amplitude=_as_number(raw.get("cosine_amplitude", 1.0),
                                        "target.cosine_amplitude"),
            cosine_frequency=_as_number(raw.get("cosine_frequency", 1.0),
                                        "target.cosine_frequency"),
        )
    if kind == "dataset":
        _reject_unknown(raw, {"kind", "schema", "path", "test_fraction", "subsample",
                              "model_noise_variance"}, "target")
        frac = _as_number(_need(raw, "test_fraction", "target"), "target.test_fraction")
        if not 0.0 < frac < 1.0:
            raise ConfigError("target.test_fraction: must lie in (0, 1)")
        sub = raw.get("subsample")
        if sub is not None:
            sub = _as_int(sub, "target.subsample")
            if sub < 2:
                raise ConfigError("target.subsample: must be >= 2")
        nv = _as_number(_need(raw, "model_noise_variance", "target"),
                        "target.model_noise_variance")
        if nv <= 0:
            raise ConfigError("target.model_noise_variance: must be > 0")
        return DatasetTargetSpec(
            schema=str(_need(raw, "schema", "target")),
            path=str(_need(raw, "path", "target")),
            test_fraction=frac,
            subsample=sub,
            model_noise_variance=nv,
        )
    raise ConfigError(f"target.kind: unknown kind {kind!r}")


def _parse_model(raw: dict, where: str) -> ModelSpec:
    kind = _need(raw, "kind", where)
    if kind == "bpr":
        _reject_unknown(raw, {"kind", "degree"}, where)
        degree = _as_int(_need(raw, "degree", where), f"{where}.degree")
        if degree < 0:
            raise ConfigError(f"{where}.degree: must be >= 0")
        return ModelSpec(kind="bpr", degree=degree)
    if kind == "gpr":
        _reject_unknown(raw, {"kind", "kernel", "lengthscale_grid"}, where)
        kernel = _parse_kernel(_need(raw, "kernel", where), f"{where}.kernel")
        grid = raw.get("lengthscale_grid", False)
        if not isinstance(grid, bool):
            raise ConfigError(f"{where}.lengthscale_grid: expected a boolean")
        return ModelSpec(kind="gpr", kernel=kernel, lengthscale_grid=grid)
    raise ConfigError(f"{where}.kind: unknown model kind {kind!r}")


def _parse_strategy(raw: dict, where: str) -> StrategySpec:
    kind = _need(raw, "kind", where)
    if kind in (VARIANCE, RANDOM):
        _reject_unknown(raw, {"kind"}, where)
        return StrategySpec(kind=kind)
    if kind == DIRECT_MSE:
        _reject_unknown(raw, {"kind", "surrogate_kernel"}, where)
        kernel = raw.get("surrogate_kernel")
        return StrategySpec(
            kind=kind,
            surrogate_kernel=None if kernel is None else _parse_kernel(
                kernel, f"{where}.surrogate_kernel"),
        )
    if kind == UPPER_BOUND:
        _reject_unknown(raw, {"kind", "surrogate_kernel", "gradient_bound", "confidence"},
                        where)
        bound = _need(raw, "gradient_bound", where)
        if isinstance(bound, str):
            if bound != "auto":
                raise ConfigError(f"{where}.gradient_bound: must be a number or 'auto'")
        else:
            bound = _as_number(bound, f"{where}.gradient_bound")
            if bound <= 0:
                raise ConfigError(f"{where}.gradient_bound: must be > 0")
        kernel = raw.get("surrogate_kernel")
        conf = _as_number(raw.get("confidence", 0.05), f"{where}.confidence")
        if not 0.0 < conf < 1.0:
            raise ConfigError(f"{where}.confidence: must lie in (0, 1)")
        return StrategySpec(
            kind=kind,
            surrogate_kernel=None if kernel is None else _parse_kernel(
                kernel, f"{where}.surrogate_kernel"),
            gradient_bound=bound,
            confidence=conf,
        )
    raise ConfigError(f"{where}.kind: unknown strategy kind {kind!r}")


def _parse_span(raw: dict, where: str, layouts: tuple[str, ...]) -> TestSpec | PoolSpec:
    """A pool (no ``layouts``) or a point set whose layout defaults to ``layouts[0]``."""
    allowed = {"n", "lo", "hi"} | ({"layout"} if layouts else set())
    _reject_unknown(raw, allowed, where)
    n = _as_int(_need(raw, "n", where), f"{where}.n")
    lo = _as_number(_need(raw, "lo", where), f"{where}.lo")
    hi = _as_number(_need(raw, "hi", where), f"{where}.hi")
    if not lo < hi:
        raise ConfigError(f"{where}: need lo < hi")
    if layouts:
        layout = raw.get("layout", layouts[0])
        if layout not in layouts:
            raise ConfigError(f"{where}.layout: must be "
                              + " or ".join(repr(name) for name in layouts))
        if n < 1:
            raise ConfigError(f"{where}.n: must be >= 1")
        return TestSpec(n, lo, hi, layout)
    if n < 2:
        raise ConfigError(f"{where}.n: must be >= 2")
    return PoolSpec(n, lo, hi)


def parse_config_dict(raw: dict, source: str = "<dict>") -> ExperimentConfig:
    """Validate a raw config mapping into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be an object")
    kind = raw.get("kind", "al_curves")
    if kind not in ("al_curves", "discrepancy"):
        raise ConfigError(f"kind: unknown experiment kind {kind!r}")
    common = {"experiment_id", "kind", "description", "master_seed", "n_seeds",
              "parallelism", "output_dir", "target", "models"}
    if kind == "al_curves":
        allowed = common | {"budget", "pool", "test", "strategies"}
    else:
        allowed = common | {"n_train", "grid"}
    _reject_unknown(raw, allowed, "config")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {output_dir!r}")

    experiment_id = str(_need(raw, "experiment_id", "config"))
    if not _ID_PATTERN.match(experiment_id):
        raise ConfigError("experiment_id: must match [a-z0-9_-]+")
    n_seeds = _as_int(_need(raw, "n_seeds", "config"), "n_seeds")
    if n_seeds < 1:
        raise ConfigError("n_seeds: must be >= 1")
    master_seed = _as_int(_need(raw, "master_seed", "config"), "master_seed")
    if master_seed < 0:
        raise ConfigError("master_seed: must be >= 0")
    parallelism = _as_int(raw.get("parallelism", 1), "parallelism")
    if parallelism < 1:
        raise ConfigError("parallelism: must be >= 1")
    target = _parse_target(_need(raw, "target", "config"))

    models_raw = _need(raw, "models", "config")
    if not isinstance(models_raw, list) or not models_raw:
        raise ConfigError("models: expected a non-empty list")
    models = tuple(_parse_model(m, f"models[{i}]") for i, m in enumerate(models_raw))
    if isinstance(target, DatasetTargetSpec) and any(m.kind == "bpr" for m in models):
        raise ConfigError("models: polynomial models are univariate; dataset targets "
                          "must use gpr models")

    if kind == "discrepancy":
        if not isinstance(target, SyntheticTargetSpec):
            raise ConfigError("target: discrepancy experiments need a synthetic target")
        if any(m.kind != "bpr" for m in models):
            raise ConfigError("models: discrepancy experiments use bpr models only")
        n_train = _as_int(raw.get("n_train", 20), "n_train")
        if n_train < 0:
            raise ConfigError("n_train: must be >= 0")
        # the closed-form gap is evaluated on an even grid, the only layout
        grid = _parse_span(raw.get("grid", {"n": 50, "lo": -2.0, "hi": 2.0}), "grid",
                           layouts=("grid",))
        return ExperimentConfig(
            experiment_id=experiment_id, kind=kind, master_seed=master_seed,
            n_seeds=n_seeds, budget=0, parallelism=parallelism,
            output_dir=output_dir, target=target, pool=None, test=None,
            models=models, strategies=(), description=str(raw.get("description", "")),
            n_train=n_train, grid=grid,
        )

    budget = _as_int(_need(raw, "budget", "config"), "budget")
    if budget < 0:
        raise ConfigError("budget: must be >= 0")
    strategies_raw = _need(raw, "strategies", "config")
    if not isinstance(strategies_raw, list) or not strategies_raw:
        raise ConfigError("strategies: expected a non-empty list")
    strategies = tuple(
        _parse_strategy(s, f"strategies[{i}]") for i, s in enumerate(strategies_raw)
    )
    if isinstance(target, DatasetTargetSpec):
        if any(s.gradient_bound == "auto" for s in strategies):
            raise ConfigError("strategies: gradient_bound 'auto' needs a synthetic "
                              "target; supply a number for dataset targets")
        pool = test = None
        if "pool" in raw or "test" in raw:
            raise ConfigError("pool/test: dataset targets derive these from the split")
    else:
        pool = _parse_span(_need(raw, "pool", "config"), "pool", layouts=())
        test = _parse_span(_need(raw, "test", "config"), "test", layouts=("random", "grid"))
        # one pool candidate is spent on the initial labeled point
        if budget > pool.n - 1:
            raise ConfigError(
                f"budget: {budget} exceeds pool capacity {pool.n} - 1 (the initial point)"
            )
    return ExperimentConfig(
        experiment_id=experiment_id, kind=kind, master_seed=master_seed,
        n_seeds=n_seeds, budget=budget, parallelism=parallelism,
        output_dir=output_dir, target=target, pool=pool, test=test,
        models=models, strategies=strategies,
        description=str(raw.get("description", "")),
    )


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config_dict(raw, source=str(path))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved config as plain JSON-serializable data (for meta.json)."""

    def kernel_dict(k: Optional[KernelSpec]):
        if k is None:
            return None
        return {"kind": k.kind, "amplitude": k.amplitude, "lengthscale": k.lengthscale,
                "bias": k.bias, "weight": k.weight}

    if isinstance(cfg.target, SyntheticTargetSpec):
        target = {"kind": "synthetic", "order": cfg.target.order,
                  "family": cfg.target.family,
                  "noise_variance": cfg.target.noise_variance,
                  "cosine_amplitude": cfg.target.cosine_amplitude,
                  "cosine_frequency": cfg.target.cosine_frequency}
    else:
        target = {"kind": "dataset", "schema": cfg.target.schema, "path": cfg.target.path,
                  "test_fraction": cfg.target.test_fraction,
                  "subsample": cfg.target.subsample,
                  "model_noise_variance": cfg.target.model_noise_variance}
    models = []
    for m in cfg.models:
        if m.kind == "bpr":
            models.append({"kind": "bpr", "degree": m.degree})
        else:
            models.append({"kind": "gpr", "kernel": kernel_dict(m.kernel),
                           "lengthscale_grid": m.lengthscale_grid})
    strategies = []
    for s in cfg.strategies:
        entry = {"kind": s.kind}
        if s.kind in (DIRECT_MSE, UPPER_BOUND):
            entry["surrogate_kernel"] = kernel_dict(s.surrogate_kernel)
        if s.kind == UPPER_BOUND:
            entry["gradient_bound"] = s.gradient_bound
            entry["confidence"] = s.confidence
        strategies.append(entry)
    out = {
        "experiment_id": cfg.experiment_id,
        "kind": cfg.kind,
        "description": cfg.description,
        "master_seed": cfg.master_seed,
        "n_seeds": cfg.n_seeds,
        "parallelism": cfg.parallelism,
        "output_dir": cfg.output_dir,
        "target": target,
        "models": models,
    }
    if cfg.kind == "al_curves":
        out["budget"] = cfg.budget
        out["strategies"] = strategies
        if cfg.pool is not None:
            out["pool"] = {"n": cfg.pool.n, "lo": cfg.pool.lo, "hi": cfg.pool.hi}
        if cfg.test is not None:
            out["test"] = {"n": cfg.test.n, "lo": cfg.test.lo, "hi": cfg.test.hi,
                           "layout": cfg.test.layout}
    else:
        out["n_train"] = cfg.n_train
        out["grid"] = {"n": cfg.grid.n, "lo": cfg.grid.lo, "hi": cfg.grid.hi,
                       "layout": cfg.grid.layout}
    return out


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class RunKey:
    seed: int
    model_id: str
    strategy_id: str


@dataclass(frozen=True)
class AggregateResults:
    experiment_id: str
    kind: str
    model_ids: tuple[str, ...]
    strategy_ids: tuple[str, ...]
    n_seeds: int
    budget: int
    traces: dict  # RunKey -> RunTrace (al_curves)
    summary: dict  # (model_id, strategy_id) -> (mean array, std array)
    discrepancy: Optional[dict] = None  # model_id -> (grid xs, mean gaps)


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
    pool = build_pool(cfg.pool.n, cfg.pool.lo, cfg.pool.hi)
    oracle = SyntheticOracle(target, cfg.master_seed, (seed, 1))
    init_index = int(derive_rng(cfg.master_seed, seed, 2).integers(cfg.pool.n))
    test = build_test_set(cfg.test.n, cfg.test.lo, cfg.test.hi, target,
                          derive_rng(cfg.master_seed, seed, 3), cfg.test.layout)
    strategies = tuple(
        replace(s, gradient_bound=gradient_bound(target, cfg.pool.lo, cfg.pool.hi))
        if s.kind == UPPER_BOUND and s.gradient_bound == "auto" else s
        for s in cfg.strategies
    )
    return pool, oracle, init_index, test, t.noise_variance, strategies


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
    pool = UnlabeledPool(train.features, np.ones(len(train), dtype=bool))
    init_index = int(derive_rng(cfg.master_seed, seed, 2).integers(len(train)))
    test = TestSet(test_part.features, test_part.targets, None)
    return (pool, TableOracle(train.targets), init_index, test, t.model_noise_variance,
            cfg.strategies)


def _seed_runs(cfg: ExperimentConfig, seed: int,
               data: Optional[TabularDataset]) -> list[tuple[RunKey, RunTrace]]:
    """Every (model, strategy) run of one seed, all from one initial labeled point.

    The per-target setup gives the candidate pool, its label oracle, the
    index of the initial labeled candidate, the test set, the models' noise
    variance, and the strategies with every bound resolved.
    """
    setup = _dataset_setup if isinstance(cfg.target, DatasetTargetSpec) else _synthetic_setup
    pool, oracle, init_index, test, noise_variance, strategies = setup(cfg, seed, data)
    init_x = pool.candidates[init_index]
    init = LabeledSet(init_x[None, :], [oracle.label(init_index, init_x)])
    pool = pool.deactivated(init_index)

    out = []
    for mi, model_spec in enumerate(cfg.models):
        for si, strategy in enumerate(strategies):
            learner = _make_learner(model_spec, noise_variance)
            key = RunKey(seed, model_spec.model_id, strategy.kind)
            try:
                trace = run_al(learner, strategy, oracle, init, pool, test, cfg.budget,
                               derive_rng(cfg.master_seed, seed, 4, mi, si))
            except Exception as exc:
                raise RuntimeError(f"run failed at {key}: {exc}") from exc
            out.append((key, trace))
    return out


def _seed_discrepancy(cfg: ExperimentConfig, seed: int) -> np.ndarray:
    """Gap |closed-form MSE - 2*spread| per (model, grid point) for one seed."""
    t = cfg.target
    rng = derive_rng(cfg.master_seed, seed, 0)
    inputs = rng.uniform(cfg.grid.lo, cfg.grid.hi, cfg.n_train)
    family = TargetFamily(t.order, np.zeros(t.order + 1), np.eye(t.order + 1),
                          t.noise_variance)
    xs = np.linspace(cfg.grid.lo, cfg.grid.hi, cfg.grid.n)
    gaps = np.empty((len(cfg.models), cfg.grid.n))
    for mi, model_spec in enumerate(cfg.models):
        prior = default_prior(model_spec.degree, t.noise_variance)
        for xi, x in enumerate(xs):
            gaps[mi, xi] = variance_proxy_gap(float(x), family, prior, inputs)
    return gaps


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

    if cfg.kind == "discrepancy":
        stacked = np.stack([gaps for _, gaps in results])  # (seeds, models, grid)
        mean_gaps = stacked.mean(axis=0)
        xs = np.linspace(cfg.grid.lo, cfg.grid.hi, cfg.grid.n)
        discrepancy = {
            model_id: (xs, mean_gaps[mi]) for mi, model_id in enumerate(cfg.model_ids)
        }
        return AggregateResults(cfg.experiment_id, cfg.kind, cfg.model_ids, (),
                                cfg.n_seeds, 0, {}, {}, discrepancy)

    traces: dict[RunKey, RunTrace] = {}
    for _, runs in results:
        for key, trace in runs:
            traces[key] = trace
    summary = {}
    for model_id in cfg.model_ids:
        for strategy_id in cfg.strategy_ids:
            curves = np.array([
                [rec.test_mse for rec in traces[RunKey(seed, model_id, strategy_id)].records]
                for seed in range(cfg.n_seeds)
            ])
            summary[(model_id, strategy_id)] = (curves.mean(axis=0), curves.std(axis=0))
    return AggregateResults(cfg.experiment_id, cfg.kind, cfg.model_ids,
                            cfg.strategy_ids, cfg.n_seeds, cfg.budget, traces, summary)


# ---------------------------------------------------------------------------
# emission


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_chosen(x) -> str:
    if x is None:
        return ""
    arr = np.asarray(x, dtype=float).reshape(-1)
    return ";".join(_fmt(v) for v in arr)


def emit(results: AggregateResults, out_dir: str | Path, cfg: ExperimentConfig,
         wall_time_s: float = 0.0) -> list[Path]:
    """Write traces.csv, summary.csv, meta.json, and one SVG per model."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    if results.kind == "discrepancy":
        path = out / "discrepancy.csv"
        lines = [DISCREPANCY_HEADER]
        for model_id in results.model_ids:
            xs, gaps = results.discrepancy[model_id]
            lines.extend(
                f"{results.experiment_id},{model_id},{_fmt(x)},{_fmt(g)}"
                for x, g in zip(xs, gaps)
            )
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)
        series = [
            Series(model_id, results.discrepancy[model_id][0],
                   np.maximum(results.discrepancy[model_id][1], 1e-18))
            for model_id in results.model_ids
        ]
        svg_path = out / "discrepancy.svg"
        _write_text(svg_path, line_chart(
            f"{results.experiment_id}: variance-proxy gap", "x", "|MSE - 2*spread|",
            series, log_y=True,
        ))
        written.append(svg_path)
    else:
        trace_lines = [TRACES_HEADER]
        init_size = 1
        for seed in range(results.n_seeds):
            for model_id in results.model_ids:
                for strategy_id in results.strategy_ids:
                    trace = results.traces[RunKey(seed, model_id, strategy_id)]
                    for rec in trace.records:
                        bias = "" if rec.bias is None else _fmt(rec.bias)
                        var = "" if rec.variance is None else _fmt(rec.variance)
                        trace_lines.append(
                            f"{results.experiment_id},{seed},{model_id},{strategy_id},"
                            f"{rec.step},{init_size + rec.step},{_fmt_chosen(rec.chosen_x)},"
                            f"{_fmt(rec.test_mse)},{bias},{var}"
                        )
        path = out / "traces.csv"
        _write_text(path, "\n".join(trace_lines) + "\n")
        written.append(path)

        summary_lines = [SUMMARY_HEADER]
        for model_id in results.model_ids:
            for strategy_id in results.strategy_ids:
                means, stds = results.summary[(model_id, strategy_id)]
                summary_lines.extend(
                    f"{results.experiment_id},{model_id},{strategy_id},{step},"
                    f"{_fmt(means[step])},{_fmt(stds[step])},{results.n_seeds}"
                    for step in range(means.size)
                )
        path = out / "summary.csv"
        _write_text(path, "\n".join(summary_lines) + "\n")
        written.append(path)

        steps = np.arange(results.budget + 1)
        for model_id in results.model_ids:
            series = []
            for strategy_id in results.strategy_ids:
                means, stds = results.summary[(model_id, strategy_id)]
                floor = 1e-12
                series.append(Series(
                    strategy_id, steps, np.maximum(means, floor),
                    band_low=np.maximum(means - stds, floor),
                    band_high=np.maximum(means + stds, floor),
                ))
            svg_path = out / f"curves_{model_id}.svg"
            _write_text(svg_path, line_chart(
                f"{results.experiment_id}: {model_id}", "acquisitions",
                "mean test MSE", series, log_y=True,
            ))
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
        if args.parallel is not None:
            if args.parallel < 1:
                raise ConfigError("--parallel: must be >= 1")
            cfg = replace(cfg, parallelism=args.parallel)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed: must be >= 0")
            cfg = replace(cfg, master_seed=args.seed)
        out_dir = Path(args.out) if args.out else _default_out_dir(cfg)
        start = time.perf_counter()
        results = run_experiment(cfg)
        wall = time.perf_counter() - start
        for path in emit(results, out_dir, cfg, wall):
            print(f"wrote {path}")
        return 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

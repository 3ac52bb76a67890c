"""Experiment configs: the config dataclasses and one field table per JSON section.

Each :class:`Section` table maps a JSON key to its type, its default (or
``REQUIRED``) and its rule. One reader builds an :class:`ExperimentConfig`
from the tables and one dumper writes it back, so a dumped config re-parses
to an equal one. ``null`` stands for the default where the default is ``null``.
Checks spanning several fields are plain code in :func:`parse_config_dict`;
``KernelSpec``, ``StrategySpec`` and ``Span`` validate themselves. No other
module parses JSON: :mod:`ual_lab.datasets` reads schemas with :func:`read_json`
and :func:`read` too.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .acquisition import DIRECT_MSE, RANDOM, UPPER_BOUND, VARIANCE, StrategySpec
from .errors import ConfigError
from .gpr import LINEAR, MATERN52, RBF, KernelSpec
from .synthetic import POLYNOMIAL_PLUS_COSINE, PURE_POLYNOMIAL

__all__ = [
    "SyntheticTargetSpec",
    "DatasetTargetSpec",
    "Span",
    "ModelSpec",
    "ExperimentConfig",
    "parse_config",
    "parse_config_dict",
    "config_to_dict",
    "read",
    "read_json",
]


@dataclass(frozen=True)
class SyntheticTargetSpec:
    kind: str  # "synthetic"
    order: int
    family: str
    noise_variance: float


@dataclass(frozen=True)
class DatasetTargetSpec:
    kind: str  # "dataset"
    schema: str
    path: str
    test_fraction: float
    subsample: Optional[int]
    model_noise_variance: float


@dataclass(frozen=True)
class Span:
    """``n`` points on [lo, hi]: a candidate pool, a test set or a discrepancy grid."""

    n: int
    lo: float
    hi: float
    layout: Optional[str] = None  # set for a grid only

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "bpr" | "gpr"; the other kind's fields stay None
    degree: Optional[int] = None
    kernel: Optional[KernelSpec] = None

    @property
    def model_id(self) -> str:
        return f"bpr_deg{self.degree}" if self.kind == "bpr" else f"gpr_{self.kernel.kind}"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    kind: str  # "al_curves" | "discrepancy"
    description: str
    master_seed: int
    n_seeds: int
    parallelism: int
    output_dir: Optional[str]
    target: SyntheticTargetSpec | DatasetTargetSpec
    models: tuple[ModelSpec, ...]
    # al_curves fields; a discrepancy config leaves them at these placeholders
    budget: int = 0
    pool: Optional[Span] = None
    test: Optional[Span] = None
    strategies: tuple[StrategySpec, ...] = ()
    # discrepancy fields; an al_curves config leaves them at these placeholders
    n_train: int = 0
    grid: Optional[Span] = None

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(m.model_id for m in self.models)

    @property
    def strategy_ids(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self.strategies)


# ---------------------------------------------------------------------------
# the generic reader and dumper

REQUIRED = object()

_SCALAR_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}


@dataclass(frozen=True)
class Section:
    """One JSON object, read into ``cls``.

    ``table`` maps each JSON key, also a field name of ``cls``, to
    ``(type, default, rule)``. A type is ``int``, ``float``, ``str`` or
    ``bool`` (or a tuple of these), a Section, a dict of sections keyed by the
    object's ``kind`` (which each such ``cls`` keeps in its ``kind`` field), or
    ``[type]`` for a list; a ``float`` must be finite. A default is
    ``REQUIRED`` or JSON data, read like a given value. A rule is None or
    ``(predicate, message shown when it fails)``.
    """

    cls: type
    table: dict


def _key_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def read(tp, value, path: str):
    """``value`` read as the type ``tp`` of a :class:`Section` table; a ``ConfigError``
    names the key path below ``path``, whose empty value reads "config"."""
    if isinstance(tp, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(read(tp[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(tp, (Section, dict)):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        if isinstance(tp, Section):
            return _read_section(tp, value, path)
        return _read_kind(tp, value, path)
    scalars = tp if isinstance(tp, tuple) else (tp,)
    for scalar in scalars:
        accepted = (int, float) if scalar is float else scalar
        # an integer is also a number; a boolean is nothing but a boolean
        if isinstance(value, accepted) and isinstance(value, bool) == (scalar is bool):
            # NaN, the infinities and integers beyond the float range fail this
            if scalar is float and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{path}: expected a finite number, got {value!r}")
            return float(value) if scalar is float else value
    names = " or ".join(_SCALAR_NAMES[scalar] for scalar in scalars)
    raise ConfigError(f"{path}: expected {names}, got {value!r}")


def _read_section(section: Section, raw: dict, path: str, **given):
    where = path or "config"
    unknown = set(raw) - set(section.table)
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    for key, (tp, default, rule) in section.table.items():
        value = raw.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        if value is not None or default is not None:
            value = read(tp, value, _key_path(path, key))
            if rule and not rule[0](value):
                raise ConfigError(f"{_key_path(path, key)}: {rule[1]}")
        given[key] = value
    try:
        return section.cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_kind(sections: dict, raw: dict, path: str, default=REQUIRED):
    raw = dict(raw)
    kind = raw.pop("kind", default)
    if kind is REQUIRED:
        raise ConfigError(f"{path or 'config'}: missing required key 'kind'")
    section = sections.get(kind) if isinstance(kind, str) else None
    if section is None:
        raise ConfigError(f"{_key_path(path, 'kind')}: unknown kind {kind!r}")
    return _read_section(section, raw, path, kind=kind)


def _dump(tp, value):
    if value is None or not isinstance(tp, (list, dict, Section)):
        return value
    if isinstance(tp, list):
        return [_dump(tp[0], v) for v in value]
    if isinstance(tp, dict):
        return {"kind": value.kind, **_dump(tp[value.kind], value)}
    return {key: _dump(field_type, getattr(value, key))
            for key, (field_type, _, _) in tp.table.items()}


# ---------------------------------------------------------------------------
# rules and tables


def _at_least(bound):
    return (lambda v: v >= bound), f"must be >= {bound}"


def _one_of(*names):
    return (lambda v: v in names), "must be " + " or ".join(map(repr, names))


NON_EMPTY = bool, "expected a non-empty list"


_STATIONARY = Section(KernelSpec, {"amplitude": (float, 1.0, None),
                                   "lengthscale": (float, 1.0, None)})
KERNEL = {
    LINEAR: Section(KernelSpec, {"bias": (float, 1.0, None), "weight": (float, 1.0, None)}),
    RBF: _STATIONARY,
    MATERN52: _STATIONARY,
}

TARGET = {
    "synthetic": Section(SyntheticTargetSpec, {
        "order": (int, REQUIRED, _at_least(0)),
        "family": (str, PURE_POLYNOMIAL, _one_of(PURE_POLYNOMIAL, POLYNOMIAL_PLUS_COSINE)),
        "noise_variance": (float, 1.0, _at_least(0)),
    }),
    "dataset": Section(DatasetTargetSpec, {
        "schema": (str, REQUIRED, None),
        "path": (str, REQUIRED, None),
        "test_fraction": (float, REQUIRED, (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")),
        "subsample": (int, None, _at_least(2)),
        "model_noise_variance": (float, REQUIRED, (lambda v: v > 0, "must be > 0")),
    }),
}

MODEL = {
    "bpr": Section(ModelSpec, {"degree": (int, REQUIRED, _at_least(0))}),
    "gpr": Section(ModelSpec, {"kernel": (KERNEL, REQUIRED, None)}),
}

_SURROGATE = (KERNEL, None, None)  # StrategySpec fills in its default kernel
STRATEGY = {
    VARIANCE: Section(StrategySpec, {}),
    RANDOM: Section(StrategySpec, {}),
    DIRECT_MSE: Section(StrategySpec, {"surrogate_kernel": _SURROGATE}),
    UPPER_BOUND: Section(StrategySpec, {
        "surrogate_kernel": _SURROGATE,
        "gradient_bound": ((float, str), REQUIRED, None),  # StrategySpec checks for "auto"
        "confidence": (float, 0.05, None),
    }),
}

_ENDS = {"lo": (float, REQUIRED, None), "hi": (float, REQUIRED, None)}
POOL = Section(Span, {"n": (int, REQUIRED, _at_least(2)), **_ENDS})
TEST = Section(Span, {"n": (int, REQUIRED, _at_least(1)), **_ENDS})
# the closed-form gap is evaluated on an even grid, the only layout
GRID = Section(Span, {"n": (int, REQUIRED, _at_least(1)), **_ENDS,
                      "layout": (str, "grid", _one_of("grid"))})

_COMMON = {
    "experiment_id": (str, REQUIRED, (re.compile(r"^[a-z0-9_-]+$").match,
                                      "must match [a-z0-9_-]+")),
    "description": (str, "", None),
    "master_seed": (int, REQUIRED, _at_least(0)),
    "n_seeds": (int, REQUIRED, _at_least(1)),
    "parallelism": (int, 1, _at_least(1)),
    "output_dir": (str, None, None),
    "target": (TARGET, REQUIRED, None),
    "models": ([MODEL], REQUIRED, NON_EMPTY),
}

EXPERIMENT = {
    "al_curves": Section(ExperimentConfig, {
        **_COMMON,
        "budget": (int, REQUIRED, _at_least(0)),
        "strategies": ([STRATEGY], REQUIRED, NON_EMPTY),
        # required for a synthetic target, absent for a dataset target
        "pool": (POOL, None, None),
        "test": (TEST, None, None),
    }),
    "discrepancy": Section(ExperimentConfig, {
        **_COMMON,
        "n_train": (int, 20, _at_least(0)),
        "grid": (GRID, {"n": 50, "lo": -2.0, "hi": 2.0}, None),
    }),
}


# ---------------------------------------------------------------------------
# entry points


def parse_config_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected an object")
    cfg = _read_kind(EXPERIMENT, raw, "", default="al_curves")
    # results are keyed by id, so a repeated id would overwrite an earlier entry's
    for key, ids in (("models", cfg.model_ids), ("strategies", cfg.strategy_ids)):
        for n, entry_id in enumerate(ids):
            if entry_id in ids[:n]:
                raise ConfigError(f"{key}: duplicate id {entry_id!r}; each entry needs its own id")
    dataset = cfg.target.kind == "dataset"
    bpr = any(m.kind == "bpr" for m in cfg.models)
    if dataset and bpr:
        raise ConfigError("models: polynomial models are univariate; dataset targets "
                          "must use gpr models")
    if not dataset and bpr and cfg.target.noise_variance == 0:
        # a bpr model takes the target's noise variance as its own
        raise ConfigError("target.noise_variance: must be > 0 for bpr models")
    if cfg.kind == "discrepancy":
        # with the rule above, this also keeps dataset targets out
        if any(m.kind != "bpr" for m in cfg.models):
            raise ConfigError("models: discrepancy experiments use bpr models only")
        if cfg.target.family != PURE_POLYNOMIAL:  # the closed forms know no cosine term
            raise ConfigError(f"target.family: discrepancy experiments need "
                              f"{PURE_POLYNOMIAL!r}, got {cfg.target.family!r}")
    elif dataset:
        if any(s.gradient_bound == "auto" for s in cfg.strategies):
            raise ConfigError("strategies: gradient_bound 'auto' needs a synthetic "
                              "target; supply a number for dataset targets")
        if cfg.pool is not None or cfg.test is not None:
            raise ConfigError("pool/test: dataset targets derive these from the split")
    else:
        for key in ("pool", "test"):
            if getattr(cfg, key) is None:
                raise ConfigError(f"config: missing required key {key!r}")
        # one pool candidate is spent on the initial labeled point
        if cfg.budget > cfg.pool.n - 1:
            raise ConfigError(
                f"budget: {cfg.budget} exceeds pool capacity {cfg.pool.n} - 1 "
                "(the initial point)"
            )
    return cfg


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` raising on a repeated key, whose last value json would keep."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def read_json(path: Path):
    """The JSON value in the file at ``path``, UTF-8 with or without a byte-order mark;
    ``ConfigError`` naming the file if it is missing, not UTF-8 or JSON, or repeats a key."""
    if not path.is_file():
        raise ConfigError(f"file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # a repeated key
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    return parse_config_dict(read_json(Path(path)))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved config as plain JSON data (for meta.json); it re-parses to ``cfg``."""
    return _dump(EXPERIMENT, cfg)

"""Tabular dataset loading, splitting, and standardization.

Files are user-supplied CSVs; schema JSON files declare the delimiter, the
target column, the feature columns, and which of those are categorical
(one-hot encoded at load). Rows with missing or unparseable values are
dropped and counted. No downloads happen here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError

__all__ = [
    "DatasetSchema",
    "TabularDataset",
    "Standardizer",
    "load_schema",
    "load_csv",
    "split",
    "fit_standardizer",
    "apply_standardizer",
]

BUILTIN_SCHEMAS = ("concrete", "facebook")


@dataclass(frozen=True)
class DatasetSchema:
    name: str
    delimiter: str
    target: str
    features: tuple[str, ...]
    categorical: tuple[str, ...] = ()

    def __post_init__(self):
        if self.delimiter not in (",", ";"):
            raise DataError(f"unsupported delimiter {self.delimiter!r}")
        unknown = set(self.categorical) - set(self.features)
        if unknown:
            raise DataError(f"categorical columns not in features: {sorted(unknown)}")


@dataclass(frozen=True)
class TabularDataset:
    """Numeric feature matrix with a target vector and provenance metadata."""

    features: np.ndarray          # (n, d)
    targets: np.ndarray           # (n,)
    feature_names: tuple[str, ...]
    target_name: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if features.ndim != 2 or features.shape[0] != targets.shape[0]:
            raise DataError("features and targets must have matching row counts")
        if features.shape[1] != len(self.feature_names):
            raise DataError("feature_names must match the feature matrix width")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(targets))):
            raise DataError("non-finite values after loading")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return self.features.shape[0]


def load_schema(schema: str | Path) -> DatasetSchema:
    """Resolve a built-in schema id or a path to a schema JSON file."""
    if isinstance(schema, str) and schema in BUILTIN_SCHEMAS:
        path = resources.files("ual_lab.schemas").joinpath(f"{schema}.json")
        name = schema
    else:
        path = Path(schema)
        if not path.exists():
            raise DataError(f"schema file not found: {path}")
        name = path.stem
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise DataError(f"schema {path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"schema {path}: must be a JSON object, not {type(raw).__name__}")
    for key in ("features", "categorical"):
        value = raw.get(key, [])
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise DataError(f"schema {path}: {key} must be a list of strings, not {value!r}")
    if not isinstance(raw.get("target", ""), str):
        raise DataError(f"schema {path}: target must be a string, not {raw['target']!r}")
    try:
        return DatasetSchema(
            name=name,
            delimiter=raw["delimiter"],
            target=raw["target"],
            features=tuple(raw["features"]),
            categorical=tuple(raw.get("categorical", ())),
        )
    except KeyError as exc:
        raise DataError(f"schema {name!r} is missing key {exc}") from exc


def load_csv(path: str | Path, schema: str | Path | DatasetSchema) -> TabularDataset:
    """Load a CSV under a schema; malformed rows are dropped, not imputed."""
    if not isinstance(schema, DatasetSchema):
        schema = load_schema(schema)
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle, delimiter=schema.delimiter))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows.pop(0)]
    required = set(schema.features) | {schema.target}
    missing = required - set(header)
    if missing:
        raise DataError(f"{path}: header is missing schema columns {sorted(missing)}")
    col_index = {name: header.index(name) for name in required}

    numeric_cols = [c for c in schema.features if c not in schema.categorical]
    kept_numeric: list[list[float]] = []
    kept_categories: list[list[str]] = []
    kept_targets: list[float] = []
    dropped = 0
    for row in rows:
        if len(row) < len(header):
            dropped += 1
            continue
        try:
            target_value = float(row[col_index[schema.target]])
            numeric = [float(row[col_index[c]]) for c in numeric_cols]
        except ValueError:
            dropped += 1
            continue
        cats = [row[col_index[c]].strip() for c in schema.categorical]
        if any(c == "" for c in cats) or not np.all(np.isfinite(numeric + [target_value])):
            dropped += 1
            continue
        kept_numeric.append(numeric)
        kept_categories.append(cats)
        kept_targets.append(target_value)
    if not kept_targets:
        raise DataError(f"{path}: no usable rows (dropped {dropped})")

    names = list(numeric_cols)
    matrix = np.asarray(kept_numeric, dtype=float)
    for j, col in enumerate(schema.categorical):
        levels = sorted({cats[j] for cats in kept_categories})
        onehot = np.zeros((len(kept_categories), len(levels)))
        level_index = {lvl: i for i, lvl in enumerate(levels)}
        for i, cats in enumerate(kept_categories):
            onehot[i, level_index[cats[j]]] = 1.0
        matrix = np.hstack([matrix, onehot]) if matrix.size else onehot
        names.extend(f"{col}={lvl}" for lvl in levels)

    return TabularDataset(
        matrix,
        np.asarray(kept_targets, dtype=float),
        tuple(names),
        schema.target,
        meta={"source": str(path), "schema": schema.name, "dropped_rows": dropped},
    )


def split(
    ds: TabularDataset,
    test_fraction: float,
    rng: np.random.Generator,
    subsample: Optional[int] = None,
) -> tuple[TabularDataset, TabularDataset]:
    """Optional subsample without replacement, then a disjoint random split."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n = len(ds)
    indices = np.arange(n)
    if subsample is not None:
        if subsample > n:
            raise DataError(f"subsample {subsample} exceeds the dataset's {n} rows")
        indices = rng.choice(n, size=subsample, replace=False)
    perm = indices[rng.permutation(indices.size)]
    n_test = int(round(perm.size * test_fraction))
    if not 0 < n_test < perm.size:
        side = "test" if n_test == 0 else "train"
        raise DataError(f"test_fraction {test_fraction} of {perm.size} rows leaves an "
                        f"empty {side} partition ({n_test} test, {perm.size - n_test} train)")
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])

    def take(idx, tag):
        meta = dict(ds.meta)
        meta["partition"] = tag
        return TabularDataset(ds.features[idx], ds.targets[idx],
                              ds.feature_names, ds.target_name, meta)

    return take(train_idx, "train"), take(test_idx, "test")


@dataclass(frozen=True)
class Standardizer:
    """Column statistics fit on the training partition only."""

    feature_means: np.ndarray
    feature_stds: np.ndarray
    target_mean: float
    target_std: float
    kept_columns: tuple[int, ...]     # indices into the original features
    dropped_names: tuple[str, ...]    # zero-variance columns


def fit_standardizer(train: TabularDataset) -> Standardizer:
    """Means and stds from the train split; constant columns are dropped."""
    if len(train) == 0:
        raise ValueError("cannot standardize an empty dataset")
    means = train.features.mean(axis=0)
    stds = train.features.std(axis=0)
    kept = tuple(int(i) for i in np.flatnonzero(stds > 0))
    dropped = tuple(train.feature_names[i] for i in range(len(stds)) if stds[i] == 0)
    t_std = float(train.targets.std())
    if t_std == 0:
        raise DataError("target column is constant on the training split")
    return Standardizer(
        means[list(kept)], stds[list(kept)],
        float(train.targets.mean()), t_std, kept, dropped,
    )


def apply_standardizer(st: Standardizer, ds: TabularDataset) -> TabularDataset:
    """Apply train statistics to any partition (no leakage by construction)."""
    keep = list(st.kept_columns)
    features = (ds.features[:, keep] - st.feature_means) / st.feature_stds
    targets = (ds.targets - st.target_mean) / st.target_std
    meta = dict(ds.meta)
    if st.dropped_names:
        meta["dropped_columns"] = list(st.dropped_names)
    meta["standardized"] = True
    return TabularDataset(
        features, targets,
        tuple(ds.feature_names[i] for i in keep), ds.target_name, meta,
    )

"""Tabular dataset loading, splitting, and standardization.

Files are user-supplied CSVs; schema JSON files declare the delimiter, the
target column, the feature columns, and which of those are categorical
(one-hot encoded at load), read by :mod:`ual_lab.config`'s JSON reader
through the ``SCHEMA`` table. A shipped schema id names the file
``schemas/<id>.json`` next to this module; any other value is a path.
Rows with missing or unparseable values, or with more or fewer fields
than the header, are dropped and counted; a header that repeats a schema
column is rejected. No downloads happen here. ``split`` draws row indices
and ``standardized`` scales both partitions by the train rows alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import NON_EMPTY, REQUIRED, Section, read, read_json
from .errors import ConfigError, DataError

__all__ = [
    "DatasetSchema",
    "TabularDataset",
    "load_schema",
    "load_csv",
    "split",
    "standardized",
]


@dataclass(frozen=True)
class DatasetSchema:
    delimiter: str
    target: str
    features: tuple[str, ...]
    categorical: tuple[str, ...]

    def __post_init__(self):
        if self.target in self.features:
            raise ValueError(f"features include the target {self.target!r}")
        for key in ("features", "categorical"):
            columns = getattr(self, key)
            repeated = sorted({c for c in columns if columns.count(c) > 1})
            if repeated:
                raise ValueError(f"{key} lists columns twice: {repeated}")
        unknown = set(self.categorical) - set(self.features)
        if unknown:
            raise ValueError(f"categorical columns not in features: {sorted(unknown)}")


SCHEMA = Section(DatasetSchema, {
    "delimiter": (str, REQUIRED, (lambda v: v in (",", ";"), "must be ',' or ';'")),
    "target": (str, REQUIRED, None),
    "features": ([str], REQUIRED, NON_EMPTY),
    "categorical": ([str], [], None),
})


@dataclass(frozen=True)
class TabularDataset:
    """Numeric feature matrix with a target vector and the count of rows the
    loader dropped."""

    features: np.ndarray          # (n, d)
    targets: np.ndarray           # (n,)
    feature_names: tuple[str, ...]
    dropped_rows: int = 0

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
    """Read a shipped schema id or a path to a schema JSON file."""
    path = Path(__file__).with_name("schemas") / f"{schema}.json"
    if not path.is_file():
        path = Path(schema)
    try:
        # key paths read "<file>: schema.features[0]"
        return read(SCHEMA, read_json(path), f"{path}: schema")
    except ConfigError as exc:
        raise DataError(str(exc)) from exc


def load_csv(path: str | Path, schema: str | Path) -> TabularDataset:
    """Load a CSV under a schema id or file; malformed rows are dropped, not imputed."""
    schema = load_schema(schema)
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
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
    repeated = sorted(name for name in required if header.count(name) > 1)
    if repeated:
        raise DataError(f"{path}: header repeats schema columns {repeated}")
    col_index = {name: header.index(name) for name in required}

    numeric_cols = [c for c in schema.features if c not in schema.categorical]
    kept_numeric: list[list[float]] = []
    kept_categories: list[list[str]] = []
    kept_targets: list[float] = []
    dropped = 0
    for row in rows:
        if len(row) != len(header):
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
    blocks = [np.asarray(kept_numeric, dtype=float)]
    for col, values in zip(schema.categorical, zip(*kept_categories)):
        levels, codes = np.unique(values, return_inverse=True)
        blocks.append(np.eye(len(levels))[codes])
        names.extend(f"{col}={lvl}" for lvl in levels)
    return TabularDataset(np.hstack(blocks), np.asarray(kept_targets, dtype=float),
                          tuple(names), dropped)


def split(
    ds: TabularDataset,
    test_fraction: float,
    rng: np.random.Generator,
    subsample: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train and test row indices: an optional subsample without
    replacement, then a disjoint random split."""
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
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def standardized(ds: TabularDataset, train: np.ndarray,
                 test: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(train_x, train_y, test_x, test_y)`` centred and scaled by the means
    and stds of the ``train`` rows only, so no test row leaks into either
    partition; feature columns constant on the train rows are dropped, and
    at least one must vary."""
    if len(train) == 0:
        raise ValueError("cannot standardize on an empty train partition")
    x, y = ds.features[train], ds.targets[train]
    means, stds = x.mean(axis=0), x.std(axis=0)
    keep = stds > 0
    if not keep.any():
        raise DataError("every feature column is constant on the training split")
    y_mean, y_std = y.mean(), y.std()
    if y_std == 0:
        raise DataError("target column is constant on the training split")

    def scale(rows):
        return ((ds.features[rows][:, keep] - means[keep]) / stds[keep],
                (ds.targets[rows] - y_mean) / y_std)

    return (*scale(train), *scale(test))

"""Golden pin: every shipped config at toy scale reproduces its checked-in CSVs.

Each shipped config runs with 3 seeds, budget 12 and one process; the two
dataset configs run on the CSV writers in ``conftest.py``. The emitted
``traces.csv`` + ``summary.csv`` (``discrepancy.csv`` for the discrepancy
kind) are compared with the copies under ``tests/golden/<experiment id>/``:
ids, steps, counts and chosen inputs exactly, floats to 1e-9 relative. The
config written to ``meta.json`` must re-parse to the config that ran.

Refactors must leave this test green with the golden files untouched. A
change meant to alter results regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` and records the diff, with
its reason, in CHANGES.md.
"""

import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import write_concrete_csv, write_facebook_csv
from ual_lab.expcli import emit, parse_config_dict, run_experiment, shipped_experiments

GOLDEN = Path(__file__).parent / "golden"
N_SEEDS = 3
BUDGET = 12
DATA_ROWS = 40
SUBSAMPLE = 30
REL_TOL = 1e-9
FLOAT_COLUMNS = {"test_mse", "mc_bias", "mc_variance", "mean_mse", "std_mse", "mean_gap"}


def _toy_config(exp_id: str, data_dir: Path):
    raw = json.loads(shipped_experiments()[exp_id].read_text(encoding="utf-8"))
    raw.update(n_seeds=N_SEEDS, parallelism=1)
    if raw.get("kind", "al_curves") == "al_curves":
        raw["budget"] = BUDGET
    target = raw["target"]
    if target["kind"] == "dataset":
        writer = write_concrete_csv if target["schema"] == "concrete" else write_facebook_csv
        path = data_dir / f"{target['schema']}.csv"
        writer(path, n_rows=DATA_ROWS)
        target["path"] = str(path)
        if target["subsample"] is not None:
            target["subsample"] = SUBSAMPLE
    return parse_config_dict(raw)


def _emit_toy(exp_id: str, out_dir: Path):
    """Run the toy-scale copy of one shipped config; return it and the pinned CSV names."""
    cfg = _toy_config(exp_id, out_dir)
    emit(run_experiment(cfg), out_dir, cfg)
    if cfg.kind == "discrepancy":
        return cfg, ["discrepancy.csv"]
    return cfg, ["traces.csv", "summary.csv"]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _same(column: str, got: str, want: str) -> bool:
    if column in FLOAT_COLUMNS and want != "":
        return got != "" and math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0)
    return got == want


@pytest.mark.parametrize("exp_id", sorted(shipped_experiments()))
def test_shipped_config_matches_golden(exp_id, tmp_path):
    cfg, names = _emit_toy(exp_id, tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    assert parse_config_dict(meta["config"]) == cfg
    for name in names:
        got = _rows(tmp_path / name)
        want = _rows(GOLDEN / exp_id / name)
        assert len(got) == len(want), f"{exp_id}/{name}: {len(got)} rows, golden {len(want)}"
        for i, (g, w) in enumerate(zip(got, want), start=2):
            assert list(g) == list(w), f"{exp_id}/{name}: header differs"
            for column, wanted in w.items():
                assert _same(column, g[column], wanted), (
                    f"{exp_id}/{name} line {i} {column}: {g[column]!r}, golden {wanted!r}"
                )


def _write_golden() -> None:
    for exp_id in sorted(shipped_experiments()):
        with tempfile.TemporaryDirectory() as tmp:
            _, names = _emit_toy(exp_id, Path(tmp))
            dest = GOLDEN / exp_id
            dest.mkdir(parents=True, exist_ok=True)
            for name in names:
                shutil.copyfile(Path(tmp) / name, dest / name)
                print(f"wrote {dest / name}")


if __name__ == "__main__":
    _write_golden()
    sys.exit(0)

"""Output checks: structure, the committed reference, and one recomputation.

Each check raises ``CheckError`` with a message; the benchmark turns that
into ``"correct": false`` and a non-zero exit.

Tolerances, stated once for every comparison of floats below: a value
passes when ``|got - want| <= REL_TOL * |want| + ABS_TOL``. At the commit
that recorded the references the comparisons are exact; the slack admits a
different but equivalent summation order (for example incremental GP
updates) and nothing larger.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

import numpy as np

from ual_lab.bpr import default_prior, posterior_update, predictive_batch
from ual_lab.gpr import KernelSpec, gp_fit, gp_predict_batch
from ual_lab.rng import derive_rng
from ual_lab.synthetic import build_test_set, eval_target, sample_target

REL_TOL = 1e-6
ABS_TOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CheckError(Exception):
    """An output of the program is wrong."""


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


def _read(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def result_file(raw: dict) -> str:
    return "discrepancy.csv" if raw.get("kind") == "discrepancy" else "summary.csv"


def check_structure(raw: dict, out: Path) -> None:
    """Row counts match the config; every MSE or gap is finite and >= 0."""
    if raw.get("kind") == "discrepancy":
        rows = _read(out / "discrepancy.csv")
        _expect_rows("discrepancy.csv", rows, len(raw["models"]) * raw["grid"]["n"])
        _nonnegative("discrepancy.csv", rows, "mean_gap")
        return
    runs = raw["n_seeds"] * len(raw["models"]) * len(raw["strategies"])
    traces = _read(out / "traces.csv")
    _expect_rows("traces.csv", traces, runs * (raw["budget"] + 1))
    _nonnegative("traces.csv", traces, "test_mse")
    summary = _read(out / "summary.csv")
    _expect_rows("summary.csv", summary,
                 len(raw["models"]) * len(raw["strategies"]) * (raw["budget"] + 1))
    _nonnegative("summary.csv", summary, "mean_mse")


def _expect_rows(name: str, rows: list, want: int) -> None:
    if len(rows) != want:
        raise CheckError(f"{name}: {len(rows)} rows, expected {want}")


def _nonnegative(name: str, rows: list, column: str) -> None:
    for i, row in enumerate(rows):
        value = float(row[column])
        if not (math.isfinite(value) and value >= 0.0):
            raise CheckError(f"{name} row {i + 1}: {column} = {row[column]!r}")


def check_reference(workload: str, raw: dict, out: Path) -> None:
    """The result file equals the serial run recorded in ``reference/``."""
    name = result_file(raw)
    want = _read(REFERENCE_DIR / f"{workload}.csv")
    got = _read(out / name)
    if len(got) != len(want):
        raise CheckError(f"{name}: {len(got)} rows, reference has {len(want)}")
    value_cols = {"mean_mse", "std_mse", "x", "mean_gap"}
    for i, (g, w) in enumerate(zip(got, want)):
        if g.keys() != w.keys():
            raise CheckError(f"{name}: header differs from the reference")
        for col in g:
            same = _close(float(g[col]), float(w[col])) if col in value_cols \
                else g[col] == w[col]
            if not same:
                raise CheckError(f"{name} row {i + 1}: {col} = {g[col]}, "
                                 f"reference {w[col]}")


def check_recompute(raw: dict, out: Path, seed: int) -> str:
    """Recompute one sampled result from scratch, independent of the loop.

    Returns a one-line description of what was checked.
    """
    pick = random.Random(seed)
    if raw.get("kind") == "discrepancy":
        return _recompute_gap(raw, out, pick)
    return _recompute_final_mse(raw, out, pick)


def _recompute_final_mse(raw: dict, out: Path, pick: random.Random) -> str:
    """Final-step test MSE of one run, from a fresh fit on its chosen inputs.

    Rebuilds the target, initial point, labels and test set from the
    runner's stream paths (0 target, 1 label noise per pool index, 2 initial
    index, 3 test set) and fits once on the whole labeled set.
    """
    s = pick.randrange(raw["n_seeds"])
    model = pick.choice(raw["models"])
    strategy = pick.choice(raw["strategies"])["kind"]
    model_id = f"bpr_deg{model['degree']}" if model["kind"] == "bpr" \
        else f"gpr_{model['kernel']['kind']}"
    rows = [r for r in _read(out / "traces.csv")
            if r["seed"] == str(s) and r["model"] == model_id and r["strategy"] == strategy]
    if len(rows) != raw["budget"] + 1:
        raise CheckError(f"traces.csv: run ({s}, {model_id}, {strategy}) has {len(rows)} rows")

    master, t, pool, test = raw["master_seed"], raw["target"], raw["pool"], raw["test"]
    nv = t["noise_variance"]
    target = sample_target(t["order"], derive_rng(master, s, 0), t["family"],
                           noise_variance=nv,
                           cosine_amplitude=t.get("cosine_amplitude", 1.0),
                           cosine_frequency=t.get("cosine_frequency", 1.0))
    pool_xs = np.linspace(pool["lo"], pool["hi"], pool["n"])
    init = int(derive_rng(master, s, 2).integers(pool["n"]))
    indices = [init]
    for r in rows[1:]:
        x = float(r["chosen_x"])
        idx = int(np.argmin(np.abs(pool_xs - x)))
        if pool_xs[idx] != x:
            raise CheckError(f"traces.csv: chosen_x {x!r} is not a pool candidate")
        indices.append(idx)
    if len(set(indices)) != len(indices):
        raise CheckError(f"run ({s}, {model_id}, {strategy}) labeled a candidate twice")
    xs = pool_xs[indices]
    ys = np.array([eval_target(target, float(pool_xs[i]))
                   + math.sqrt(nv) * derive_rng(master, s, 1, i).standard_normal()
                   for i in indices])
    test_set = build_test_set(test["n"], test["lo"], test["hi"], target,
                              derive_rng(master, s, 3))
    if model["kind"] == "bpr":
        post = posterior_update(default_prior(model["degree"], nv), xs, ys)
        means, variances = predictive_batch(post, test_set.inputs[:, 0])
    else:
        k = model["kernel"]
        kernel = KernelSpec(k["kind"], amplitude=k.get("amplitude", 1.0),
                            lengthscale=k.get("lengthscale", 1.0),
                            bias=k.get("bias", 1.0), weight=k.get("weight", 1.0))
        fit = gp_fit(kernel, xs[:, None], ys, nv)
        means, variances = gp_predict_batch(fit, test_set.inputs, include_noise=True)
    want = float(np.mean((test_set.clean_outputs - means) ** 2) + np.mean(variances - nv))
    got = float(rows[-1]["test_mse"])
    if not _close(got, want):
        raise CheckError(f"run ({s}, {model_id}, {strategy}): final test_mse {got!r}, "
                         f"from-scratch fit gives {want!r}")
    return f"final test_mse of ({s}, {model_id}, {strategy}) = {want:.6g} from scratch"


def _recompute_gap(raw: dict, out: Path, pick: random.Random) -> str:
    """One (model, grid point) mean gap, from a direct derivation.

    The posterior mean is affine in y = Phi w + eps, so with zero prior and
    family means the expected squared error is c'c + sigma^2 |B' phi_p|^2,
    where B = Sigma_p Phi_p' / sigma^2 and c = phi_l - Phi_l' B' phi_p; the
    closed form adds the spread phi_p' Sigma_p phi_p. This bypasses the
    nine-term sum and ``analysis._posterior_cov``.
    """
    mi = pick.randrange(len(raw["models"]))
    p = raw["models"][mi]["degree"]
    grid, t = raw["grid"], raw["target"]
    gi = pick.randrange(grid["n"])
    x = float(np.linspace(grid["lo"], grid["hi"], grid["n"])[gi])
    nv, order = t["noise_variance"], t["order"]
    phi_p, phi_l = x ** np.arange(p + 1), x ** np.arange(order + 1)
    gaps = []
    for s in range(raw["n_seeds"]):
        inputs = derive_rng(raw["master_seed"], s, 0).uniform(grid["lo"], grid["hi"],
                                                               raw["n_train"])
        cov = posterior_update(default_prior(p, nv), inputs, np.zeros(inputs.size)).cov
        b_phi = np.vander(inputs, p + 1, increasing=True) @ cov @ phi_p / nv
        c = phi_l - np.vander(inputs, order + 1, increasing=True).T @ b_phi
        spread = float(phi_p @ cov @ phi_p)
        mse = float(c @ c + nv * b_phi @ b_phi) + spread
        gaps.append(abs(mse - 2.0 * spread))
    want = float(np.mean(gaps))
    row = _read(out / "discrepancy.csv")[mi * grid["n"] + gi]
    got = float(row["mean_gap"])
    if row["model"] != f"bpr_deg{p}" or not _close(got, want):
        raise CheckError(f"discrepancy.csv: {row['model']} at x={x!r} gap {got!r}, "
                         f"direct derivation gives {want!r}")
    return f"mean gap of bpr_deg{p} at x={x:.4g} = {want:.6g} by direct derivation"

import ctypes
import importlib
import json
import multiprocessing
import os
import re
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ual_lab import expcli, linalg
from ual_lab.analysis import variance_proxy_gap
from ual_lab.bpr import default_prior
from ual_lab.errors import ConfigError, NumericalError
from ual_lab.expcli import (
    SUMMARY_HEADER,
    TRACES_HEADER,
    emit,
    main,
    parse_config,
    parse_config_dict,
    run_experiment,
    shipped_experiments,
)
from ual_lab.rng import derive_rng


def _small_config(**overrides):
    raw = {
        "experiment_id": "unit",
        "master_seed": 9,
        "n_seeds": 3,
        "budget": 5,
        "target": {"kind": "synthetic", "order": 3, "family": "pure-polynomial",
                   "noise_variance": 1.0},
        "pool": {"n": 20, "lo": -2.0, "hi": 2.0},
        "test": {"n": 40, "lo": -2.0, "hi": 2.0},
        "models": [{"kind": "bpr", "degree": 2}],
        "strategies": [{"kind": "variance"}, {"kind": "random"}],
    }
    raw.update(overrides)
    return raw


def _discrepancy_config(**overrides):
    raw = {
        "experiment_id": "disc",
        "kind": "discrepancy",
        "master_seed": 3,
        "n_seeds": 4,
        "n_train": 10,
        "target": {"kind": "synthetic", "order": 3,
                   "family": "pure-polynomial", "noise_variance": 1.0},
        "grid": {"n": 9, "lo": -2.0, "hi": 2.0, "layout": "grid"},
        "models": [{"kind": "bpr", "degree": 1}, {"kind": "bpr", "degree": 3}],
    }
    raw.update(overrides)
    return raw


_DATASET_TARGET = {"kind": "dataset", "schema": "concrete", "path": "x.csv",
                   "test_fraction": 0.25, "subsample": None, "model_noise_variance": 0.1}


class TestParseConfig:
    def test_shipped_configs_all_parse(self):
        shipped = shipped_experiments()
        assert set(shipped) == {
            "fig1_motivating", "fig2_matched", "fig3_fig4_bpr_degrees",
            "fig5_discrepancy", "fig6_early_stage", "fig7_gpr_kernels",
            "fig8_facebook", "fig9_concrete", "fig10_direct_mse",
            "fig11_upper_bound",
        }
        for path in shipped.values():
            parse_config(path)

    def test_bpr_degrees_config_matches_protocol(self):
        cfg = parse_config(shipped_experiments()["fig3_fig4_bpr_degrees"])
        assert cfg.n_seeds == 100
        assert cfg.budget == 199
        assert cfg.pool.n == 200
        assert [m.degree for m in cfg.models] == [1, 2, 3, 4, 5]

    def test_oversized_budget_names_field(self):
        with pytest.raises(ConfigError, match="budget"):
            parse_config_dict(_small_config(budget=500, pool={"n": 200, "lo": -2.0,
                                                              "hi": 2.0}))

    @pytest.mark.parametrize("overrides, key_path", [
        pytest.param({"foo": 1}, "config: unknown key 'foo'", id="unknown-top-key"),
        pytest.param({"target": {"kind": "synthetic", "order": 1, "bar": 2}},
                     "target: unknown key 'bar'", id="unknown-nested-key"),
        pytest.param({"experiment_id": "Bad Name!"}, "experiment_id:", id="id-pattern"),
        pytest.param({"experiment_id": 5}, "experiment_id:", id="id-not-string"),
        pytest.param({"description": ["x"]}, "description:", id="description-not-string"),
        pytest.param({"output_dir": 5}, "output_dir:", id="output-dir-not-string"),
        pytest.param({"target": dict(_DATASET_TARGET, schema=5)}, "target.schema:",
                     id="schema-not-string"),
        pytest.param({"target": dict(_DATASET_TARGET, path=5)}, "target.path:",
                     id="path-not-string"),
        pytest.param({"pool": None}, "config: missing required key 'pool'", id="pool-null"),
        pytest.param({"n_seeds": True}, "n_seeds:", id="bool-is-not-int"),
        pytest.param({"models": [5]}, "models[0]:", id="model-not-object"),
        pytest.param({"models": [{"degree": 2}]}, "models[0]: missing required key 'kind'",
                     id="model-without-kind"),
        pytest.param({"target": _DATASET_TARGET,
                      "models": [{"kind": "gpr", "kernel": {"kind": "rbf"}}]},
                     "pool/test: dataset targets derive these from the split",
                     id="dataset-target-with-pool-and-test"),
        pytest.param({"strategies": [{"kind": ["variance"]}]}, "strategies[0].kind:",
                     id="strategy-kind-unhashable"),
        pytest.param({"test": {"n": 4, "lo": 2.0, "hi": -2.0}}, "test:", id="empty-span"),
        pytest.param({"test": {"n": 4, "lo": -2.0, "hi": 2.0, "layout": "grid"}},
                     "test: unknown key 'layout'", id="test-layout-removed"),
        pytest.param({"models": [{"kind": "gpr", "kernel": {"kind": "rbf"},
                                  "lengthscale_grid": True}]},
                     "models[0]: unknown key 'lengthscale_grid'", id="lengthscale-grid-removed"),
        pytest.param({"target": {"kind": "synthetic", "order": 3, "family":
                                 "polynomial-plus-cosine", "cosine_amplitude": 5.0}},
                     "target: unknown key 'cosine_amplitude'", id="cosine-amplitude-removed"),
        pytest.param({"target": {"kind": "synthetic", "order": 3, "family":
                                 "polynomial-plus-cosine", "cosine_frequency": 2.0}},
                     "target: unknown key 'cosine_frequency'", id="cosine-frequency-removed"),
        pytest.param({"models": [{"kind": "gpr", "kernel": {"kind": "rbf", "lengthscale": 0.3}},
                                 {"kind": "gpr", "kernel": {"kind": "rbf", "lengthscale": 3.0}}]},
                     "models: duplicate id 'gpr_rbf'", id="duplicate-model-id"),
        pytest.param({"strategies": [{"kind": "direct_mse"}, {"kind": "random"},
                                     {"kind": "direct_mse"}]},
                     "strategies: duplicate id 'direct_mse'", id="duplicate-strategy-id"),
        pytest.param({"target": {"kind": "synthetic", "order": 3, "noise_variance": 0}},
                     "target.noise_variance:", id="bpr-noiseless-target"),
        pytest.param({"models": [{"kind": "gpr", "kernel": {"kind": "linear", "amplitude": 99,
                                                             "lengthscale": 0.01}}]},
                     "models[0].kernel: unknown key 'amplitude'", id="linear-kernel-amplitude"),
        pytest.param({"models": [{"kind": "gpr", "kernel": {"kind": "rbf", "bias": 2.0}}]},
                     "models[0].kernel: unknown key 'bias'", id="rbf-kernel-bias"),
        pytest.param({"strategies": [{"kind": "direct_mse",
                                      "surrogate_kernel": {"kind": "matern52", "weight": 3}}]},
                     "strategies[0].surrogate_kernel: unknown key 'weight'",
                     id="matern-surrogate-weight"),
        pytest.param({"models": [{"kind": "gpr", "kernel": {"kind": "poly"}}]},
                     "models[0].kernel.kind: unknown kind 'poly'", id="unknown-kernel-kind"),
        pytest.param({"models": [{"kind": "gpr", "kernel": {"kind": "rbf",
                                                             "lengthscale": float("nan")}}]},
                     "models[0].kernel.lengthscale: expected a finite number", id="nan-number"),
        pytest.param({"target": {"kind": "synthetic", "order": 3,
                                 "noise_variance": float("inf")}},
                     "target.noise_variance: expected a finite number", id="infinite-number"),
        pytest.param({"pool": {"n": 20, "lo": -2.0, "hi": float("inf")}},
                     "pool.hi: expected a finite number", id="infinite-span-end"),
        pytest.param({"pool": {"n": 20, "lo": -2.0, "hi": 10**400}},
                     "pool.hi: expected a finite number", id="integer-beyond-float-range"),
        # file text, for what overrides of _small_config cannot hold: a repeated key
        # (the message names the file), a value that is not an object, another kind
        pytest.param(json.dumps(_small_config())[:-1] + ', "budget": 199}',
                     "{file}: duplicate key 'budget'", id="repeated-top-key"),
        pytest.param(json.dumps(_small_config()).replace('"order": 3', '"order": 3, "order": 1'),
                     "{file}: duplicate key 'order'", id="repeated-nested-key"),
        pytest.param(json.dumps([_small_config()]), "config: expected an object",
                     id="array-not-object"),
        pytest.param(json.dumps(_discrepancy_config(
                         models=[{"kind": "gpr", "kernel": {"kind": "rbf"}}])),
                     "models: discrepancy experiments use bpr models only",
                     id="discrepancy-gpr-model"),
    ])
    def test_malformed_config_names_key(self, overrides, key_path, tmp_path):
        path = tmp_path / "config.json"
        with pytest.raises(ConfigError) as info:
            if isinstance(overrides, str):
                path.write_text(overrides)
                parse_config(path)
            else:
                parse_config_dict(_small_config(**overrides))
        assert str(info.value).startswith(key_path.format(file=path))

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("\ufeff" + json.dumps(_small_config()), encoding="utf-8")
        assert parse_config(path) == parse_config_dict(_small_config())

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment_id": "x",\n  "n_seeds": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_dataset_target_rejects_bpr_models(self):
        raw = _small_config(target=_DATASET_TARGET)
        del raw["pool"], raw["test"]
        with pytest.raises(ConfigError, match="univariate"):
            parse_config_dict(raw)

    def test_dataset_auto_bound_rejected(self):
        raw = _small_config(
            target=_DATASET_TARGET,
            models=[{"kind": "gpr", "kernel": {"kind": "rbf"}}],
            strategies=[{"kind": "upper_bound", "gradient_bound": "auto"}],
        )
        del raw["pool"], raw["test"]
        with pytest.raises(ConfigError, match="auto"):
            parse_config_dict(raw)


class TestRunExperiment:
    def test_degenerate_single_seed_zero_budget(self):
        cfg = parse_config_dict(_small_config(n_seeds=1, budget=0))
        res = run_experiment(cfg)
        assert res.test_mse.shape == (1, 1, 2, 1)
        for si, strategy in enumerate(("variance", "random")):
            trace = res.runs[0]["bpr_deg2"][strategy]
            assert trace.chosen_x.shape == (0, 1)
            assert res.test_mse[0, 0, si, 0] == trace.test_mse[0]

    def test_constant_target_runs_upper_bound_with_auto_gradient_bound(self):
        # an order-0 target is constant: its exact gradient bound is 0, which
        # leaves the credible width plus the discrepancy as the score
        raw = _small_config(
            target={"kind": "synthetic", "order": 0, "family": "pure-polynomial",
                    "noise_variance": 1.0},
            strategies=[{"kind": "upper_bound", "gradient_bound": "auto"}])
        res = run_experiment(parse_config_dict(raw))
        assert res.test_mse.shape == (3, 1, 1, 6)
        assert np.all(np.isfinite(res.test_mse))

    def test_paired_step_zero_identical(self):
        cfg = parse_config_dict(_small_config())
        res = run_experiment(cfg)
        assert res.test_mse.shape == (cfg.n_seeds, 1, 2, cfg.budget + 1)
        np.testing.assert_array_equal(res.test_mse[:, 0, 0, 0], res.test_mse[:, 0, 1, 0])

    def test_parallelism_changes_nothing(self, tmp_path):
        raw = _small_config()
        res1 = run_experiment(parse_config_dict(dict(raw, parallelism=1)))
        res4 = run_experiment(parse_config_dict(dict(raw, parallelism=4)))
        cfg = parse_config_dict(dict(raw, parallelism=1))
        out1 = emit(res1, tmp_path / "p1", cfg)
        out4 = emit(res4, tmp_path / "p4", cfg)
        assert (tmp_path / "p1" / "traces.csv").read_bytes() == \
               (tmp_path / "p4" / "traces.csv").read_bytes()

    def test_dataset_experiment_end_to_end(self, tmp_path):
        from conftest import write_concrete_csv as _write_concrete
        data_path = tmp_path / "c.csv"
        _write_concrete(data_path, n_rows=40, seed=1)
        raw = _small_config(
            n_seeds=2, budget=6,
            target={"kind": "dataset", "schema": "concrete", "path": str(data_path),
                    "test_fraction": 0.25, "subsample": 24,
                    "model_noise_variance": 0.1},
            models=[{"kind": "gpr", "kernel": {"kind": "rbf", "lengthscale": 1.0}}],
        )
        del raw["pool"], raw["test"]
        cfg = parse_config_dict(raw)
        res = run_experiment(cfg)
        trace = res.runs[0]["gpr_rbf"]["variance"]
        assert trace.test_mse.shape == (7,)
        assert trace.chosen_x.shape == (6, 8)
        assert trace.bias is None and trace.variance is None
        assert np.all(np.isfinite(trace.test_mse))
        paths = emit(res, tmp_path / "ds", cfg)
        lines = (tmp_path / "ds" / "traces.csv").read_text().splitlines()
        # multivariate chosen_x is semicolon-joined inside the comma CSV
        assert lines[2].count(",") == lines[0].count(",")
        assert ";" in lines[2].split(",")[6]


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emit")
    cfg = parse_config_dict(_small_config())
    res = run_experiment(cfg)
    emit(res, out, cfg, wall_time_s=1.25)
    return out


class TestEmit:
    def test_traces_header_exact(self, emitted):
        first = (emitted / "traces.csv").read_text().splitlines()[0]
        assert first == TRACES_HEADER == (
            "experiment_id,seed,model,strategy,step,n_labeled,chosen_x,"
            "test_mse,mc_bias,mc_variance"
        )

    def test_summary_header_exact(self, emitted):
        first = (emitted / "summary.csv").read_text().splitlines()[0]
        assert first == SUMMARY_HEADER == (
            "experiment_id,model,strategy,step,mean_mse,std_mse,n_seeds"
        )

    def test_row_counts(self, emitted):
        traces = (emitted / "traces.csv").read_text().splitlines()
        assert len(traces) == 1 + 3 * 1 * 2 * 6  # seeds * models * strategies * steps
        summary = (emitted / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 1 * 2 * 6

    def test_meta_round_trips_config(self, emitted):
        meta = json.loads((emitted / "meta.json").read_text())
        assert meta["config"]["experiment_id"] == "unit"
        assert meta["config"]["budget"] == 5
        assert meta["wall_time_s"] == 1.25
        assert "artifact_version" in meta

    def test_svg_well_formed_and_self_contained(self, emitted):
        path = emitted / "curves_bpr_deg2.svg"
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        text = path.read_text()
        assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "href" not in text

    def test_floats_are_17_digit_round_trippable(self, emitted):
        line = (emitted / "traces.csv").read_text().splitlines()[1]
        mse = line.split(",")[7]
        assert float(mse) == float(f"{float(mse):.17g}")


def _per_seed_gaps(cfg):
    """The mean gap by the per-seed loop: one gap call per (seed, model)."""
    t = cfg.target
    family = default_prior(t.order, t.noise_variance)
    xs = np.linspace(cfg.grid.lo, cfg.grid.hi, cfg.grid.n)
    per_seed = []
    for seed in range(cfg.n_seeds):
        inputs = derive_rng(cfg.master_seed, seed, 0).uniform(cfg.grid.lo, cfg.grid.hi,
                                                               cfg.n_train)
        per_seed.append([variance_proxy_gap(xs, family, default_prior(m.degree, t.noise_variance),
                                            inputs) for m in cfg.models])
    return np.stack(per_seed).mean(axis=0)


class TestDiscrepancyKind:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_stacked_pass_equals_per_seed_loop(self, parallelism):
        models = [{"kind": "bpr", "degree": d} for d in (1, 2, 3, 4, 5)]
        cfg = parse_config_dict(_discrepancy_config(models=models, parallelism=parallelism))
        res = run_experiment(cfg)
        np.testing.assert_array_equal(res.gaps, _per_seed_gaps(cfg))
        # the stacked pass runs in this process, whatever the config asks for
        assert res.runtime["workers"] == 1

    def test_runs_and_emits(self, tmp_path):
        cfg = parse_config_dict(_discrepancy_config())
        res = run_experiment(cfg)
        low_gap, matched_gap = res.gaps
        assert np.max(matched_gap) < 1e-8
        assert np.mean(low_gap) > 1e-3
        emit(res, tmp_path, cfg)
        lines = (tmp_path / "discrepancy.csv").read_text().splitlines()
        assert lines[0] == "experiment_id,model,x,mean_gap"
        assert len(lines) == 1 + 2 * 9
        ET.parse(tmp_path / "discrepancy.svg")

    def test_grid_layout_is_always_grid(self):
        # the gap is evaluated on an even grid, so another layout is refused
        with pytest.raises(ConfigError, match="grid.layout"):
            parse_config_dict(_discrepancy_config(
                grid={"n": 9, "lo": -2.0, "hi": 2.0, "layout": "random"}))
        cfg = parse_config_dict(_discrepancy_config(grid={"n": 9, "lo": -2.0, "hi": 2.0}))
        assert cfg.grid.layout == "grid"

    def test_cosine_family_rejected(self, tmp_path, capsys):
        # the closed forms cover the pure polynomial family only; a cosine
        # target would be evaluated as if its cosine term were absent
        target = {"kind": "synthetic", "order": 3, "family": "polynomial-plus-cosine",
                  "noise_variance": 1.0}
        with pytest.raises(ConfigError, match="target.family"):
            parse_config_dict(_discrepancy_config(target=target))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_discrepancy_config(target=target)))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "target.family" in capsys.readouterr().err


class TestCli:
    def test_validate_shipped(self, capsys):
        assert main(["validate", "--config", "fig3_fig4_bpr_degrees"]) == 0
        assert "fig3_fig4_bpr_degrees" in capsys.readouterr().out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig5_discrepancy" in out

    def test_missing_config_fails(self, capsys):
        assert main(["validate", "--config", "no_such_thing"]) == 2
        assert "error" in capsys.readouterr().err

    def test_directory_does_not_shadow_a_shipped_id(self, tmp_path, capsys, monkeypatch):
        # `run --config fig5_discrepancy --out fig5_discrepancy` makes this directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig5_discrepancy").mkdir()
        assert main(["validate", "--config", "fig5_discrepancy"]) == 0
        assert capsys.readouterr().out.startswith("OK: fig5_discrepancy")

    def test_non_string_output_dir_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config(output_dir=5)))
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg_path)]) == 2
            assert capsys.readouterr().err.startswith("error: output_dir")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"experiment_id": "unit", "description": "caf\xe9"}')  # Latin-1
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg_path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not UTF-8 text")

    def test_run_writes_outputs(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config(n_seeds=2, budget=3)))
        monkeypatch.setenv("UAL_LAB_OUT", str(tmp_path / "envroot"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        out_dir = tmp_path / "envroot" / "unit"
        assert (out_dir / "traces.csv").exists()
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "meta.json").exists()

    def test_run_out_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config(n_seeds=1, budget=2)))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--seed", "123"]) == 0
        meta = json.loads((tmp_path / "o" / "meta.json").read_text())
        assert meta["config"]["master_seed"] == 123

    @pytest.mark.parametrize("flag, key", [("--parallel", "parallelism"),
                                           ("--seed", "master_seed")])
    def test_bad_override_exits_2(self, tmp_path, capsys, flag, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config()))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     flag, "-1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: must be >=")
        assert not (tmp_path / "o").exists()

    def test_numerical_error_in_a_run_exits_2(self, tmp_path, capsys):
        # a noiseless target gives the GP surrogate (rbf, lengthscale 0.5) a zero
        # pivot within 30 labels; the short-lengthscale model's own Gram stays PD
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config(
            n_seeds=1, budget=30, pool={"n": 200, "lo": -2.0, "hi": 2.0},
            target={"kind": "synthetic", "order": 3, "noise_variance": 0},
            models=[{"kind": "gpr", "kernel": {"kind": "rbf", "lengthscale": 0.05}}],
            strategies=[{"kind": "direct_mse"}])))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run failed at seed 0, model gpr_rbf, "
                              "strategy direct_mse: ")
        assert "GP append" in err

    def test_noiseless_linear_gp_exits_2_naming_the_run(self, tmp_path, capsys):
        # a linear kernel in one dimension has rank 2, so without noise the Gram
        # matrix of three or more points is singular; nothing adds jitter
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config(
            n_seeds=2, budget=60, pool={"n": 200, "lo": -2.0, "hi": 2.0},
            target={"kind": "synthetic", "order": 3, "noise_variance": 0},
            models=[{"kind": "gpr", "kernel": {"kind": "linear"}}])))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert re.match(r"error: run failed at seed 0, model gpr_linear, strategy variance: "
                        r"Cholesky failed for (\d+)x\1 matrix", capsys.readouterr().err)

    def test_noiseless_linear_gp_random_run_exits_2_naming_the_run(self, tmp_path, capsys):
        # a random run fits only its initial point; the curve's one factorization
        # of the whole labeled order's Gram matrix fails as loudly as a refit would
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config(
            n_seeds=1, budget=60, pool={"n": 200, "lo": -2.0, "hi": 2.0},
            target={"kind": "synthetic", "order": 3, "noise_variance": 0},
            models=[{"kind": "gpr", "kernel": {"kind": "linear"}}],
            strategies=[{"kind": "random"}])))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert re.match(r"error: run failed at seed 0, model gpr_linear, strategy random: "
                        r"Cholesky failed for 61x61 matrix", capsys.readouterr().err)

    @pytest.mark.parametrize("split_keys, message", [
        pytest.param({"subsample": 600}, "subsample 600 exceeds the dataset's 40 rows",
                     id="subsample-over-rows"),
        pytest.param({"test_fraction": 0.01}, "empty test partition (0 test, 40 train)",
                     id="empty-test"),
        pytest.param({"test_fraction": 0.99}, "empty train partition (40 test, 0 train)",
                     id="empty-train"),
        pytest.param({"test_fraction": 0.95}, "budget: 2 exceeds train split capacity 2 - 1",
                     id="budget-over-train-split"),
    ])
    def test_bad_dataset_split_exits_2(self, tmp_path, capsys, split_keys, message):
        from conftest import write_concrete_csv
        data_path = tmp_path / "c.csv"
        write_concrete_csv(data_path, n_rows=40)
        raw = _small_config(n_seeds=1, budget=2,
                            target={**_DATASET_TARGET, "path": str(data_path), **split_keys},
                            models=[{"kind": "gpr", "kernel": {"kind": "rbf"}}])
        del raw["pool"], raw["test"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("schema_text, csv_bytes, message", [
        pytest.param("{not json", None, "schema.json: invalid JSON at line 1, column 2",
                     id="schema-not-json"),
        pytest.param("[1, 2]", None, "schema.json: schema: expected an object",
                     id="schema-not-object"),
        pytest.param('{"delimiter": ",", "target": "csMPa", "features": "cement"}', None,
                     "schema.json: schema.features: expected a list, got 'cement'",
                     id="features-not-list"),
        pytest.param('{"delimiter": ",", "target": 5, "features": ["x"]}', None,
                     "schema.json: schema.target: expected a string, got 5",
                     id="target-not-string"),
        pytest.param('{"delimiter": ",", "target": "csMPa", "features": ["cement"],'
                     ' "categoricals": ["cement"]}', None,
                     "schema.json: schema: unknown key 'categoricals'", id="unknown-key"),
        pytest.param(None, b"cement,csMPa\n1.0,\xff\n", "c.csv: not UTF-8 text",
                     id="csv-not-utf8"),
    ])
    def test_bad_dataset_input_exits_2(self, tmp_path, capsys, schema_text, csv_bytes,
                                       message):
        from conftest import write_concrete_csv
        data_path = tmp_path / "c.csv"
        write_concrete_csv(data_path, n_rows=40)
        if csv_bytes is not None:
            data_path.write_bytes(csv_bytes)
        schema = "concrete"
        if schema_text is not None:
            schema = str(tmp_path / "schema.json")
            (tmp_path / "schema.json").write_text(schema_text)
        raw = _small_config(n_seeds=1, budget=2,
                            target={**_DATASET_TARGET, "path": str(data_path),
                                    "schema": schema},
                            models=[{"kind": "gpr", "kernel": {"kind": "rbf"}}])
        del raw["pool"], raw["test"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_missing_dataset_file_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the shipped relative data path does not exist here
        assert main(["run", "--config", "fig9_concrete", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: dataset file not found")


_GET_THREADS = (("numpy._core._multiarray_umath", "scipy_openblas_get_num_threads64_"),
                ("scipy.linalg._flapack", "scipy_openblas_get_num_threads"))


def _blas_threads() -> list:
    """The thread counts of numpy's and scipy's OpenBLAS, read by their own symbols."""
    counts = []
    for module, symbol in _GET_THREADS:
        get = getattr(ctypes.CDLL(importlib.import_module(module).__file__), symbol)
        get.argtypes, get.restype = [], ctypes.c_int
        counts.append(get())
    return counts


def _set_blas_threads(counts: list) -> None:
    for (module, symbol), n in zip(_GET_THREADS, counts):
        put = getattr(ctypes.CDLL(importlib.import_module(module).__file__),
                      symbol.replace("_get_", "_set_"))
        put.argtypes, put.restype = [ctypes.c_int], None
        put(n)


def _counts_in_a_seed_task(cfg) -> list:
    """The BLAS thread counts each ``run_al`` call of seed 0's task sees, in
    this process, which starts the task on 3 threads."""
    _set_blas_threads([3, 3])
    seen, run_al = [], expcli.run_al

    def logged_run_al(*args):
        seen.append(_blas_threads())
        return run_al(*args)

    expcli.run_al = logged_run_al
    try:
        expcli._seed_worker((cfg, 0, None))
    finally:
        expcli.run_al = run_al
    return seen


class _SerialPool:
    """Stands in for the process pool: records its size, maps in this process."""

    sizes: list = []  # each test patches in its own list
    initializers: list = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)
        self.initializers.append(initializer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestBlasThreads:
    @pytest.fixture
    def caller_threads(self):
        """The caller runs on 3 BLAS threads, so a restored count is not a default."""
        prior = _blas_threads()
        _set_blas_threads([3, 3])
        yield [3, 3]
        _set_blas_threads(prior)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_one_thread_in_every_process_of_a_run(self, parallelism, tmp_path, monkeypatch,
                                                  caller_threads):
        # each run_al call, in this process or a forked worker, logs its pid and counts
        run_al = expcli.run_al

        def logged_run_al(*args):
            with open(tmp_path / f"{os.getpid()}.log", "a") as log:
                log.write(json.dumps(_blas_threads()) + "\n")
            return run_al(*args)

        monkeypatch.setattr(expcli, "run_al", logged_run_al)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_experiment(parse_config_dict(_small_config(n_seeds=2, parallelism=parallelism)))
        logs = {int(p.stem): p.read_text().splitlines() for p in tmp_path.glob("*.log")}
        if parallelism == 1:
            assert set(logs) == {os.getpid()}
        else:
            assert logs and os.getpid() not in logs
        assert {line for lines in logs.values() for line in lines} == {"[1, 1]"}
        assert _blas_threads() == caller_threads

    def test_caller_counts_restored_after_a_failed_run(self, caller_threads):
        cfg = parse_config_dict(_small_config(
            n_seeds=1, budget=10, target={"kind": "synthetic", "order": 3, "noise_variance": 0},
            models=[{"kind": "gpr", "kernel": {"kind": "linear"}}]))
        with pytest.raises(NumericalError, match="Cholesky failed for"):
            run_experiment(cfg)
        assert _blas_threads() == caller_threads

    @pytest.mark.parametrize("parallelism, cores, n_seeds, pool_size", [
        (8, 2, 5, 2), (8, 16, 3, 3), (3, 16, 5, 3), (8, 1, 5, None), (8, 4, 1, None)])
    def test_pool_size_is_clamped_to_cores_and_seeds(self, parallelism, cores, n_seeds,
                                                     pool_size, monkeypatch, tmp_path):
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(expcli, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        cfg = parse_config_dict(_small_config(n_seeds=n_seeds, budget=2,
                                              parallelism=parallelism))
        emit(run_experiment(cfg), tmp_path, cfg)
        assert _SerialPool.sizes == ([] if pool_size is None else [pool_size])
        runtime = json.loads((tmp_path / "meta.json").read_text())["runtime"]
        assert (runtime["cores"], runtime["workers"]) == (cores, pool_size or 1)

    def test_workers_set_one_thread_whatever_the_start_method(self, monkeypatch):
        # a spawned worker inherits no thread count from its parent
        cfg = parse_config_dict(_small_config(n_seeds=2, budget=2, parallelism=2))
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            seen = pool.submit(_counts_in_a_seed_task, cfg).result(timeout=120)
        assert seen == [[1, 1]] * len(cfg.strategy_ids)
        monkeypatch.setattr(_SerialPool, "initializers", [])
        monkeypatch.setattr(expcli, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_experiment(cfg)
        assert _SerialPool.initializers == [None]

    def test_meta_records_the_blas_setup(self, tmp_path, caller_threads):
        cfg = parse_config_dict(_small_config(n_seeds=1, budget=2))
        emit(run_experiment(cfg), tmp_path, cfg)
        runtime = json.loads((tmp_path / "meta.json").read_text())["runtime"]
        assert runtime["numpy"] == np.__version__
        assert runtime["scipy"] == importlib.import_module("scipy").__version__
        assert [c["module"] for c in runtime["openblas"]] == [m for m, _ in _GET_THREADS]
        for copy in runtime["openblas"]:
            assert "openblas" in os.path.basename(copy["library"])
            assert (copy["threads_before"], copy["threads_set"]) == (3, 1)

    def test_a_missing_copy_is_recorded_not_skipped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(linalg, "_OPENBLAS", (
            ("numpy._core._multiarray_umath", "_no_such_suffix"),
            ("no_such_module", ""), *linalg._OPENBLAS[1:]))
        with linalg.one_blas_thread() as records:
            assert _blas_threads()[1] == 1
        assert [sorted(r) for r in records] == [
            ["missing", "module"], ["missing", "module"],
            ["library", "module", "threads_before", "threads_set"]]
        assert "_no_such_suffix" in records[0]["missing"]
        assert "no_such_module" in records[1]["missing"]

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ual_lab.errors import ConfigError
from ual_lab.expcli import (
    RunKey,
    SUMMARY_HEADER,
    TRACES_HEADER,
    emit,
    main,
    parse_config,
    parse_config_dict,
    run_experiment,
    shipped_experiments,
)


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

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="foo"):
            parse_config_dict(_small_config(foo=1))
        with pytest.raises(ConfigError, match="bar"):
            parse_config_dict(_small_config(
                target={"kind": "synthetic", "order": 1, "bar": 2}))

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment_id": "x",\n  "n_seeds": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_experiment_id_pattern(self):
        with pytest.raises(ConfigError, match="experiment_id"):
            parse_config_dict(_small_config(experiment_id="Bad Name!"))

    def test_dataset_target_rejects_bpr_models(self):
        raw = _small_config(
            target={"kind": "dataset", "schema": "concrete", "path": "x.csv",
                    "test_fraction": 0.25, "subsample": None,
                    "model_noise_variance": 0.1})
        del raw["pool"], raw["test"]
        with pytest.raises(ConfigError, match="univariate"):
            parse_config_dict(raw)

    def test_dataset_auto_bound_rejected(self):
        raw = _small_config(
            target={"kind": "dataset", "schema": "concrete", "path": "x.csv",
                    "test_fraction": 0.25, "subsample": None,
                    "model_noise_variance": 0.1},
            models=[{"kind": "gpr", "kernel": {"kind": "rbf"}}],
            strategies=[{"kind": "upper_bound", "gradient_bound": "auto"}],
        )
        del raw["pool"], raw["test"]
        with pytest.raises(ConfigError, match="auto"):
            parse_config_dict(raw)


    def test_output_dir_must_be_a_string(self):
        with pytest.raises(ConfigError, match="output_dir"):
            parse_config_dict(_small_config(output_dir=5))


class TestRunExperiment:
    def test_degenerate_single_seed_zero_budget(self):
        cfg = parse_config_dict(_small_config(n_seeds=1, budget=0))
        res = run_experiment(cfg)
        for strategy in ("variance", "random"):
            means, stds = res.summary[("bpr_deg2", strategy)]
            assert means.shape == (1,)
            assert stds[0] == 0.0
            trace = res.traces[RunKey(0, "bpr_deg2", strategy)]
            assert means[0] == trace.records[0].test_mse

    def test_paired_step_zero_identical(self):
        cfg = parse_config_dict(_small_config())
        res = run_experiment(cfg)
        for seed in range(cfg.n_seeds):
            a = res.traces[RunKey(seed, "bpr_deg2", "variance")].records[0]
            b = res.traces[RunKey(seed, "bpr_deg2", "random")].records[0]
            assert a.test_mse == b.test_mse

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
        trace = res.traces[RunKey(0, "gpr_rbf", "variance")]
        assert len(trace.records) == 7
        assert trace.records[1].chosen_x.shape == (8,)
        assert all(np.isfinite(r.test_mse) for r in trace.records)
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


class TestDiscrepancyKind:
    def test_runs_and_emits(self, tmp_path):
        cfg = parse_config_dict(_discrepancy_config())
        res = run_experiment(cfg)
        xs, matched_gap = res.discrepancy["bpr_deg3"]
        _, low_gap = res.discrepancy["bpr_deg1"]
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


def test_every_shipped_config_runs_scaled_down(tmp_path):
    # end-to-end viability of each shipped experiment at toy scale
    from dataclasses import replace

    from conftest import write_concrete_csv, write_facebook_csv
    from ual_lab.expcli import DatasetTargetSpec, parse_config

    write_concrete_csv(tmp_path / "concrete.csv", n_rows=40)
    write_facebook_csv(tmp_path / "facebook.csv", n_rows=40)
    for exp_id, path in shipped_experiments().items():
        cfg = parse_config(path)
        cfg = replace(cfg, n_seeds=1, parallelism=1)
        if cfg.kind == "al_curves":
            cfg = replace(cfg, budget=2)
        if isinstance(cfg.target, DatasetTargetSpec):
            source = "concrete.csv" if cfg.target.schema == "concrete" else "facebook.csv"
            cfg = replace(cfg, target=replace(cfg.target, path=str(tmp_path / source),
                                              subsample=20))
        res = run_experiment(cfg)
        out = tmp_path / exp_id
        paths = emit(res, out, cfg)
        assert (out / "meta.json").exists()
        if cfg.kind == "al_curves":
            assert (out / "traces.csv").exists()
        else:
            assert (out / "discrepancy.csv").exists()


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

    def test_non_string_output_dir_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config(output_dir=5)))
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg_path)]) == 2
            assert capsys.readouterr().err.startswith("error: output_dir")

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

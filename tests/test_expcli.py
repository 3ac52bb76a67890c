import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ual_lab.errors import ConfigError
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
        pytest.param({"strategies": [{"kind": ["variance"]}]}, "strategies[0].kind:",
                     id="strategy-kind-unhashable"),
        pytest.param({"test": {"n": 4, "lo": 2.0, "hi": -2.0}}, "test:", id="empty-span"),
        pytest.param({"test": {"n": 4, "lo": -2.0, "hi": 2.0, "layout": "grid"}},
                     "test: unknown key 'layout'", id="test-layout-removed"),
        pytest.param({"target": {"kind": "synthetic", "order": 3, "noise_variance": 0}},
                     "target.noise_variance:", id="bpr-noiseless-target"),
    ])
    def test_malformed_config_names_key(self, overrides, key_path):
        with pytest.raises(ConfigError) as info:
            parse_config_dict(_small_config(**overrides))
        assert str(info.value).startswith(key_path)

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
        # a noiseless target gives the GP surrogate a zero pivot within 30 labels
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_config(
            n_seeds=1, budget=30, pool={"n": 200, "lo": -2.0, "hi": 2.0},
            target={"kind": "synthetic", "order": 3, "noise_variance": 0},
            models=[{"kind": "gpr", "kernel": {"kind": "rbf"}}],
            strategies=[{"kind": "direct_mse"}])))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run failed at seed 0, model gpr_rbf, "
                              "strategy direct_mse: ")
        assert "GP append" in err

    @pytest.mark.parametrize("split_keys, message", [
        pytest.param({"subsample": 600}, "subsample 600 exceeds the dataset's 40 rows",
                     id="subsample-over-rows"),
        pytest.param({"test_fraction": 0.01}, "empty test partition (0 test, 40 train)",
                     id="empty-test"),
        pytest.param({"test_fraction": 0.99}, "empty train partition (40 test, 0 train)",
                     id="empty-train"),
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
        pytest.param("{not json", None, "schema.json: not valid JSON", id="schema-not-json"),
        pytest.param("[1, 2]", None, "schema.json: must be a JSON object, not list",
                     id="schema-not-object"),
        pytest.param('{"delimiter": ",", "target": "csMPa", "features": "cement"}', None,
                     "schema.json: features must be a list of strings, not 'cement'",
                     id="features-not-list"),
        pytest.param('{"delimiter": ",", "target": 5, "features": ["x"]}', None,
                     "schema.json: target must be a string, not 5", id="target-not-string"),
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

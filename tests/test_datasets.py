import json

import numpy as np
import pytest
from conftest import CONCRETE_HEADER, write_concrete_csv as _write_concrete

from ual_lab.datasets import load_csv, load_schema, split, standardized
from ual_lab.errors import DataError
from ual_lab.expcli import main
from ual_lab.rng import derive_rng


class TestLoadCsv:
    def test_concrete_schema_shape(self, tmp_path):
        path = tmp_path / "concrete.csv"
        _write_concrete(path)
        ds = load_csv(path, "concrete")
        assert ds.features.shape == (30, 8)
        assert ds.dropped_rows == 0

    def test_malformed_row_dropped(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(
            CONCRETE_HEADER + "\n"
            + ",".join(["1"] * 9) + "\n"
            + ",".join(["2"] * 8) + ",oops\n"
            + ",".join(["3"] * 9) + "\n"
        )
        ds = load_csv(path, "concrete")
        assert len(ds) == 2
        assert ds.dropped_rows == 1

    def test_facebook_schema_one_hot(self, tmp_path):
        path = tmp_path / "fb.csv"
        header = ("Page total likes;Type;Category;Post Month;Post Weekday;Post Hour;"
                  "Paid;Total Interactions")
        rows = [
            "1000;Photo;2;12;3;10;0;150",
            "1200;Status;1;11;2;9;1;90",
            "1100;Photo;3;10;5;3;0;60",
            "900;Video;2;9;1;8;;44",  # missing Paid -> dropped
        ]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        ds = load_csv(path, "facebook")
        assert len(ds) == 3
        assert ds.dropped_rows == 1
        # numeric columns in schema order, then per categorical column (schema
        # order) one column per level seen, sorted
        assert ds.feature_names == ("Page total likes", "Post Month", "Post Weekday",
                                    "Post Hour", "Paid", "Type=Photo", "Type=Status",
                                    "Category=1", "Category=2", "Category=3")
        np.testing.assert_array_equal(ds.features[:, 5:7], [[1, 0], [0, 1], [1, 0]])
        np.testing.assert_array_equal(ds.features[:, 7:], [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv("/nonexistent/file.csv", "concrete")

    def test_directory_is_not_a_dataset_file(self, tmp_path):
        with pytest.raises(DataError, match="dataset file not found"):
            load_csv(tmp_path, "concrete")

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="missing schema columns"):
            load_csv(path, "concrete")

    def test_all_rows_dropped(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CONCRETE_HEADER + "\n" + ",".join(["x"] * 9) + "\n")
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(path, "concrete")

    def test_custom_schema_file(self, tmp_path):
        schema_path = tmp_path / "tiny.json"
        schema_path.write_text(
            '{"delimiter": ",", "target": "y", "features": ["x1", "x2"]}'
        )
        data_path = tmp_path / "tiny.csv"
        data_path.write_text("x1,x2,y\n1,2,3\n4,5,6\n")
        ds = load_csv(data_path, schema_path)
        assert ds.features.shape == (2, 2)
        np.testing.assert_array_equal(ds.targets, [3.0, 6.0])

    def test_builtin_schemas_resolve(self):
        assert load_schema("concrete").delimiter == ","
        assert load_schema("facebook").delimiter == ";"


class TestSplit:
    def test_subsample_then_quarter_split(self, tmp_path):
        path = tmp_path / "c.csv"
        _write_concrete(path, n_rows=40)
        ds = load_csv(path, "concrete")
        # 600-style protocol scaled down: subsample then split
        train, test = split(ds, 0.25, derive_rng(81, 0), subsample=20)
        assert len(test) == 5 and len(train) == 15

    def test_disjoint_cover(self, tmp_path):
        path = tmp_path / "c.csv"
        _write_concrete(path, n_rows=4)
        ds = load_csv(path, "concrete")
        train, test = split(ds, 0.25, derive_rng(81, 1))
        assert len(train) == 3 and len(test) == 1
        np.testing.assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(4))
        assert np.all(np.diff(train) > 0)

    def test_determinism(self, tmp_path):
        path = tmp_path / "c.csv"
        _write_concrete(path, n_rows=25)
        ds = load_csv(path, "concrete")
        a_train, a_test = split(ds, 0.4, derive_rng(81, 2))
        b_train, b_test = split(ds, 0.4, derive_rng(81, 2))
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_test, b_test)

    def test_oversized_subsample_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        _write_concrete(path, n_rows=10)
        ds = load_csv(path, "concrete")
        with pytest.raises(DataError):
            split(ds, 0.25, derive_rng(81, 3), subsample=11)


class TestStandardizer:
    def _dataset(self, tmp_path, n=50):
        path = tmp_path / "c.csv"
        _write_concrete(path, n_rows=n)
        return load_csv(path, "concrete")

    def test_train_columns_centered_and_scaled(self, tmp_path):
        ds = self._dataset(tmp_path)
        train_x, train_y, _, _ = standardized(ds, *split(ds, 0.2, derive_rng(82, 0)))
        assert np.abs(train_x.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(train_x.std(axis=0), 1.0, atol=1e-10)
        assert abs(train_y.mean()) < 1e-10
        assert train_y.std() == pytest.approx(1.0, abs=1e-10)

    def test_test_partition_not_centered(self, tmp_path):
        ds = self._dataset(tmp_path)
        _, _, test_x, test_y = standardized(ds, *split(ds, 0.3, derive_rng(82, 1)))
        assert np.abs(test_x.mean(axis=0)).max() > 1e-6
        assert abs(test_y.mean()) > 1e-6

    def test_no_leakage_from_test_rows(self, tmp_path):
        ds = self._dataset(tmp_path)
        train, test = split(ds, 0.3, derive_rng(82, 2))
        features, targets = ds.features.copy(), ds.targets.copy()
        features[test] += 100.0
        targets[test] *= 5.0
        perturbed = type(ds)(features, targets, ds.feature_names)
        clean = standardized(ds, train, test)
        dirty = standardized(perturbed, train, test)
        np.testing.assert_array_equal(dirty[0], clean[0])
        np.testing.assert_array_equal(dirty[1], clean[1])
        # the test rows move by their own change only, scaled by the train stds
        shift = 100.0 / ds.features[train].std(axis=0)
        np.testing.assert_allclose(dirty[2] - clean[2], np.tile(shift, (len(test), 1)),
                                   rtol=1e-10)

    def test_constant_column_dropped(self, tmp_path):
        path = tmp_path / "const.csv"
        rows = [CONCRETE_HEADER]
        rng = derive_rng(82, 3)
        for _ in range(10):
            vals = rng.uniform(1, 9, 8)
            vals[2] = 7.0  # constant flyash column
            rows.append(",".join(f"{v:.3f}" for v in vals) + f",{rng.uniform(1, 9):.3f}")
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv(path, "concrete")
        train, test = split(ds, 0.3, derive_rng(82, 4))
        train_x, _, test_x, _ = standardized(ds, train, test)
        assert train_x.shape == (7, 7) and test_x.shape == (3, 7)
        kept = ds.features[train][:, [0, 1, 3, 4, 5, 6, 7]]  # every column but flyash
        np.testing.assert_allclose(train_x, (kept - kept.mean(axis=0)) / kept.std(axis=0),
                                   rtol=1e-12)


class TestRejected:
    """The branches that turn unusable input into a DataError or a dropped row."""

    def _schema(self, tmp_path, text):
        path = tmp_path / "schema.json"
        path.write_text(text)
        return path

    def test_unsupported_delimiter(self, tmp_path):
        schema = self._schema(tmp_path, '{"delimiter": "|", "target": "y", "features": ["x"]}')
        (tmp_path / "d.csv").write_text("x|y\n1|2\n")
        with pytest.raises(DataError, match=r"schema.json: schema.delimiter: must be ',' or ';'"):
            load_csv(tmp_path / "d.csv", schema)

    def test_categorical_column_not_a_feature(self, tmp_path):
        schema = self._schema(tmp_path, '{"delimiter": ",", "target": "y", "features": ["x"],'
                                        ' "categorical": ["kind"]}')
        (tmp_path / "d.csv").write_text("x,kind,y\n1,a,2\n")
        with pytest.raises(DataError, match=r"categorical columns not in features: \['kind'\]"):
            load_csv(tmp_path / "d.csv", schema)

    def test_empty_csv(self, tmp_path):
        (tmp_path / "d.csv").write_text("")
        with pytest.raises(DataError, match="d.csv: empty file"):
            load_csv(tmp_path / "d.csv", "concrete")

    def test_missing_schema_file(self, tmp_path):
        _write_concrete(tmp_path / "d.csv")
        with pytest.raises(DataError, match="file not found: .*absent.json"):
            load_csv(tmp_path / "d.csv", tmp_path / "absent.json")

    def test_schema_without_delimiter(self, tmp_path):
        schema = self._schema(tmp_path, '{"target": "y", "features": ["x"]}')
        (tmp_path / "d.csv").write_text("x,y\n1,2\n")
        with pytest.raises(DataError,
                           match="schema.json: schema: missing required key 'delimiter'"):
            load_csv(tmp_path / "d.csv", schema)

    @pytest.mark.parametrize("columns, message", [
        pytest.param('"features": ["a", "y"]', r"features include the target 'y'",
                     id="target-a-feature"),
        pytest.param('"features": ["a", "a"]', r"features lists columns twice: \['a'\]",
                     id="repeated-feature"),
        pytest.param('"features": ["a"], "categorical": ["a", "a"]',
                     r"categorical lists columns twice: \['a'\]", id="repeated-categorical"),
    ])
    def test_schema_target_among_or_repeated_columns(self, tmp_path, columns, message):
        schema = self._schema(tmp_path, f'{{"delimiter": ",", "target": "y", {columns}}}')
        (tmp_path / "d.csv").write_text("a,y\n1,3\n4,6\n")
        with pytest.raises(DataError, match=rf"schema.json: schema: {message}"):
            load_csv(tmp_path / "d.csv", schema)

    def test_byte_order_mark_accepted(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        schema = self._schema(tmp_path, '{"delimiter": ",", "target": "y",'
                                        ' "features": ["a", "b"]}')
        (tmp_path / "d.csv").write_text("\ufeffa,b,y\n1,2,3\n", encoding="utf-8")
        ds = load_csv(tmp_path / "d.csv", schema)
        assert ds.feature_names == ("a", "b")
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0]])

    def test_short_and_infinite_rows_dropped_and_counted(self, tmp_path):
        short = ",".join(["1"] * 8)                      # one field fewer than the header
        infinite = ",".join(["2"] * 4 + ["inf"] + ["2"] * 4)
        good = ",".join(["3"] * 9)
        path = tmp_path / "d.csv"
        path.write_text("\n".join([CONCRETE_HEADER, short, infinite, good]) + "\n")
        ds = load_csv(path, "concrete")
        np.testing.assert_array_equal(ds.features, np.full((1, 8), 3.0))
        np.testing.assert_array_equal(ds.targets, [3.0])
        path.write_text("\n".join([CONCRETE_HEADER, short, infinite]) + "\n")
        with pytest.raises(DataError, match=r"no usable rows \(dropped 2\)"):
            load_csv(path, "concrete")

    def test_long_row_dropped_and_counted(self, tmp_path):
        # a row with a field more than the header is not read by position
        schema = self._schema(tmp_path, '{"delimiter": ",", "target": "y",'
                                        ' "features": ["a", "b"]}')
        (tmp_path / "d.csv").write_text("a,b,y\n1,2,3\n4,5,6,7\n")
        ds = load_csv(tmp_path / "d.csv", schema)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0]])
        np.testing.assert_array_equal(ds.targets, [3.0])
        assert ds.dropped_rows == 1

    def test_header_repeating_a_schema_column(self, tmp_path):
        schema = self._schema(tmp_path, '{"delimiter": ",", "target": "y",'
                                        ' "features": ["a", "b"]}')
        (tmp_path / "d.csv").write_text("a,b,a,y\n1,2,3,4\n")
        with pytest.raises(DataError, match=r"header repeats schema columns \['a'\]"):
            load_csv(tmp_path / "d.csv", schema)

    def test_schema_repeating_a_key(self, tmp_path):
        schema = self._schema(tmp_path, '{"delimiter": ",", "target": "y", "features": ["a"],'
                                        ' "target": "a"}')
        (tmp_path / "d.csv").write_text("a,y\n1,2\n")
        with pytest.raises(DataError, match="duplicate key 'target'"):
            load_csv(tmp_path / "d.csv", schema)

    def test_meta_counts_dropped_rows(self, tmp_path):
        data_path = tmp_path / "c.csv"
        _write_concrete(data_path, n_rows=20)
        with open(data_path, "a") as handle:
            handle.write(",".join(["1"] * 8) + "\n" + ",".join(["2"] * 10) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment_id": "dropped", "master_seed": 1, "n_seeds": 1, "budget": 2,
            "target": {"kind": "dataset", "schema": "concrete", "path": str(data_path),
                       "test_fraction": 0.25, "model_noise_variance": 0.1},
            "models": [{"kind": "gpr", "kernel": {"kind": "rbf"}}],
            "strategies": [{"kind": "random"}],
        }))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        meta = json.loads((tmp_path / "o" / "meta.json").read_text())
        assert meta["runtime"]["dropped_rows"] == 2

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.25, 1.5])
    def test_test_fraction_outside_the_unit_interval(self, tmp_path, fraction):
        _write_concrete(tmp_path / "d.csv", n_rows=8)
        ds = load_csv(tmp_path / "d.csv", "concrete")
        with pytest.raises(ValueError, match=r"test_fraction must lie in \(0, 1\)"):
            split(ds, fraction, derive_rng(84, 0))

    def test_empty_train_partition(self, tmp_path):
        _write_concrete(tmp_path / "d.csv", n_rows=8)
        ds = load_csv(tmp_path / "d.csv", "concrete")
        with pytest.raises(ValueError, match="empty train partition"):
            standardized(ds, np.arange(0), np.arange(8))

    @pytest.mark.parametrize("column", ["target", "every feature"])
    def test_constant_train_target_exits_2(self, tmp_path, capsys, column):
        rng = derive_rng(84, 1)
        if column == "target":
            rows = [",".join(f"{v:.3f}" for v in rng.uniform(0, 100, 8)) + ",5.0"
                    for _ in range(12)]
        else:
            rows = [",".join(["7.0"] * 8) + f",{v:.3f}" for v in rng.uniform(1, 9, 12)]
        data_path = tmp_path / "c.csv"
        data_path.write_text("\n".join([CONCRETE_HEADER, *rows]) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment_id": "constant", "master_seed": 1, "n_seeds": 1, "budget": 2,
            "target": {"kind": "dataset", "schema": "concrete", "path": str(data_path),
                       "test_fraction": 0.25, "model_noise_variance": 0.1},
            "models": [{"kind": "gpr", "kernel": {"kind": "rbf"}}],
            "strategies": [{"kind": "variance"}, {"kind": "random"}],
        }))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            f"error: {column} column is constant on the training split\n"

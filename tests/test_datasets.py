import numpy as np
import pytest
from conftest import CONCRETE_HEADER, write_concrete_csv as _write_concrete

from ual_lab.datasets import (
    apply_standardizer,
    fit_standardizer,
    load_csv,
    load_schema,
    split,
)
from ual_lab.errors import DataError
from ual_lab.rng import derive_rng


class TestLoadCsv:
    def test_concrete_schema_shape(self, tmp_path):
        path = tmp_path / "concrete.csv"
        _write_concrete(path)
        ds = load_csv(path, "concrete")
        assert ds.features.shape == (30, 8)
        assert ds.target_name == "csMPa"
        assert ds.meta["dropped_rows"] == 0

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
        assert ds.meta["dropped_rows"] == 1

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
        assert ds.meta["dropped_rows"] == 1
        assert "Type=Photo" in ds.feature_names
        assert "Type=Status" in ds.feature_names
        onehot = ds.features[:, [ds.feature_names.index(n)
                                 for n in ("Type=Photo", "Type=Status")]]
        np.testing.assert_array_equal(onehot.sum(axis=1) <= 1, [True] * 3)

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv("/nonexistent/file.csv", "concrete")

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
        all_rows = np.vstack([train.features, test.features])
        assert {tuple(r) for r in all_rows} == {tuple(r) for r in ds.features}

    def test_determinism(self, tmp_path):
        path = tmp_path / "c.csv"
        _write_concrete(path, n_rows=25)
        ds = load_csv(path, "concrete")
        a_train, a_test = split(ds, 0.4, derive_rng(81, 2))
        b_train, b_test = split(ds, 0.4, derive_rng(81, 2))
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.targets, b_test.targets)

    def test_oversized_subsample_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        _write_concrete(path, n_rows=10)
        ds = load_csv(path, "concrete")
        with pytest.raises(ValueError):
            split(ds, 0.25, derive_rng(81, 3), subsample=11)


class TestStandardizer:
    def _dataset(self, tmp_path, n=50):
        path = tmp_path / "c.csv"
        _write_concrete(path, n_rows=n)
        return load_csv(path, "concrete")

    def test_train_columns_centered_and_scaled(self, tmp_path):
        ds = self._dataset(tmp_path)
        train, _ = split(ds, 0.2, derive_rng(82, 0))
        st = fit_standardizer(train)
        out = apply_standardizer(st, train)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)
        assert abs(out.targets.mean()) < 1e-10

    def test_target_round_trip(self, tmp_path):
        ds = self._dataset(tmp_path)
        st = fit_standardizer(ds)
        out = apply_standardizer(st, ds)
        np.testing.assert_allclose(out.targets * st.target_std + st.target_mean,
                                   ds.targets, atol=1e-10)

    def test_test_partition_not_centered(self, tmp_path):
        ds = self._dataset(tmp_path)
        train, test = split(ds, 0.3, derive_rng(82, 1))
        st = fit_standardizer(train)
        out = apply_standardizer(st, test)
        assert np.abs(out.features.mean(axis=0)).max() > 1e-6

    def test_no_leakage_from_test_rows(self, tmp_path):
        ds = self._dataset(tmp_path)
        train, test = split(ds, 0.3, derive_rng(82, 2))
        st = fit_standardizer(train)
        perturbed = type(test)(test.features + 100.0, test.targets * 5.0,
                               test.feature_names, test.target_name, test.meta)
        st_again = fit_standardizer(train)
        np.testing.assert_array_equal(st.feature_means, st_again.feature_means)
        out_a = apply_standardizer(st, train)
        _ = apply_standardizer(st, perturbed)
        out_b = apply_standardizer(st_again, train)
        np.testing.assert_array_equal(out_a.features, out_b.features)

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
        st = fit_standardizer(ds)
        out = apply_standardizer(st, ds)
        assert "flyash" in st.dropped_names
        assert "flyash" not in out.feature_names
        assert out.features.shape[1] == 7

import csv
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polygrad.data import (
    PIMA_FEATURES,
    PIMA_ZERO_MISSING,
    Dataset,
    _distinct,
    _median,
    fit_preprocess,
    load_csv,
    make_blobs,
    make_pima_like,
    save_csv,
    stratified_split,
    subsample_fraction,
)
from polygrad.errors import CsvParseError, ShapeError

ZERO_INFLATED_COUNTS = {
    "glucose": 5,
    "blood_pressure": 35,
    "skin_thickness": 227,
    "insulin": 374,
    "bmi": 11,
}


class TestDatasetValidation:
    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros(4), np.zeros(4, dtype=np.int64), ["a"], 2)
        with pytest.raises(ShapeError):
            Dataset(np.zeros((4, 2)), np.zeros(3, dtype=np.int64), ["a", "b"], 2)
        with pytest.raises(ShapeError):
            Dataset(np.zeros((4, 2)), np.zeros(4, dtype=np.int64), ["a"], 2)
        with pytest.raises(ShapeError):
            Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 0]), ["a", "b"], 2)

    def test_properties(self):
        ds = Dataset(np.zeros((5, 3)), np.zeros(5, dtype=np.int64), ["a", "b", "c"], 2)
        assert (ds.n, ds.d) == (5, 3)


class TestSurrogateTable:
    def test_frozen_defaults(self):
        ds = make_pima_like(seed=7)
        assert (ds.n, ds.d, ds.class_count) == (768, 8, 2)
        assert ds.feature_names == PIMA_FEATURES
        assert int(ds.labels.sum()) == 270

    def test_frozen_zero_inflation(self):
        ds = make_pima_like(seed=7)
        for name, count in ZERO_INFLATED_COUNTS.items():
            j = ds.feature_names.index(name)
            assert int((ds.features[:, j] == 0).sum()) == count, name
        # pregnancies zeros are genuine (nulliparous), not missingness
        assert "pregnancies" not in PIMA_ZERO_MISSING
        assert int((ds.features[:, ds.feature_names.index("pregnancies")] == 0).sum()) == 47
        for name in ("pedigree", "age"):
            assert int((ds.features[:, ds.feature_names.index(name)] == 0).sum()) == 0

    def test_zero_counts_scale_with_sample_count(self):
        ds = make_pima_like(seed=7, n_samples=384)
        assert ds.n == 384
        assert int(ds.labels.sum()) == 137
        scaled = {"glucose": 3, "blood_pressure": 18, "skin_thickness": 114,
                  "insulin": 187, "bmi": 6}
        for name, count in scaled.items():
            j = ds.feature_names.index(name)
            assert int((ds.features[:, j] == 0).sum()) == count, name

    def test_deterministic_per_seed(self):
        a = make_pima_like(seed=7)
        b = make_pima_like(seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = make_pima_like(seed=8)
        assert not np.array_equal(a.features, c.features)

    def test_value_ranges(self):
        ds = make_pima_like(seed=7)
        col = {n: ds.features[:, i] for i, n in enumerate(ds.feature_names)}
        g = col["glucose"][col["glucose"] != 0]
        assert g.min() >= 44 and g.max() <= 199
        assert col["age"].min() >= 21 and col["age"].max() <= 81
        assert col["pregnancies"].min() >= 0 and col["pregnancies"].max() <= 17
        bmi = col["bmi"][col["bmi"] != 0]
        assert bmi.min() >= 18.2 and bmi.max() <= 67.1
        # count-like columns are integral
        for name in ("pregnancies", "glucose", "blood_pressure", "age", "insulin"):
            assert np.all(col[name] == np.round(col[name])), name


class TestCsvRoundTrip:
    def test_bitwise_roundtrip(self, tmp_path):
        ds = make_pima_like(seed=7, n_samples=64)
        p1 = tmp_path / "a.csv"
        save_csv(p1, ds)
        back = load_csv(p1)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names
        p2 = tmp_path / "b.csv"
        save_csv(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    EDGE_VALUES = [
        -0.0,
        5e-324,
        2.2250738585072014e-308,
        1.7976931348623157e308,
        2.0**53 + 2,
        1e16,
        1e22,
        0.1 + 0.2,
        -1e-5,
    ]

    def edge_dataset(self):
        rows = np.array([self.EDGE_VALUES, self.EDGE_VALUES[::-1], [-v for v in self.EDGE_VALUES]])
        names = [f"f{i}" for i in range(len(self.EDGE_VALUES))]
        return Dataset(rows, np.array([0, 1, 0]), names, 2)

    def test_edge_values_keep_their_bits(self, tmp_path):
        ds = self.edge_dataset()
        p = tmp_path / "edge.csv"
        save_csv(p, ds)
        back = load_csv(p)
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_cells_are_shortest_repr(self, tmp_path):
        for name, ds in [("edge", self.edge_dataset()), ("pima", make_pima_like(seed=7, n_samples=64))]:
            p = tmp_path / f"{name}.csv"
            save_csv(p, ds)
            with open(p, newline="") as fh:
                header, *records = csv.reader(fh)
            assert header == ds.feature_names + ["outcome"]
            for record, row, label in zip(records, ds.features.tolist(), ds.labels.tolist()):
                expected = [repr(v)[:-2] if repr(v).endswith(".0") else repr(v) for v in row]
                assert record == expected + [str(label)]
        first_row = (tmp_path / "pima.csv").read_text().splitlines()[1]
        assert first_row.startswith("3,114,55,25,283,40.2,0.173,27,")

    def test_labels_remapped_sorted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,outcome\n1,2,7\n3,4,3\n5,6,7\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        assert ds.class_count == 2

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,outcome\n1,0\n\n2,1\n")
        assert load_csv(p).n == 2

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["a,b,outcome"] + [f"{i},{i},0" for i in range(1, 5)] + ["5,oops,1"]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(p)
        assert exc.value.row == 5
        assert exc.value.column == "b"
        assert "row 5" in str(exc.value) and "'b'" in str(exc.value)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,outcome\n1,2,0\n1,2\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(p)
        assert exc.value.row == 2

    @pytest.mark.parametrize("header", ["a,a,outcome", "a,outcome,outcome", "a, b,b ,outcome"])
    def test_repeated_column_name_rejected(self, tmp_path, header):
        p = tmp_path / "t.csv"
        p.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        repeated = {"a,a,outcome": "a", "a,outcome,outcome": "outcome", "a, b,b ,outcome": "b"}[header]
        with pytest.raises(CsvParseError, match=f"column '{repeated}' is named more than once") as exc:
            load_csv(p)
        assert exc.value.column == repeated

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(CsvParseError, match="outcome"):
            load_csv(p)

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(CsvParseError, match="empty"):
            load_csv(empty)
        header = tmp_path / "h.csv"
        header.write_text("a,outcome\n")
        with pytest.raises(CsvParseError, match="no data rows"):
            load_csv(header)

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,outcome\n1,0\n2,0.5\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(p)
        assert exc.value.row == 2

    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    def test_byte_order_mark_before_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\ufeffoutcome,glucose\n0,1\n1,2\n", encoding="utf-8")
        ds = load_csv(p)
        assert ds.feature_names == ["glucose"]
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_byte_order_mark_before_feature_keeps_imputation(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\ufeffglucose,bmi,outcome\n0,0,0\n2,28,1\n4,28,0\n", encoding="utf-8")
        ds = load_csv(p)
        assert ds.feature_names == ["glucose", "bmi"]
        stats = fit_preprocess(ds.features, ds.feature_names, np.arange(ds.n))
        assert stats.impute_values == {"glucose": 3.0, "bmi": 28.0}

    @pytest.mark.parametrize("text", [
        "a,b,outcome\n1,2,0\n3,4,1\n",  # numpy's bulk reader
        "a,b,outcome\n1,2,0\n\x1c3,4,1\n",  # the row loop, and its error in the first column
        "outcome,a\n0,1\n0.5,2\n",  # the re-read that names a refused label's row
    ], ids=["bulk", "row-loop", "refused-label"])
    def test_byte_order_mark_changes_nothing(self, tmp_path, text):
        def outcome(path):
            try:
                ds = load_csv(path)
            except CsvParseError as err:
                return err.row, err.column, str(err).replace(str(path), "<path>")
            return ds.features.tobytes(), ds.labels.tolist(), ds.feature_names

        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8", newline="")
        marked.write_text(text, encoding="utf-8-sig", newline="")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert outcome(marked) == outcome(plain)


def _oracle(path, header):
    """csv.reader + float(): the parsed table, or the first (row, column, message) error."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_num, cells in enumerate(reader, start=1):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) != len(header):
                return None, (row_num, None,
                              f"{path}: row {row_num} has {len(cells)} cells, expected {len(header)}")
            for pos, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    return None, (row_num, header[pos],
                                  f"{path}: non-numeric cell {cell.strip()!r} at row {row_num}, "
                                  f"column {header[pos]!r}")
            rows.append([float(c) for c in cells])
    return np.asarray(rows), None


GRAMMAR_CELLS = [
    " 1.5 ", "1_000", "nan", "-Infinity", "+1e5", "1e400", "0x10", "", "1.5.2",
    "١٢",  # Arabic-Indic digits: float() reads 12
    "\x1c1\x1c",  # numpy strips ASCII separators as padding, float() rejects them
]
GRAMMAR_ROWS = {
    "quoted number": 'a,b,outcome\n1,"2.5",0\n3,4,1\n',
    "CRLF line endings": "a,b,outcome\r\n1,2,0\r\n3,4,1\r\n",
    "whitespace-only line": "a,b,outcome\n1,2,0\n   \n3,4,1\n",
    "all-blank row": "a,b,outcome\n1,2,0\n,,\n3,4,1\n",
    "trailing comma": "a,b,outcome\n1,2,0,\n3,4,1,\n",
    "every row short": "a,b,outcome\n1,0\n3,1\n",
}


class TestCsvGrammar:
    """load_csv agrees with a csv.reader + float() oracle on edge inputs."""

    def _check(self, path):
        expected, error = _oracle(path, ["a", "b", "outcome"])
        if error is None:
            ds = load_csv(path)
            assert ds.features.shape == (expected.shape[0], 2)
            assert ds.features.tobytes() == expected[:, :2].tobytes()
            np.testing.assert_array_equal(ds.labels, expected[:, 2].astype(np.int64))
        else:
            with pytest.raises(CsvParseError) as exc:
                load_csv(path)
            assert (exc.value.row, exc.value.column, str(exc.value)) == error

    @pytest.mark.parametrize("cell", GRAMMAR_CELLS)
    def test_cell(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"a,b,outcome\n1,2,0\n3,{cell},1\n5,6,0\n", encoding="utf-8", newline="")
        self._check(p)

    @pytest.mark.parametrize("name", sorted(GRAMMAR_ROWS))
    def test_row_shape(self, tmp_path, name):
        p = tmp_path / "t.csv"
        p.write_text(GRAMMAR_ROWS[name], encoding="utf-8", newline="")
        self._check(p)

    @pytest.mark.parametrize("text, message", [
        ("a,outcome\n1,0\n\n2,0.5\n", "non-integer label at row 3"),
        ("a,outcome\n1,0\n\nx,0\n", "non-numeric cell 'x' at row 3, column 'a'"),
        ("a,outcome\n1,0\n\n2,inf\n", "label outside the int64 range at row 3, column 'outcome'"),
        ("a,outcome\n1,0\n\n2,1e300\n", "label outside the int64 range at row 3, column 'outcome'"),
        ("a,outcome\n1,0\n\n2,9223372036854775808\n", "label outside the int64 range at row 3"),
    ])
    def test_label_and_cell_errors_count_blank_records(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        p.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(CsvParseError) as exc:
            load_csv(p)
        assert exc.value.row == 3
        assert message in str(exc.value)

    def test_plain_file_takes_bulk_path(self, tmp_path, monkeypatch):
        import polygrad.data as data_mod

        def no_fallback(*args):
            raise AssertionError("row loop ran on a well-formed file")

        p = tmp_path / "t.csv"
        save_csv(p, make_pima_like(seed=7, n_samples=64))
        monkeypatch.setattr(data_mod, "_parse_rows", no_fallback)
        assert load_csv(p).n == 64


class TestCsvLarge:
    def test_bitwise_roundtrip_5000_rows(self, tmp_path):
        ds = make_pima_like(seed=7, n_samples=5000)
        p = tmp_path / "big.csv"
        save_csv(p, ds)
        back = load_csv(p)
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names
        assert back.class_count == ds.class_count

    def test_error_row_counts_blank_records(self, tmp_path):
        ds = make_pima_like(seed=7, n_samples=5000)
        p = tmp_path / "big.csv"
        save_csv(p, ds)
        header, *records = p.read_text().splitlines()
        records.insert(10, "")  # record 11 is blank; the row loop still numbers it
        cells = records[3999].split(",")
        cells[PIMA_FEATURES.index("glucose")] = "oops"
        records[3999] = ",".join(cells)
        p.write_text("\n".join([header] + records) + "\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(p)
        assert exc.value.row == 4000
        assert exc.value.column == "glucose"
        assert "'oops' at row 4000" in str(exc.value)


class TestPreprocess:
    def test_impute_uses_nonzero_median(self):
        X = np.array([[0.0], [2.0], [4.0]])
        stats = fit_preprocess(X, ["glucose"], np.arange(3))
        assert stats.impute_values["glucose"] == 3.0
        out = stats.transform(X)
        # after imputation column is [3, 2, 4]: mean 3, std sqrt(2/3)
        np.testing.assert_allclose(out[:, 0], (np.array([3.0, 2.0, 4.0]) - 3.0)
                                   / np.sqrt(2.0 / 3.0), atol=1e-12)

    def test_columns_outside_missing_set_untouched(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
        stats = fit_preprocess(X, ["pregnancies", "glucose"], np.arange(3))
        assert "pregnancies" not in stats.impute_values
        assert stats.impute_values == {"glucose": 3.0}

    def test_stats_come_only_from_fit_rows(self):
        rng = np.random.default_rng(3)
        X = rng.normal(100.0, 10.0, size=(40, 2))
        fit_idx = np.arange(10)
        stats = fit_preprocess(X, ["glucose", "bmi"], fit_idx)
        np.testing.assert_allclose(stats.means, X[:10].mean(axis=0), atol=1e-12)
        leaky = fit_preprocess(X, ["glucose", "bmi"], np.arange(40))
        assert not np.allclose(stats.means, leaky.means)

    def test_constant_column_keeps_unit_std(self):
        X = np.full((5, 1), 9.0)
        stats = fit_preprocess(X, ["age"], np.arange(5))
        assert stats.stds[0] == 1.0
        np.testing.assert_array_equal(stats.transform(X)[:, 0], np.zeros(5))

    def test_all_zero_missing_column_warns(self, caplog):
        X = np.zeros((4, 1))
        with caplog.at_level(logging.WARNING):
            stats = fit_preprocess(X, ["insulin"], np.arange(4))
        assert stats.impute_values["insulin"] == 0.0
        assert any("all zeros" in r.message for r in caplog.records)


class TestStratifiedSplit:
    def test_small_toy_counts(self):
        labels = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
        train, evals = stratified_split(labels, eval_fraction=0.2, seed=0)
        assert evals.size == 2 + 1  # ceil(0.2*6), ceil(0.2*4)
        assert train.size == 7
        ev_labels = labels[evals]
        assert int((ev_labels == 0).sum()) == 2 and int((ev_labels == 1).sum()) == 1

    def test_partition_properties(self):
        ds = make_pima_like(seed=7)
        train, evals = stratified_split(ds.labels, 0.2, seed=3)
        combined = np.concatenate([train, evals])
        assert np.array_equal(np.sort(combined), np.arange(ds.n))
        assert np.array_equal(train, np.sort(train))
        assert np.array_equal(evals, np.sort(evals))

    def test_canonical_eval_counts(self):
        # class sizes 498/270 with eval_fraction 0.2 give eval (100, 54)
        ds = make_pima_like(seed=7)
        _, evals = stratified_split(ds.labels, 0.2, seed=0)
        ev = ds.labels[evals]
        assert int((ev == 0).sum()) == 100
        assert int((ev == 1).sum()) == 54

    def test_deterministic_and_seed_sensitive(self):
        labels = make_pima_like(seed=7).labels
        a = stratified_split(labels, 0.2, seed=5)
        b = stratified_split(labels, 0.2, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = stratified_split(labels, 0.2, seed=6)
        assert not np.array_equal(a[1], c[1])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 0, 1, 1]), eval_fraction=0.0, seed=0)
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 0, 1, 1]), eval_fraction=1.0, seed=0)
        with pytest.raises(ValueError, match="class 1"):
            stratified_split(np.array([0, 0, 0, 1]), eval_fraction=0.2, seed=0)
        with pytest.raises(ValueError, match="too small"):
            stratified_split(np.array([0, 0, 1, 1]), eval_fraction=0.6, seed=0)


class TestSubsampleFraction:
    def setup_method(self):
        self.ds = make_pima_like(seed=7)
        self.train, _ = stratified_split(self.ds.labels, 0.2, seed=0)

    def counts(self, idx):
        sub = self.ds.labels[idx]
        return idx.size, int((sub == 0).sum()), int((sub == 1).sum())

    def test_canonical_fraction_chain(self):
        # train side is 398 + 216 = 614 rows; the sweep plan uses ceil
        # rounding at its smallest fraction and round-half-up elsewhere
        assert self.train.size == 614
        expected = {
            (0.05, "ceil"): (31, 20, 11),
            (0.1, "round"): (61, 40, 21),
            (0.25, "round"): (154, 100, 54),
            (0.5, "round"): (307, 199, 108),
            (1.0, "round"): (614, 398, 216),
        }
        for (f, mode), want in expected.items():
            got = self.counts(subsample_fraction(self.train, self.ds.labels, f, seed=0,
                                                 rounding=mode))
            assert got == want, (f, mode)

    def test_subsets_nest_across_fractions(self):
        for seed in (0, 3):
            prev = None
            for f, mode in ((0.05, "ceil"), (0.1, "round"), (0.25, "round"),
                            (0.5, "round"), (1.0, "round")):
                idx = subsample_fraction(self.train, self.ds.labels, f, seed=seed,
                                         rounding=mode)
                if prev is not None:
                    assert set(prev).issubset(set(idx)), (seed, f)
                prev = idx

    def test_full_fraction_is_identity(self):
        idx = subsample_fraction(self.train, self.ds.labels, 1.0, seed=9, rounding="round")
        np.testing.assert_array_equal(idx, np.sort(self.train))

    def test_deterministic_and_seed_sensitive(self):
        a = subsample_fraction(self.train, self.ds.labels, 0.25, seed=1, rounding="round")
        b = subsample_fraction(self.train, self.ds.labels, 0.25, seed=1, rounding="round")
        np.testing.assert_array_equal(a, b)
        c = subsample_fraction(self.train, self.ds.labels, 0.25, seed=2, rounding="round")
        assert not np.array_equal(a, c)

    def test_subset_drawn_from_train_only(self):
        idx = subsample_fraction(self.train, self.ds.labels, 0.1, seed=4, rounding="round")
        assert set(idx).issubset(set(self.train))

    def test_starved_class_rejected(self):
        labels = np.array([0] * 50 + [1] * 2)
        train = np.arange(52)
        with pytest.raises(ValueError, match="class 1"):
            subsample_fraction(train, labels, 0.05, seed=0, rounding="round")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            subsample_fraction(self.train, self.ds.labels, 0.0, seed=0, rounding="round")
        with pytest.raises(ValueError):
            subsample_fraction(self.train, self.ds.labels, 1.5, seed=0, rounding="round")
        with pytest.raises(ValueError, match="rounding"):
            subsample_fraction(self.train, self.ds.labels, 0.5, seed=0, rounding="floor")


class TestSortHelpers:
    """The sort-based stand-ins equal numpy's np.unique and np.median bit for bit."""

    def test_distinct_matches_np_unique(self):
        rng = np.random.default_rng(11)
        for trial in range(500):
            labels = rng.integers(-3, 6, int(rng.integers(0, 50)))
            expect = np.unique(labels)
            got = _distinct(labels)
            assert got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_median_matches_np_median(self):
        rng = np.random.default_rng(12)
        specials = np.array([-0.0, 0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])
        for trial in range(3000):
            n = int(rng.integers(1, 30))
            kind = trial % 3
            if kind == 0:
                v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
            elif kind == 1:
                v = rng.integers(-2, 3, n).astype(np.float64)  # many ties
            else:
                v = rng.choice(specials, n)
            expect = np.float64(np.median(v))
            assert np.float64(_median(v)).tobytes() == expect.tobytes(), v

    def test_median_edge_cases(self):
        assert np.isnan(_median(np.array([1.0, np.nan, 3.0])))
        assert np.float64(_median(np.array([-0.0]))).tobytes() == np.float64(0.0).tobytes()
        assert _median(np.array([3.0, 1.0])) == 2.0

    def test_sweep_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique(x) and np.median import numpy.ma (about 12 ms) to test
        # for masked input; a pima sweep runs the split, the subsample and
        # the median imputation, then trains, scores and writes reports.
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "format_version = 1\ndata.source = pima_like\nplan.models = cr, vanilla\n"
            "plan.fractions = 0.05, 1.0\nplan.seeds = 0, 1\ntrain.widths = 4\ntrain.epochs = 1\n"
        )
        code = (
            "import sys\n"
            "from polygrad.cli import main\n"
            f"assert main(['sweep', '--plan', {str(plan)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"


class TestBlobs:
    def test_counts_and_schema(self):
        ds = make_blobs(200, 3, 2, seed=0)
        assert np.bincount(ds.labels).tolist() == [67, 67, 66]
        assert ds.feature_names == ["x0", "x1"]
        assert ds.class_count == 3

    def test_deterministic(self):
        a = make_blobs(50, 2, 3, seed=4)
        b = make_blobs(50, 2, 3, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_clusters_are_separated(self):
        ds = make_blobs(300, 3, 2, seed=1)
        for c in range(3):
            members = ds.features[ds.labels == c]
            center = members.mean(axis=0)
            spread = np.linalg.norm(members - center, axis=1).max()
            others = ds.features[ds.labels != c]
            nearest = np.linalg.norm(others - center, axis=1).min()
            assert nearest > spread * 0.5

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            make_blobs(10, 1, 2, seed=0)
        with pytest.raises(ValueError):
            make_blobs(10, 3, 1, seed=0)

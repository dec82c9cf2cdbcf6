import numpy as np
import pytest

from conftest import save_sparse, synthetic_stream, write_csv
from elmstream.data import (
    DataError,
    LabeledDataset,
    StreamPlan,
    _csv_in_bulk,
    fit_normalizer,
    kfold,
    load_csv,
    load_fold_file,
    load_sparse,
    stream_blocks,
)


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("1.0,2.0,1,0\n3.0,4.0,0,1\n")
        ds = load_csv(p, label_count=2)
        assert ds.features.shape == (2, 2)
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.labels, [[1, 0], [0, 1]])

    def test_header_line(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("f1,f2,a,b\n1.0,2.0,1,0\n")
        ds = load_csv(p, label_count=2, has_header=True)
        assert np.array_equal(ds.features, [[1.0, 2.0]])
        assert np.array_equal(ds.labels, [[1, 0]])
        # The header's width is the width every row must have.
        p.write_text("f1,f2,a,b\n1.0,2.0,3.0,1,0\n")
        with pytest.raises(DataError, match=r"toy.csv:2.*expected 4"):
            load_csv(p, label_count=2, has_header=True)

    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, label_count=2)

    def test_label_domain_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0,1,0\n1.0,2.0,2,0\n")
        with pytest.raises(DataError, match=r"bad.csv:2.*not 0 or 1"):
            load_csv(p, label_count=2)

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0,1.0\n")
        with pytest.raises(DataError, match="not 0 or 1"):
            load_csv(p, label_count=1)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0,1,0\n1.0,2.0,3.0,1,0\n")
        with pytest.raises(DataError, match=r"ragged.csv:2.*ragged"):
            load_csv(p, label_count=2)

    def test_nan_feature_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("nan,2.0,1\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p, label_count=1)

    def test_unparseable_feature_names_line(self, tmp_path):
        p = tmp_path / "junk.csv"
        p.write_text("1.0,2.0,1\nx,2.0,1\n")
        with pytest.raises(DataError, match=r"junk.csv:2"):
            load_csv(p, label_count=1)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"1.0,2.0,1\n1.0,\xff2.0,1\n")
        with pytest.raises(DataError, match=r"latin1.csv: not UTF-8"):
            load_csv(p, label_count=1)

    def test_yeast_shaped_dims(self, yeast_excerpt):
        assert yeast_excerpt.n_features == 103
        assert yeast_excerpt.n_labels == 14

    @pytest.mark.parametrize(
        "text, has_header",
        [
            ("1.5,2.0,1,0\r\n3.0,-4.0,0,1\r\n", False),
            ("1.5,2.0,1,0\r3.0,-4.0,0,1", False),
            ("\n1.5,2.0,1,0\n\n  \n3.0,-4.0,0,1\n\n", False),
            (" 1.5 , 2.0\t,1,0\n3.0,　-4.0,0,1\n", False),
            ("1.5,2.0, 1 ,0\n3.0,-4.0,0,1\x0b\n", False),
            ("f1,f2,a,b\n\n1.5,2.0,1,0\n3.0,-4.0,0,1\n", True),
        ],
        ids=["crlf", "lone_cr", "blank_lines", "padded_features", "padded_labels",
             "header_then_blank"],
    )
    def test_layouts_load_the_same_arrays(self, tmp_path, text, has_header):
        p = tmp_path / "layout.csv"
        p.write_bytes(text.encode("utf-8"))
        ds = load_csv(p, label_count=2, has_header=has_header)
        assert np.array_equal(ds.features, [[1.5, 2.0], [3.0, -4.0]])
        assert np.array_equal(ds.labels, [[1, 0], [0, 1]])
        assert ds.labels.dtype == np.int8

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        p = tmp_path / "header.csv"
        p.write_text("f1,f2,a,b\n\n")
        with pytest.raises(DataError, match=r"header.csv: no data rows"):
            load_csv(p, label_count=2, has_header=True)

    def test_header_width_differs_names_first_data_line(self, tmp_path):
        p = tmp_path / "narrow.csv"
        p.write_text("f1,f2,a\n\n1.0,2.0,1,0\n")
        with pytest.raises(
            DataError, match=r"narrow.csv:3: ragged row with 4 fields, expected 3"
        ):
            load_csv(p, label_count=2, has_header=True)

    def test_written_files_parse_in_bulk(self, tmp_path, small_learnable):
        # The per-line reader is for errors and rare spellings only.
        p = tmp_path / "plain.csv"
        write_csv(p, small_learnable)
        ds = _csv_in_bulk(str(p), 3, has_header=False)
        assert np.array_equal(ds.features, small_learnable.features)
        assert np.array_equal(ds.labels, small_learnable.labels)
        p.write_text("1_0,2.5,1\n")
        assert _csv_in_bulk(str(p), 1, has_header=False) is None

    def test_label_count_beyond_the_row_width(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("1.0,2.0,1,0\n")
        with pytest.raises(DataError, match=r"wide.csv:1: row has 4 fields, need more than 4$"):
            load_csv(p, label_count=4)
        with pytest.raises(DataError, match=r"need more than 1000000000000$"):
            load_csv(p, label_count=10**12)

    def test_underscore_digits_load_as_python_floats(self, tmp_path):
        p = tmp_path / "digits.csv"
        p.write_text("1_0,2.5,1\n3.0,4.0,0\n")
        ds = load_csv(p, label_count=1)
        assert np.array_equal(ds.features, [[10.0, 2.5], [3.0, 4.0]])
        assert np.array_equal(ds.labels, [[1], [0]])


class TestLoadSparse:
    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "latin1.sparse"
        p.write_bytes(b"1 1:0.5\n2 1:\xe90.5\n")
        with pytest.raises(DataError, match=r"latin1.sparse: not UTF-8"):
            load_sparse(p, feature_count=1, label_count=2)

    def test_hand_readable_line(self, tmp_path):
        p = tmp_path / "toy.sparse"
        p.write_text("1,3 2:0.5 7:1.0\n")
        ds = load_sparse(p, feature_count=10, label_count=3)
        assert np.array_equal(ds.labels, [[1, 0, 1]])
        expected = np.zeros(10)
        expected[1] = 0.5
        expected[6] = 1.0
        assert np.array_equal(ds.features, [expected])

    def test_no_label_line_and_comments(self, tmp_path):
        p = tmp_path / "toy.sparse"
        p.write_text("# comment line\n2:0.5   # trailing comment\n1 1:2.0\n")
        ds = load_sparse(p, feature_count=3, label_count=2)
        assert np.array_equal(ds.labels, [[0, 0], [1, 0]])
        assert ds.features[0, 1] == 0.5

    def test_duplicate_feature_index(self, tmp_path):
        p = tmp_path / "dup.sparse"
        p.write_text("1 2:0.5 2:0.7\n")
        with pytest.raises(DataError, match="duplicate feature index 2"):
            load_sparse(p, feature_count=5, label_count=1)

    def test_duplicate_label_index(self, tmp_path):
        p = tmp_path / "dup.sparse"
        p.write_text("1,1 2:0.5\n")
        with pytest.raises(DataError, match="duplicate label index 1"):
            load_sparse(p, feature_count=5, label_count=2)

    def test_out_of_range_indices(self, tmp_path):
        p = tmp_path / "oor.sparse"
        p.write_text("4 1:0.5\n")
        with pytest.raises(DataError, match="label index 4 out of range"):
            load_sparse(p, feature_count=5, label_count=3)
        p.write_text("1 9:0.5\n")
        with pytest.raises(DataError, match="feature index 9 out of range"):
            load_sparse(p, feature_count=5, label_count=3)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1,x 2:0.5", "bad label index 'x'"),
            ("1 y:0.5", "bad feature index 'y'"),
            ("1 2:0.5 7", "expected index:value, got '7'"),
        ],
    )
    def test_malformed_token_message(self, tmp_path, line, message):
        p = tmp_path / "bad.sparse"
        p.write_text(line + "\n")
        with pytest.raises(DataError) as exc:
            load_sparse(p, feature_count=5, label_count=2)
        assert str(exc.value) == f"{p}:1: {message}"

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "bad.sparse"
        p.write_text("1 2:0.5\n1 x\n")
        with pytest.raises(DataError, match=r"bad.sparse:2"):
            load_sparse(p, feature_count=5, label_count=2)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(
            features=rng.normal(size=(12, 6)),
            labels=rng.integers(0, 2, size=(12, 4)).astype(np.int8),
        )
        p = tmp_path / "rt.sparse"
        save_sparse(p, ds)
        back = load_sparse(p, feature_count=6, label_count=4)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_at_medical_shape(self, tmp_path):
        # Text-domain sparse width: 1449 features, 45 labels.
        rng = np.random.default_rng(1)
        features = np.zeros((30, 1449))
        for i in range(30):
            cols = rng.choice(1449, size=20, replace=False)
            features[i, cols] = np.round(rng.normal(size=20), 6)
        ds = LabeledDataset(
            features=features,
            labels=rng.integers(0, 2, size=(30, 45)).astype(np.int8),
        )
        p = tmp_path / "medical_shaped.sparse"
        save_sparse(p, ds)
        back = load_sparse(p, feature_count=1449, label_count=45)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_unrepresentable_row_rejected(self, tmp_path):
        ds = LabeledDataset(
            features=np.zeros((1, 3)), labels=np.zeros((1, 2), dtype=np.int8)
        )
        with pytest.raises(DataError, match="not representable"):
            save_sparse(tmp_path / "x.sparse", ds)


class TestNormalizer:
    def test_min_max_to_unit_interval(self):
        ds = LabeledDataset(
            features=np.array([[0.0], [10.0]]),
            labels=np.zeros((2, 1), dtype=np.int8),
        )
        norm = fit_normalizer(ds)
        out = norm.transform(ds.features)
        assert np.allclose(out, [[-1.0], [1.0]], atol=1e-15)

    def test_constant_feature_maps_to_zero(self):
        ds = LabeledDataset(
            features=np.full((3, 2), 7.0), labels=np.zeros((3, 1), dtype=np.int8)
        )
        norm = fit_normalizer(ds)
        assert np.array_equal(norm.transform(ds.features), np.zeros((3, 2)))

    def test_out_of_range_values_pass_through_affine(self):
        ds = LabeledDataset(
            features=np.array([[0.0], [10.0]]),
            labels=np.zeros((2, 1), dtype=np.int8),
        )
        norm = fit_normalizer(ds)
        assert norm.transform(np.array([[20.0]]))[0, 0] == pytest.approx(3.0, abs=1e-15)

    def test_fit_on_row_subset_only(self):
        ds = LabeledDataset(
            features=np.array([[0.0], [10.0], [100.0]]),
            labels=np.zeros((3, 1), dtype=np.int8),
        )
        norm = fit_normalizer(ds.subset(range(2)))
        assert norm.transform(np.array([[100.0]]))[0, 0] == pytest.approx(19.0)

    def test_empty_range_rejected(self):
        ds = synthetic_stream(5, 2, 2, seed=6)
        with pytest.raises(DataError, match="empty"):
            fit_normalizer(ds.subset(np.arange(0)))


class TestKfold:
    def test_sizes_and_partition_yeast_n(self):
        ds = synthetic_stream(2417, 2, 2, seed=7)
        folds = kfold(ds, 5, seed=1)
        sizes = {len(test) for _, test in folds}
        assert sizes == {483, 484}
        union = np.concatenate([test for _, test in folds])
        assert np.array_equal(np.sort(union), np.arange(2417))

    def test_train_is_complement(self):
        ds = synthetic_stream(20, 2, 2, seed=8)
        for train, test in kfold(ds, 4, seed=2):
            assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(20))
            assert np.intersect1d(train, test).size == 0

    def test_leave_one_out(self):
        ds = synthetic_stream(6, 2, 2, seed=9)
        folds = kfold(ds, 6, seed=3)
        assert all(len(test) == 1 for _, test in folds)

    def test_deterministic(self):
        ds = synthetic_stream(30, 2, 2, seed=10)
        a = kfold(ds, 3, seed=4)
        b = kfold(ds, 3, seed=4)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_k_out_of_range(self):
        ds = synthetic_stream(5, 2, 2, seed=11)
        with pytest.raises(DataError):
            kfold(ds, 1, seed=0)
        with pytest.raises(DataError):
            kfold(ds, 6, seed=0)


class TestSubset:
    def test_writing_into_subset_leaves_parent_unchanged(self):
        ds = synthetic_stream(10, 3, 2, seed=19)
        features, labels = ds.features.copy(), ds.labels.copy()
        sub = ds.subset(np.array([1, 4, 7]))
        sub.features[:] = 99.0
        sub.labels[:] = 1 - sub.labels
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)

    def test_empty_row_list_keeps_the_widths(self):
        ds = synthetic_stream(10, 3, 2, seed=19)
        for rows in ([], np.arange(0), np.zeros(10, dtype=bool)):
            sub = ds.subset(rows)
            assert sub.features.shape == (0, 3)
            assert sub.labels.shape == (0, 2)
            assert sub.labels.dtype == ds.labels.dtype

    def test_boolean_mask_selects_rows(self):
        ds = synthetic_stream(10, 3, 2, seed=19)
        mask = np.arange(10) % 3 == 0
        sub = ds.subset(mask)
        assert np.array_equal(sub.features, ds.features[[0, 3, 6, 9]])
        assert np.array_equal(sub.labels, ds.labels[[0, 3, 6, 9]])


class TestStreamBlocks:
    def test_even_split(self):
        ds = synthetic_stream(100, 2, 2, seed=12)
        blocks = stream_blocks(ds, StreamPlan(20, 10))
        assert len(blocks) == 9  # init + 8 stream blocks
        assert blocks[0].n_samples == 20
        assert all(b.n_samples == 10 for b in blocks[1:])

    def test_remainder_block(self):
        ds = synthetic_stream(105, 2, 2, seed=13)
        blocks = stream_blocks(ds, StreamPlan(20, 10))
        assert [b.n_samples for b in blocks] == [20] + [10] * 8 + [5]

    def test_concatenation_reproduces_dataset(self):
        ds = synthetic_stream(57, 3, 2, seed=14)
        blocks = stream_blocks(ds, StreamPlan(13, 7))
        cat = np.vstack([b.features for b in blocks])
        assert np.array_equal(cat, ds.features)

    def test_shuffle_is_seeded_permutation(self):
        ds = synthetic_stream(40, 2, 2, seed=15)
        blocks = stream_blocks(ds, StreamPlan(10, 10, shuffle_seed=3))
        again = stream_blocks(ds, StreamPlan(10, 10, shuffle_seed=3))
        cat = np.vstack([b.features for b in blocks])
        assert np.array_equal(cat, np.vstack([b.features for b in again]))
        assert not np.array_equal(cat, ds.features)
        assert np.array_equal(
            np.sort(cat, axis=0), np.sort(ds.features, axis=0)
        )

    def test_single_block_when_init_covers_all(self):
        ds = synthetic_stream(20, 2, 2, seed=16)
        blocks = stream_blocks(ds, StreamPlan(20, 10))
        assert len(blocks) == 1
        assert blocks[0].n_samples == 20

    def test_infeasible_plans_rejected(self):
        ds = synthetic_stream(25, 2, 2, seed=17)
        with pytest.raises(DataError, match="infeasible"):
            stream_blocks(ds, StreamPlan(20, 10))  # first stream block short
        with pytest.raises(DataError, match="infeasible"):
            stream_blocks(ds, StreamPlan(30, 1))  # init bigger than data
        with pytest.raises(DataError):
            stream_blocks(ds, StreamPlan(0, 5))

    def test_blocks_are_views_of_the_dataset(self):
        ds = synthetic_stream(57, 3, 2, seed=14)
        for blk in stream_blocks(ds, StreamPlan(13, 7)):
            assert np.shares_memory(blk.features, ds.features)
            assert np.shares_memory(blk.labels, ds.labels)

    def test_shuffled_blocks_are_views_of_one_copy(self):
        ds = synthetic_stream(57, 3, 2, seed=14)
        blocks = stream_blocks(ds, StreamPlan(13, 7, shuffle_seed=5))
        for name in ("features", "labels"):
            copy = getattr(blocks[0], name).base
            assert copy is not None
            assert not np.shares_memory(copy, getattr(ds, name))
            assert all(getattr(b, name).base is copy for b in blocks)

    def test_fifty_one_block_configuration(self):
        # A 1500-row training split cut as init=100 plus blocks of 28
        # yields 51 processed blocks in total.
        ds = synthetic_stream(1500, 4, 3, seed=18)
        blocks = stream_blocks(ds, StreamPlan(100, 28))
        assert len(blocks) == 51


class TestFoldFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "folds.txt"
        p.write_text("0 2 4\n1 3 5\n")
        folds = load_fold_file(p, 6)
        assert len(folds) == 2
        assert np.array_equal(folds[0][1], [0, 2, 4])
        assert np.array_equal(folds[0][0], [1, 3, 5])

    def test_overlap_rejected(self, tmp_path):
        p = tmp_path / "folds.txt"
        p.write_text("0 1\n1 2\n")
        with pytest.raises(DataError, match="more than one fold"):
            load_fold_file(p, 3)

    def test_index_repeated_within_a_fold_names_the_line(self, tmp_path):
        p = tmp_path / "folds.txt"
        p.write_text("0 0 1\n2 3\n")
        with pytest.raises(DataError, match=r"folds.txt:1: index 0 repeated"):
            load_fold_file(p, 4)

    def test_missing_index_rejected(self, tmp_path):
        p = tmp_path / "folds.txt"
        p.write_text("0\n1\n")
        with pytest.raises(DataError, match="appears in no fold"):
            load_fold_file(p, 3)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "folds.txt"
        p.write_bytes(b"0 1\n2 \xff3\n")
        with pytest.raises(DataError, match=r"folds.txt: not UTF-8"):
            load_fold_file(p, 4)

    def test_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "folds.txt"
        p.write_text("0 1\n2 5\n")
        with pytest.raises(DataError, match="out of range"):
            load_fold_file(p, 4)


@pytest.mark.parametrize(
    "load, first, row",
    [
        (lambda p: load_csv(p, label_count=1), b"x,2.0,1\n", b"1.0,2.0,1\n"),
        (lambda p: load_sparse(p, 2, 1), b"1 x:0.5\n", b"1 1:0.5\n"),
        (lambda p: load_fold_file(p, 4), b"0 x\n", b"1 2\n"),
    ],
    ids=["csv", "sparse", "folds"],
)
def test_non_utf8_verdict_does_not_depend_on_file_size(tmp_path, load, first, row):
    # Line 1 is bad and the last byte is not UTF-8. The file is decoded
    # whole before its first line is read, so the byte decides at any size,
    # also beyond the text reader's 8 KB chunks.
    p = tmp_path / "u.txt"
    verdicts = set()
    for rows in (1, 5000):
        p.write_bytes(first + row * rows + b"\xff")
        with pytest.raises(DataError, match=r"u.txt: not UTF-8") as exc:
            load(p)
        verdicts.add(str(exc.value))
    assert len(verdicts) == 1


def test_write_csv_round_trip(tmp_path):
    ds = synthetic_stream(15, 4, 3, seed=19)
    p = tmp_path / "rt.csv"
    write_csv(p, ds)
    back = load_csv(p, label_count=3)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)

import os
import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import save_sparse, synthetic_stream, write_csv
from elmstream.data import (
    DataError,
    LabeledDataset,
    Normalizer,
    StreamPlan,
    _csv_in_bulk,
    fit_normalizer,
    kfold,
    load_csv,
    load_fold_file,
    load_sparse,
    stream_blocks,
    stream_csv,
    stream_sparse,
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

    def test_pipe_is_refused_before_it_is_read(self):
        # The UTF-8 check reads the file once and the rows a second time.
        r, w = os.pipe()
        try:
            os.write(w, b"1.0,2.0,1\n3.0,4.0,0\n")
            os.close(w)
            path = f"/dev/fd/{r}"
            with pytest.raises(DataError) as exc:
                load_csv(path, label_count=1)
            assert str(exc.value) == f"{path}: cannot be read twice, a regular file is needed"
            assert os.read(r, 100) == b"1.0,2.0,1\n3.0,4.0,0\n"  # nothing was read
        finally:
            os.close(r)

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
        width = small_learnable.n_features + small_learnable.n_labels
        ds = _csv_in_bulk(p.read_text().splitlines(), 3, width)
        assert np.array_equal(ds.features, small_learnable.features)
        assert np.array_equal(ds.labels, small_learnable.labels)
        p.write_text("1_0,2.5,1\n")
        assert _csv_in_bulk(p.read_text().splitlines(), 1, 3) is None

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_chunk_of_another_width_is_ragged(self, tmp_path, monkeypatch, chunk_rows):
        # Rows 3 and 4 are valid on their own, one field wider than rows 1
        # and 2: a chunk holding only them must not set a new width.
        monkeypatch.setattr("elmstream.data._CHUNK_ROWS", chunk_rows)
        p = tmp_path / "wider.csv"
        p.write_text("1.0,2.0,1\n3.0,4.0,0\n\n5.0,6.0,7.0,1\n8.0,9.0,1.0,0\n")
        with pytest.raises(DataError, match=r"wider.csv:4: ragged row with 4 fields, expected 3$"):
            load_csv(p, label_count=1)
        with pytest.raises(DataError, match=r"wider.csv:4: ragged row with 4 fields, expected 3$"):
            list(stream_csv(p, 1, StreamPlan(2, 1)))

    def test_label_count_beyond_the_row_width(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("1.0,2.0,1,0\n")
        with pytest.raises(DataError, match=r"wide.csv:1: row has 4 fields, need more than 4$"):
            load_csv(p, label_count=4)
        with pytest.raises(DataError, match=r"need more than 1000000000000$"):
            load_csv(p, label_count=10**12)
        with pytest.raises(DataError, match=r"^label_count must be >= 1, got 0$"):
            load_csv(p, label_count=0)

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

    @pytest.mark.parametrize("counts", [(0, 2), (3, 0)])
    def test_counts_below_one_rejected(self, tmp_path, counts):
        p = tmp_path / "toy.sparse"
        p.write_text("1 1:0.5\n")
        with pytest.raises(DataError, match="^feature_count and label_count must both be >= 1$"):
            load_sparse(p, *counts)

    # Comment, blank and no-label lines around five data rows (lines 2, 4,
    # 6, 9 and 10), so chunks of 1 to 3 rows end next to each of them.
    EDGES = ["# comment", "1,3 1:0.5 4:-2", "", "2:1.5   # no labels", "  ", "2 3:0.25",
             "# another", "", "1,2,3 1:1 2:2 3:3 4:4", "3 4:1e-3"]

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_chunks_read_as_the_whole_file(self, tmp_path, monkeypatch, chunk_rows):
        # Each text is the edge file, or it with a duplicate index in one
        # of its lines: the chunked reads give the dataset or the path:line
        # message that one read of the whole file gives.
        def outcome(read):
            try:
                ds = read()
            except DataError as exc:
                return str(exc)
            return ds.features.tobytes(), ds.labels.tobytes(), ds.labels.shape

        def streamed():
            blocks = list(stream_sparse(p, 4, 3, StreamPlan(1, chunk_rows)))
            return LabeledDataset(np.concatenate([b.features for b in blocks]),
                                  np.concatenate([b.labels for b in blocks]))

        p = tmp_path / "edges.sparse"
        faults = ["1 2:0.5 2:0.7", "1,1 2:0.5", "3:1 3:2 # no labels"]
        texts = [self.EDGES] + [
            self.EDGES[:i] + [fault] + self.EDGES[i + 1 :]
            for i in range(len(self.EDGES)) for fault in faults
        ]
        messages = set()
        for lines in texts:
            p.write_text("\n".join(lines) + "\n")
            monkeypatch.setattr("elmstream.data._CHUNK_ROWS", 1000)
            whole = outcome(lambda: load_sparse(p, 4, 3))
            monkeypatch.setattr("elmstream.data._CHUNK_ROWS", chunk_rows)
            assert outcome(lambda: load_sparse(p, 4, 3)) == whole
            assert outcome(streamed) == whole
            messages.add(whole if isinstance(whole, str) else None)
        assert f"{p}:10: duplicate label index 1" in messages
        assert f"{p}:1: duplicate feature index 3" in messages

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

    @pytest.mark.parametrize(
        "low, high",
        [(7.0, 7.0), (np.finfo(float).tiny, np.finfo(float).tiny + 4 * 5e-324)],
        ids=["constant", "span_too_small_to_invert"],
    )
    def test_constant_feature_maps_to_zero(self, low, high):
        # No finite affine map sends a half-span below 1 / 1.8e308 to
        # [-1, 1]: its inverse overflows, which the suite turns into an error.
        ds = LabeledDataset(
            features=np.array([[low, 7.0], [high, 7.0], [low, 7.0]]),
            labels=np.zeros((3, 1), dtype=np.int8),
        )
        norm = fit_normalizer(ds)
        assert np.array_equal(norm.scale, [0.0, 0.0]) and np.array_equal(norm.offset, [0.0, 0.0])
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

    @pytest.mark.parametrize(
        "lo, hi, scale, offset",
        [(-1e308, 1e308, 1e-308, 0.0), (1e308, 1.7e308, 1 / 0.35e308, -1.35 / 0.35)],
        ids=["span_past_the_largest_float", "sum_past_the_largest_float"],
    )
    def test_finite_features_near_the_largest_float(self, lo, hi, scale, offset):
        ds = LabeledDataset(
            features=np.array([[lo], [hi]]), labels=np.zeros((2, 1), dtype=np.int8)
        )
        norm = fit_normalizer(ds)
        assert norm.scale[0] == pytest.approx(scale, rel=1e-15)
        assert norm.offset[0] == pytest.approx(offset, rel=1e-15, abs=1e-15)
        assert np.allclose(norm.transform(ds.features), [[-1.0], [1.0]], atol=1e-15)

    def test_empty_range_rejected(self):
        ds = synthetic_stream(5, 2, 2, seed=6)
        with pytest.raises(DataError, match="empty"):
            fit_normalizer(ds.subset(np.arange(0)))

    @pytest.mark.parametrize(
        "scale, offset",
        [((3,), (1,)), ((1,), (3,)), ((3,), (4,)), ((1, 3), (1, 3)), ((), ())],
        ids=["one_offset", "one_scale", "sizes_differ", "two_dimensional", "scalars"],
    )
    def test_arrays_that_would_broadcast_are_refused(self, scale, offset):
        # Normalizer(np.ones(3), np.array([0.5])) would add 0.5 to every feature.
        message = "^scale and offset must be 1-D arrays of one size"
        with pytest.raises(DataError, match=message):
            Normalizer(np.ones(scale), np.full(offset, 0.5))
        # Unpickling checks the arrays as construction does.
        norm = Normalizer(np.ones(3), np.zeros(3))
        object.__setattr__(norm, "scale", np.ones(scale))
        object.__setattr__(norm, "offset", np.full(offset, 0.5))
        with pytest.raises(DataError, match=message):
            pickle.loads(pickle.dumps(norm))

    def test_transform_of_another_width_rejected(self):
        norm = fit_normalizer(synthetic_stream(5, 2, 2, seed=6))
        with pytest.raises(DataError, match="^normalizer fitted on 2 features, input has 3$"):
            norm.transform(np.zeros((4, 3)))


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
    @pytest.mark.parametrize(
        "features, labels, message",
        [
            ((3, 2), (2, 1), "features have 3 rows, labels have 2"),
            ((3,), (3, 1), "features and labels must both be 2-D"),
        ],
        ids=["row_counts", "one_dimensional"],
    )
    def test_arrays_must_be_2d_with_aligned_rows(self, features, labels, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            LabeledDataset(features=np.zeros(features), labels=np.zeros(labels, dtype=np.int8))

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

    def test_datasets_compare_by_identity(self):
        # == between dataclasses compares their fields, and == between
        # arrays has no single truth value.
        a, b = (LabeledDataset(np.ones((2, 2)), np.ones((2, 2), dtype=np.int8))
                for _ in range(2))
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2
        norm = fit_normalizer(a)
        assert norm == norm and norm != fit_normalizer(a)

    def test_block_read_earlier_is_not_in_the_blocks(self):
        blocks = stream_blocks(synthetic_stream(40, 2, 2, seed=16), StreamPlan(10, 10))
        assert blocks[0] not in blocks  # each read cuts a new dataset
        read = list(blocks)
        assert read[2] in read and read.index(read[2]) == 2

    def test_index_of_a_block_read_earlier_is_not_found(self):
        blocks = stream_blocks(synthetic_stream(40, 2, 2, seed=17), StreamPlan(10, 10))
        with pytest.raises(ValueError) as exc:
            blocks.index(blocks[1])
        assert "ambiguous" not in str(exc.value)

    def test_count_of_a_block_read_earlier_is_zero(self):
        blocks = stream_blocks(synthetic_stream(40, 2, 2, seed=18), StreamPlan(10, 10))
        assert blocks.count(blocks[1]) == 0
        assert blocks[1:].count(blocks[1]) == 0

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

    def test_fifty_one_block_configuration(self):
        # A 1500-row training split cut as init=100 plus blocks of 28
        # yields 51 processed blocks in total.
        ds = synthetic_stream(1500, 4, 3, seed=18)
        blocks = stream_blocks(ds, StreamPlan(100, 28))
        assert len(blocks) == 51


def listed_blocks(ds, plan):
    """The blocks of ``plan`` as a list, every one cut at once: the
    reference ``stream_blocks`` is checked against."""
    n = ds.n_samples
    x, y = ds.features, ds.labels
    bounds = [0, *range(plan.init_block_size, n, plan.block_size), n]
    return [LabeledDataset(x[a:z], y[a:z]) for a, z in zip(bounds, bounds[1:])]


def offset(a):
    """Where ``a``'s first element sits in the array that owns its memory."""
    return a.__array_interface__["data"][0] - a.base.__array_interface__["data"][0]


def assert_same_blocks(got, want):
    """Same rows, cut at the same place of the same arrays."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is LabeledDataset
        for name in ("features", "labels"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.shape, a.strides, a.dtype, offset(a)) == (b.shape, b.strides, b.dtype,
                                                                offset(b))
            assert np.array_equal(a, b)
            assert a.base is b.base


PLANS = {
    "remainder": (23, StreamPlan(5, 4)),
    "even": (11, StreamPlan(3, 2)),
    "single_rows": (9, StreamPlan(3, 1)),
    "init_is_every_row": (9, StreamPlan(9, 4)),
}
BOUNDS = (None, -100, -7, -2, -1, 0, 1, 2, 5, 100)
SLICES = [slice(a, b, step) for a in BOUNDS for b in BOUNDS for step in (None, 1, 2, 3, -1, -2)]


@pytest.mark.parametrize("rows, plan", PLANS.values(), ids=PLANS)
class TestLazyBlocks:
    """stream_blocks cuts a block when it is read; every form of access
    gives what a list of blocks cut at once gives."""

    def test_length_and_indices(self, rows, plan):
        ds = synthetic_stream(rows, 3, 2, seed=rows)
        got, want = stream_blocks(ds, plan), listed_blocks(ds, plan)
        assert len(got) == len(want)
        for i in range(-len(want), len(want)):
            assert_same_blocks([got[i]], [want[i]])
            assert got[i] is not got[i]  # each read is a new dataset
        for i in (-len(want) - 2, -len(want) - 1, len(want), len(want) + 1):
            with pytest.raises(IndexError):
                got[i]
        with pytest.raises(TypeError):
            got[1.0]
        assert_same_blocks(got, want)

    def test_slices(self, rows, plan):
        ds = synthetic_stream(rows, 3, 2, seed=rows)
        got, want = stream_blocks(ds, plan), listed_blocks(ds, plan)
        for sl in SLICES:
            part = got[sl]
            assert type(part) is type(got) and len(part) == len(want[sl])
            # Iterating a slice gives what indexing it gives.
            assert_same_blocks(part, [part[i] for i in range(len(part))])
            assert_same_blocks(part, want[sl])
            for inner in (slice(1, None), slice(None, None, -2), slice(-2, None)):
                assert_same_blocks(part[inner], want[sl][inner])
        assert list(reversed(got))[0].n_samples == want[-1].n_samples

    def test_writes_reach_the_dataset(self, rows, plan):
        ds = synthetic_stream(rows, 3, 2, seed=rows)
        blocks = stream_blocks(ds, plan)
        for k, block in enumerate(blocks):
            block.features[...] = k
        blocks[-1].labels[-1, -1] = 7
        x, y = ds.features, ds.labels
        numbers = np.concatenate([np.full(b.n_samples, k) for k, b in enumerate(blocks)])
        assert np.array_equal(x, np.repeat(numbers[:, None], 3, axis=1))
        assert y[-1, -1] == 7


def test_stream_blocks_holds_nothing_per_block():
    # The blocks are cut when read: the call allocates under 1 KB at 1,000
    # and at 10,000 single-row blocks. Cutting the 10,000 at once, as a
    # list, peaks at about 4 MB.
    peaks = []
    for rows in (1_000, 10_000):
        ds = synthetic_stream(rows, 3, 2, seed=19)
        tracemalloc.start()
        blocks = stream_blocks(ds, StreamPlan(1, 1))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert len(blocks) == rows
    assert max(peaks) < 1024


class TestFoldFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "folds.txt"
        p.write_text("0 2 4\n1 3 5\n")
        folds = load_fold_file(p, 6)
        assert len(folds) == 2
        assert np.array_equal(folds[0][1], [0, 2, 4])
        assert np.array_equal(folds[0][0], [1, 3, 5])

    def test_blank_lines_between_folds_are_skipped(self, tmp_path):
        p = tmp_path / "folds.txt"
        p.write_text("0 2 4\n\n \t\n1 3 5")
        assert [test.tolist() for _, test in load_fold_file(p, 6)] == [[0, 2, 4], [1, 3, 5]]

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
        "text, message",
        [
            ("0 1\n2 x 3\n", "folds.txt:2: fold indices must be integers"),
            ("# 0 1\n2 3\n", "folds.txt:1: fold indices must be integers"),
            ("0 1 2 3\n", "folds.txt: need at least two folds"),
            ("0 1\n2 4\n", "folds.txt:2: fold index out of range 0..3"),
            ("0 1\n2 99999999999999999999\n", "folds.txt:2: fold index out of range 0..3"),
            ("0 1\n2 -99999999999999999999\n", "folds.txt:2: fold index out of range 0..3"),
        ],
        ids=["non_integer", "hash_is_not_a_comment", "single_fold", "index_is_the_row_count",
             "index_past_int64", "index_below_int64"],
    )
    def test_fault_text(self, tmp_path, text, message):
        p = tmp_path / "folds.txt"
        p.write_text(text)
        with pytest.raises(DataError) as exc:
            load_fold_file(p, 4)
        assert str(exc.value) == f"{tmp_path}/{message}"


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


@pytest.mark.parametrize(
    "stream, text",
    [(lambda p: stream_csv(p, 1, StreamPlan(2, 1)), "1.0,1\n2.0,0\n3.0,1\nx,1\n5.0,0\n"),
     (lambda p: stream_sparse(p, 1, 1, StreamPlan(2, 1)),
      "1 1:1.0\n1:2.0\n1 1:3.0\n1 x:4.0\n1:5.0\n")],
    ids=["csv", "sparse"],
)
def test_stream_reads_one_block_ahead(tmp_path, stream, text):
    # Row 4 is bad and sits in the third block: the first two blocks are
    # handed out before it is read.
    p = tmp_path / "ahead.txt"
    p.write_text(text)
    blocks = stream(p)
    assert [next(blocks).n_samples, next(blocks).n_samples] == [2, 1]
    with pytest.raises(DataError, match=r"ahead.txt:4: "):
        next(blocks)


def test_write_csv_round_trip(tmp_path):
    ds = synthetic_stream(15, 4, 3, seed=19)
    p = tmp_path / "rt.csv"
    write_csv(p, ds)
    back = load_csv(p, label_count=3)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)

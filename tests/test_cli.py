import argparse
import functools
import gc
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import command_flags, save_sparse, synthetic_stream, write_csv
from elmstream import cli
from elmstream.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    run_cv,
    run_eval,
    run_train,
)
from elmstream.data import (
    DataError,
    StreamPlan,
    fit_normalizer,
    load_csv,
    load_sparse,
    stream_blocks,
)
from elmstream.labels import calibrate_threshold, to_bipolar
from elmstream.model import (
    ACTIVATIONS,
    HiddenLayer,
    init_hidden,
    init_phase,
    load_model,
    predict_raw,
    save_model,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env(**variables):
    """The environment of a child Python that imports this tree's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


@pytest.fixture
def interpolating_csv(tmp_path):
    """Six distinct rows plus two duplicates: with hidden=6 and
    init-block=6 the duplicates are zero-residual updates, so the model
    interpolates the training file exactly."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (6, 4))
    y = rng.integers(0, 2, (6, 3))
    xs = np.vstack([x, x[:2]])
    ys = np.vstack([y, y[:2]])
    path = tmp_path / "toy.csv"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(8):
            feats = ",".join(repr(float(v)) for v in xs[i])
            labs = ",".join(str(int(v)) for v in ys[i])
            fh.write(f"{feats},{labs}\n")
    return path


def without_times(text):
    """The lines of a command's output without its timing values."""
    return [
        " ".join(p for p in line.split() if "time" not in p)
        for line in text.splitlines()
        if not line.startswith(("train_time", "test_time"))
    ]


def train_args(data, out, **over):
    base = {
        "labels": "3",
        "hidden": "6",
        "init-block": "6",
        "block": "2",
        "seed": "100",
    }
    base.update(over)
    argv = ["train", "--data", str(data), "--out", str(out)]
    for key, value in base.items():
        argv += [f"--{key}", value]
    return argv


class TestTrainCommand:
    def test_writes_model_and_reports(self, interpolating_csv, tmp_path, capsys):
        out = tmp_path / "model.txt"
        assert main(train_args(interpolating_csv, out)) == EXIT_OK
        captured = capsys.readouterr().out
        assert "training time:" in captured
        assert "blocks: 2" in captured
        assert out.exists()

    def test_determinism_byte_identical_models(self, interpolating_csv, tmp_path):
        out1 = tmp_path / "m1.txt"
        out2 = tmp_path / "m2.txt"
        assert main(train_args(interpolating_csv, out1)) == EXIT_OK
        assert main(train_args(interpolating_csv, out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_fresh_processes_with_one_blas_thread_write_identical_bytes(self, tmp_path):
        # The README's byte-identity promise holds for one numpy/BLAS build
        # and one BLAS thread count. H=300 with blocks of 30 gives products
        # large enough for OpenBLAS to split across threads when it may.
        data = tmp_path / "train.csv"
        write_csv(data, synthetic_stream(420, 20, 5, seed=31))
        env = child_env(OPENBLAS_NUM_THREADS="1")
        outs = [tmp_path / "m1.txt", tmp_path / "m2.txt"]
        for out in outs:
            argv = [sys.executable, "-m", "elmstream.cli", "train", "--data", str(data),
                    "--labels", "5", "--hidden", "300", "--init-block", "330",
                    "--block", "30", "--seed", "8", "--out", str(out)]
            subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_underdetermined_init_exits_numeric(self, interpolating_csv, tmp_path, capsys):
        out = tmp_path / "model.txt"
        code = main(train_args(interpolating_csv, out, **{"hidden": "7"}))
        assert code == EXIT_NUMERIC
        assert "singular" in capsys.readouterr().err.lower()

    def test_missing_hidden_is_usage_error(self, interpolating_csv, tmp_path, capsys):
        code = main(
            ["train", "--data", str(interpolating_csv), "--out", str(tmp_path / "m.txt"),
             "--labels", "3", "--init-block", "6", "--block", "2"]
        )
        assert code == EXIT_USAGE
        assert "--hidden" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(train_args(tmp_path / "nope.csv", tmp_path / "m.txt"))
        assert code == EXIT_DATA

    def test_recalibrate_flag_runs(self, interpolating_csv, tmp_path):
        out = tmp_path / "model.txt"
        argv = train_args(interpolating_csv, out) + ["--recalibrate"]
        assert main(argv) == EXIT_OK

    def test_threshold_is_calibrated_on_the_init_block_or_the_last_block(self, tmp_path):
        # 100 rows: an init block of 40, then 6 blocks of 10. The written
        # threshold is the init model's, calibrated on the init block;
        # with --recalibrate it is the final model's, on the last block.
        ds = synthetic_stream(100, 5, 4, seed=21)
        data = tmp_path / "d.csv"
        write_csv(data, ds)
        x0, y0 = ds.features[:40], ds.labels[:40]
        norm = fit_normalizer(ds.subset(np.arange(40)))
        model = init_phase(init_hidden(5, 12, "sigmoid", 9), norm.transform(x0), to_bipolar(y0))
        expected = calibrate_threshold(predict_raw(model, norm.transform(x0)), y0).threshold
        thresholds = []
        for extra in ([], ["--recalibrate"]):
            out = tmp_path / "m.txt"
            argv = train_args(data, out, labels="4", hidden="12", seed="9",
                              **{"init-block": "40", "block": "10"})
            assert main(argv + extra) == EXIT_OK
            trained, trained_norm = load_model(out)
            thresholds.append(trained.threshold)
        assert thresholds[0] == expected
        last = predict_raw(trained, trained_norm.transform(ds.features[90:]))
        assert thresholds[1] == calibrate_threshold(last, ds.labels[90:]).threshold
        assert len(set(thresholds)) == 2


def csv_text(ds, header=False, seed=0):
    """``ds`` as CSV text whose rows end in LF, CRLF, lone CR or a blank
    line, drawn per row, so block boundaries fall on every kind of end."""
    ends = ["\n", "\r\n", "\r", "\n\n", "\r\n \t\r\n", "\r\r"]
    rng = np.random.default_rng(seed)
    width = ds.n_features + ds.n_labels
    lines = [",".join(f"c{j}" for j in range(width)) + "\n\n"] if header else []
    for x, y in zip(ds.features, ds.labels):
        row = ",".join([*(repr(float(v)) for v in x), *(str(int(v)) for v in y)])
        lines.append(row + ends[rng.integers(len(ends))])
    return "".join(lines)


def write_stream(tmp_path, fmt, ds, header=False):
    """``ds`` written as a ``fmt`` file: (path, RunConfig keys that read it).
    Sparse rows end in LF, CRLF, a comment or blank lines, drawn per row,
    as ``csv_text`` draws CSV line ends."""
    if fmt == "csv":
        data = tmp_path / "d.csv"
        data.write_bytes(csv_text(ds, header).encode())
        return data, {"labels": ds.n_labels, "header": header}
    data = tmp_path / "d.sparse"
    save_sparse(data, ds)
    ends = ["\n", "\r\n", " # note\n", "\n\n", "\n# comment line\n", "\n \t\n"]
    rng = np.random.default_rng(0)
    rows = data.read_text(encoding="utf-8").splitlines()
    data.write_bytes("".join(row + ends[rng.integers(len(ends))] for row in rows).encode())
    return data, {"labels": ds.n_labels, "format": "sparse", "features": ds.n_features}


def flags(keys):
    """``train_args`` overrides for the RunConfig ``keys`` of ``write_stream``."""
    return {k: str(v) for k, v in keys.items() if k != "header"}


class TestStreamedTrain:
    """``train`` reads an unshuffled file of either format one block at a time."""

    @pytest.mark.parametrize(
        "fmt, rows, init_block, block, header",
        [("csv", 50, 12, 5, False), ("csv", 50, 12, 5, True), ("csv", 48, 12, 6, True),
         ("csv", 50, 50, 7, True), ("csv", 31, 30, 1, False), ("sparse", 50, 12, 5, False),
         ("sparse", 48, 12, 6, False), ("sparse", 50, 50, 7, False),
         ("sparse", 31, 30, 1, False)],
        ids=["remainder", "remainder_header", "even_header", "init_is_every_row",
             "single_rows", "sparse_remainder", "sparse_even", "sparse_init_is_every_row",
             "sparse_single_rows"],
    )
    def test_writes_the_model_of_the_loaded_stream(self, tmp_path, fmt, rows, init_block,
                                                   block, header):
        data, keys = write_stream(tmp_path, fmt, synthetic_stream(rows, 4, 3, seed=rows), header)
        cfg = RunConfig(command="train", data=str(data), **keys, hidden=8,
                        init_block=init_block, block=block, seed=5, recalibrate=True)
        streamed = run_train(cfg)
        plan = StreamPlan(init_block, block)
        ds = load_csv(data, 3, header) if fmt == "csv" else load_sparse(data, 4, 3)
        loaded = cli._train_streaming(stream_blocks(ds, plan), cfg, 5)
        paths = [tmp_path / "streamed.txt", tmp_path / "loaded.txt"]
        for path, outcome in zip(paths, (streamed, loaded)):
            save_model(path, outcome.model, outcome.normalizer)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert streamed.block_rows == loaded.block_rows

    @pytest.mark.parametrize("rows", [7, 11, 13, 14])
    def test_infeasible_plan_text(self, tmp_path, capsys, rows):
        # 7 rows end inside the init block of 10; 11 to 13 leave 1 to 3
        # rows after it, short of a block of 4. 14 rows are feasible.
        for fmt in ("csv", "sparse"):
            data, keys = write_stream(tmp_path, fmt, synthetic_stream(rows, 2, 3, seed=4))
            out = tmp_path / f"{fmt}.model"
            code = main(train_args(data, out, **{"init-block": "10", "block": "4"},
                                   **flags(keys)))
            if rows == 14:
                assert code == EXIT_OK
                continue
            assert code == EXIT_DATA
            assert capsys.readouterr().err == (
                f"data error: infeasible plan: init block 10 plus block 4 exceeds {rows} rows\n"
            )
            assert not out.exists()

    def test_fault_in_the_last_row_writes_no_model(self, tmp_path, capsys):
        faults = {"csv": ("0.5,0.5,1,0,2", "label field '2' is not 0 or 1"),
                  "sparse": ("1,3,1 1:0.5", "duplicate label index 1")}
        for fmt, (row, message) in faults.items():
            data, keys = write_stream(tmp_path, fmt, synthetic_stream(40, 2, 3, seed=4))
            with open(data, "a", encoding="utf-8") as fh:
                fh.write(row + "\n")
            lineno = len(data.read_text(encoding="utf-8").splitlines())
            out = tmp_path / "m.txt"
            assert main(train_args(data, out, **{"init-block": "10", "block": "4"},
                                   **flags(keys))) == EXIT_DATA
            assert capsys.readouterr().err == f"data error: {data}:{lineno}: {message}\n"
            assert not out.exists()

    def test_bad_byte_at_the_end_stops_before_the_first_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "init_phase", lambda *args: pytest.fail("a block was learned"))
        for fmt in ("csv", "sparse"):
            data, keys = write_stream(tmp_path, fmt, synthetic_stream(40, 2, 3, seed=4))
            with open(data, "ab") as fh:
                fh.write(b"\xff\n")
            with pytest.raises(DataError,
                               match=rf"{data.name}: not UTF-8 text \(invalid start byte\)"):
                run_train(RunConfig(command="train", data=str(data), **keys, hidden=6,
                                    init_block=10, block=4))

    def test_peak_memory_does_not_grow_with_the_stream(self, tmp_path):
        # Loading the whole file first made this peak grow about 4x from
        # 2,000 to 8,000 rows. Read one block at a time, it stays flat in
        # either format.
        for fmt in ("csv", "sparse"):
            peaks = []
            for rows in (2000, 8000):
                data, keys = write_stream(tmp_path, fmt, synthetic_stream(rows, 20, 5, seed=6))
                cfg = RunConfig(command="train", data=str(data), **keys, hidden=40,
                                init_block=100, block=10)
                tracemalloc.start()
                try:
                    run_train(cfg)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= 1.25 * peaks[0], (fmt, peaks)


class TestShuffleSeed:
    """--shuffle-seed S streams the rows in ``default_rng(S).permutation(n)`` order."""

    @pytest.mark.parametrize("fmt", ["csv", "sparse"])
    def test_train_learns_the_permuted_file(self, tmp_path, fmt):
        ds = synthetic_stream(40, 4, 3, seed=65)
        perm = np.random.default_rng(7).permutation(ds.n_samples)
        data, keys = write_stream(tmp_path, fmt, ds)
        (tmp_path / "permuted").mkdir()
        permuted, _ = write_stream(tmp_path / "permuted", fmt, ds.subset(perm))
        models = {}
        for name, path, over in [("shuffled", data, {"shuffle-seed": "7"}),
                                 ("permuted", permuted, {}), ("unshuffled", data, {})]:
            models[name] = tmp_path / f"{name}.model"
            argv = train_args(path, models[name], **{"init-block": "10", "block": "4"},
                              **flags(keys), **over)
            assert main(argv) == EXIT_OK
        shuffled, permuted, unshuffled = (models[k].read_bytes() for k in models)
        assert shuffled == permuted
        assert shuffled != unshuffled

    def test_cv_report_repeats(self, tmp_path, capsys):
        data = tmp_path / "cv.csv"
        write_csv(data, synthetic_stream(60, 4, 3, seed=66))
        argv = ["cv", "--data", str(data), "--labels", "3", "--folds", "3",
                "--hidden", "8", "--init-block", "10", "--block", "5", "--shuffle-seed", "4"]
        reports = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            reports.append(without_times(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert len(reports[0]) > 3


class TestEvalCommand:
    def test_perfect_interpolation_gives_zero_hamming(
        self, interpolating_csv, tmp_path, capsys
    ):
        model_path = tmp_path / "model.txt"
        assert main(train_args(interpolating_csv, model_path)) == EXIT_OK
        metrics_path = tmp_path / "metrics.tsv"
        code = main(
            ["eval", "--model", str(model_path), "--data", str(interpolating_csv),
             "--labels", "3", "--out", str(metrics_path)]
        )
        assert code == EXIT_OK
        lines = metrics_path.read_text().splitlines()
        values = dict(line.split("\t") for line in lines)
        assert values["hamming_loss"] == "0.000000"
        assert values["accuracy"] == "1.000000"

    def test_metrics_file_matches_in_process_report(
        self, interpolating_csv, tmp_path
    ):
        model_path = tmp_path / "model.txt"
        main(train_args(interpolating_csv, model_path))
        metrics_path = tmp_path / "metrics.tsv"
        main(["eval", "--model", str(model_path), "--data", str(interpolating_csv),
              "--labels", "3", "--out", str(metrics_path)])
        cfg = RunConfig(command="eval", model=str(model_path),
                        data=str(interpolating_csv), labels=3)
        report = run_eval(cfg)
        values = dict(line.split("\t") for line in metrics_path.read_text().splitlines())
        for name in ("hamming_loss", "accuracy", "precision", "recall", "f1",
                     "empty_prediction_rate"):
            assert values[name] == f"{getattr(report, name):.6f}"

    def test_weights_that_overflow_exit_numeric_with_the_check_text(
        self, interpolating_csv, tmp_path, capsys
    ):
        # Finite weights of 1e308 load, but h beta overflows on every row.
        model_path = tmp_path / "model.txt"
        assert main(train_args(interpolating_csv, model_path)) == EXIT_OK
        model, norm = load_model(model_path)
        model.beta = np.full_like(model.beta, 1e308)
        model.hidden = HiddenLayer(np.ones_like(model.hidden.weights), model.hidden.biases,
                                   "hardlim")
        save_model(model_path, model, norm)
        capsys.readouterr()
        code = main(["eval", "--model", str(model_path), "--data", str(interpolating_csv),
                     "--labels", "3"])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numerical error: raw outputs contains non-finite entries\n"

    def test_test_time_is_the_prediction_wall(self, interpolating_csv, tmp_path, monkeypatch):
        model = tmp_path / "model.txt"
        assert main(train_args(interpolating_csv, model)) == EXIT_OK
        ticks = iter([100.0, 100.25])
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
        cfg = RunConfig(command="eval", model=str(model), data=str(interpolating_csv), labels=3)
        assert run_eval(cfg).test_time == 0.25

    def test_dimension_mismatch_is_data_error(self, interpolating_csv, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main(train_args(interpolating_csv, model_path))
        other = tmp_path / "other.csv"
        write_csv(other, synthetic_stream(10, 7, 3, seed=50))
        code = main(["eval", "--model", str(model_path), "--data", str(other),
                     "--labels", "3"])
        assert code == EXIT_DATA
        assert "features" in capsys.readouterr().err

    def test_label_count_mismatch_is_data_error(self, interpolating_csv, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main(train_args(interpolating_csv, model_path))
        other = tmp_path / "other.csv"
        write_csv(other, synthetic_stream(10, 4, 2, seed=51))
        code = main(["eval", "--model", str(model_path), "--data", str(other),
                     "--labels", "2"])
        assert code == EXIT_DATA
        assert "dataset has 2 labels, model expects 3" in capsys.readouterr().err


class TestCvCommand:
    def test_minimal_k_on_four_rows(self, tmp_path, capsys):
        ds = synthetic_stream(4, 3, 2, seed=60)
        data = tmp_path / "tiny.csv"
        write_csv(data, ds)
        code = main(["cv", "--data", str(data), "--labels", "2", "--folds", "2",
                     "--hidden", "1", "--init-block", "1", "--block", "1",
                     "--seed", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "fold 1/2" in out and "fold 2/2" in out
        assert "±" in out

    def test_identical_seed_reproduces_numbers(self, tmp_path, capsys):
        ds = synthetic_stream(60, 4, 3, seed=61)
        data = tmp_path / "cv.csv"
        write_csv(data, ds)
        argv = ["cv", "--data", str(data), "--labels", "3", "--folds", "3",
                "--hidden", "8", "--init-block", "10", "--block", "5", "--seed", "9"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert without_times(first) == without_times(second)

    def test_fold_file_input(self, tmp_path, capsys):
        ds = synthetic_stream(12, 3, 2, seed=62)
        data = tmp_path / "cv.csv"
        write_csv(data, ds)
        fold_file = tmp_path / "folds.txt"
        fold_file.write_text("0 1 2 3 4 5\n6 7 8 9 10 11\n")
        code = main(["cv", "--data", str(data), "--labels", "2",
                     "--fold-file", str(fold_file), "--hidden", "2",
                     "--init-block", "3", "--block", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "fold 1/2" in out and "fold 2/2" in out and "fold 3/" not in out

    def test_folds_and_fold_file_together_are_a_usage_error(self, tmp_path, monkeypatch,
                                                             capsys):
        # Either may come from a flag or from the config file; nothing is read.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "both.cfg").write_text("folds 5\nfold_file folds.txt\n")
        (tmp_path / "folds.cfg").write_text("folds 5\n")
        cv = ["cv", "--data", "d.csv", "--labels", "2", "--hidden", "2", "--init-block", "3",
              "--block", "3"]
        for extra in (["--folds", "5", "--fold-file", "folds.txt"], ["--config", "both.cfg"],
                      ["--config", "folds.cfg", "--fold-file", "folds.txt"]):
            assert main(cv + extra) == EXIT_USAGE
            assert capsys.readouterr().err == (
                "usage error: --folds and --fold-file are both given; 'cv' takes one\n"
            )
        # Other commands ignore both keys.
        RunConfig(command="train", data="d.csv", labels=2, hidden=1, init_block=1, block=1,
                  folds=5, fold_file="folds.txt")

    def test_fold_index_past_int64_is_a_data_error(self, tmp_path, capsys):
        ds = synthetic_stream(4, 3, 2, seed=62)
        data = tmp_path / "cv.csv"
        write_csv(data, ds)
        fold_file = tmp_path / "folds.txt"
        fold_file.write_text("0 1\n2 99999999999999999999\n")
        code = main(["cv", "--data", str(data), "--labels", "2",
                     "--fold-file", str(fold_file), "--hidden", "2",
                     "--init-block", "1", "--block", "1"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {fold_file}:2: fold index out of range 0..3\n"
        )

    def test_report_file(self, tmp_path):
        ds = synthetic_stream(40, 3, 2, seed=63)
        data = tmp_path / "cv.csv"
        write_csv(data, ds)
        out = tmp_path / "cv.tsv"
        code = main(["cv", "--data", str(data), "--labels", "2", "--folds", "2",
                     "--hidden", "4", "--init-block", "8", "--block", "4",
                     "--out", str(out)])
        assert code == EXIT_OK
        values = dict(line.split("\t") for line in out.read_text().splitlines())
        assert values["folds"] == "2"
        assert "hamming_loss_mean" in values and "hamming_loss_std" in values
        assert "fold0_hamming_loss" in values and "fold1_hamming_loss" in values

    def test_cv_outcome_mean_std(self):
        ds = synthetic_stream(60, 4, 3, seed=64)
        import tempfile, os

        with tempfile.TemporaryDirectory() as d:
            data = os.path.join(d, "cv.csv")
            write_csv(data, ds)
            cfg = RunConfig(command="cv", data=data, labels=3, folds=3,
                            hidden=8, init_block=10, block=5, seed=1)
            outcome = run_cv(cfg)
        values = [r.hamming_loss for r in outcome.reports]
        assert outcome.mean("hamming_loss") == pytest.approx(np.mean(values))
        assert outcome.std("hamming_loss") == pytest.approx(np.std(values, ddof=1))


class TestBenchCommand:
    def bench_cfg(self, tmp_path, n=100, init_block=20, block=10, **over):
        ds = synthetic_stream(n, 5, 3, seed=70)
        data = tmp_path / "bench.csv"
        write_csv(data, ds)
        cfg = RunConfig(command="bench", data=str(data), labels=3, hidden=10,
                        init_block=init_block, block=block, seed=2)
        for key, value in over.items():
            setattr(cfg, key, value)
        return cfg

    def test_avg_is_total_over_blocks(self, tmp_path):
        outcome = run_train(self.bench_cfg(tmp_path))
        assert outcome.blocks == 9
        assert outcome.avg_block_time == pytest.approx(
            outcome.train_time / outcome.blocks, rel=1e-12
        )

    def test_train_time_is_the_sum_of_block_times(self, tmp_path):
        outcome = run_train(self.bench_cfg(tmp_path))
        assert outcome.train_time == sum(outcome.block_times)

    def test_avg_close_to_mean_of_block_timers(self, tmp_path):
        outcome = run_train(self.bench_cfg(tmp_path))
        # train_time sums the per-block timers: equal up to rounding
        assert outcome.avg_block_time == pytest.approx(
            float(np.mean(outcome.block_times)), abs=2e-3
        )

    def test_single_block_dataset_avg_equals_total(self, tmp_path):
        outcome = run_train(self.bench_cfg(tmp_path, n=20, init_block=20, block=10))
        assert outcome.blocks == 1
        assert outcome.avg_block_time == outcome.train_time

    def test_bench_trains_the_model_train_writes(self, tmp_path, monkeypatch):
        ds = synthetic_stream(100, 5, 3, seed=70)
        data = tmp_path / "bench.csv"
        write_csv(data, ds)
        argv = ["--data", str(data), "--labels", "3", "--hidden", "10",
                "--init-block", "20", "--block", "10", "--seed", "2"]
        outcomes = []

        def recording_run_train(cfg):
            outcomes.append(run_train(cfg))
            return outcomes[-1]

        monkeypatch.setattr(cli, "run_train", recording_run_train)
        model_path = tmp_path / "model.txt"
        assert main(["bench", *argv, "--recalibrate"]) == EXIT_OK
        assert main(["train", *argv, "--recalibrate", "--out", str(model_path)]) == EXIT_OK
        assert main(["bench", *argv]) == EXIT_OK
        bench, _, plain = outcomes
        trained, _ = load_model(model_path)
        assert np.array_equal(bench.model.beta, trained.beta)
        assert bench.model.threshold == trained.threshold
        assert plain.model.threshold != trained.threshold
        assert len(bench.block_times) == bench.model.blocks_seen
        assert sum(bench.block_rows) == ds.n_samples

    def test_command_output_and_report_file(self, tmp_path, capsys):
        ds = synthetic_stream(60, 4, 2, seed=71)
        data = tmp_path / "bench.csv"
        write_csv(data, ds)
        out = tmp_path / "bench.tsv"
        code = main(["bench", "--data", str(data), "--labels", "2", "--hidden", "6",
                     "--init-block", "12", "--block", "8", "--out", str(out),
                     "--arrival-interval", "10.0"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        table = text.splitlines()[1:8]
        assert [line.split()[:2] for line in table] == [["1", "12"]] + [
            [str(i), "8"] for i in range(2, 8)
        ]
        assert "avg time/block:" in text
        assert "real-time at 10.000000 s/block arrival: yes" in text
        values = dict(line.split("\t") for line in out.read_text().splitlines())
        assert values["blocks"] == "7"
        assert float(values["avg_time_per_block"]) >= 0.0


    def test_real_time_needs_a_mean_block_time_under_the_interval(self, monkeypatch, capsys):
        outcome = cli.TrainOutcome(model=None, normalizer=None, block_rows=[4, 2],
                                   block_times=[0.25, 0.75])
        monkeypatch.setattr(cli, "run_train", lambda cfg: outcome)
        argv = ["bench", "--data", "d.csv", "--labels", "1", "--hidden", "1",
                "--init-block", "4", "--block", "2", "--arrival-interval"]
        for interval, verdict in (("0.5", "no"), ("0.5000001", "yes")):
            assert main([*argv, interval]) == EXIT_OK
            assert f"real-time at {float(interval):.6f} s/block arrival: {verdict}\n" in (
                capsys.readouterr().out
            )


class TestConfigFile:
    def test_flags_override_config(self, interpolating_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "labels 3\nhidden 6\ninit_block 6\nblock 2\nseed 100\n"
            "# comment\nactivation sigmoid\n"
        )
        out1 = tmp_path / "m1.txt"
        out2 = tmp_path / "m2.txt"
        assert main(["train", "--config", str(config), "--data", str(interpolating_csv),
                     "--out", str(out1)]) == EXIT_OK
        assert main(["train", "--config", str(config), "--data", str(interpolating_csv),
                     "--out", str(out2), "--seed", "101"]) == EXIT_OK
        model1, _ = load_model(out1)
        model2, _ = load_model(out2)
        assert not np.array_equal(model1.hidden.weights, model2.hidden.weights)

    def test_value_keeps_its_inner_whitespace(self, interpolating_csv, tmp_path):
        config = tmp_path / "run.cfg"
        out = tmp_path / "my model.txt"
        config.write_text(f"out   {out}  # the path holds a space\n")
        assert main(["train", "--config", str(config), "--data", str(interpolating_csv),
                     "--labels", "3", "--hidden", "6", "--init-block", "6",
                     "--block", "2"]) == EXIT_OK
        assert out.exists()

    def test_unknown_config_key_is_usage_error(self, interpolating_csv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("labls 3\n")
        code = main(["train", "--config", str(config), "--data", str(interpolating_csv),
                     "--out", str(tmp_path / "m.txt")])
        assert code == EXIT_USAGE
        assert "labls" in capsys.readouterr().err

    def test_config_not_utf8_is_usage_error(self, interpolating_csv, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"hidden 6\nlabels \xff3\n")
        code = main(["train", "--config", str(config), "--data", str(interpolating_csv),
                     "--out", str(tmp_path / "m.txt")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: {config}: not UTF-8 text (invalid start byte)\n"
        )

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"hidden 5\n# wider\n\nhidden 7\n",
             "{}:4: config key 'hidden' already set at line 1"),
            (b"labels 3\nhidden\n", "{}:2: expected 'key value'"),
            (None, "cannot read config file: [Errno 2] No such file or directory: '{}'"),
        ],
        ids=["key_set_twice", "key_without_value", "missing_file"],
    )
    def test_config_fault_text(self, interpolating_csv, tmp_path, capsys, content, message):
        config = tmp_path / "run.cfg"
        if content is not None:
            config.write_bytes(content)
        model_path = tmp_path / "m.txt"
        code = main(["train", "--config", str(config), "--data", str(interpolating_csv),
                     "--labels", "3", "--init-block", "6", "--block", "2",
                     "--out", str(model_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message.format(config)}\n"
        assert not model_path.exists()

    def test_bad_boolean_rejected(self, interpolating_csv, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("recalibrate maybe\n")
        assert main(["train", "--config", str(config), "--data", str(interpolating_csv),
                     "--out", str(tmp_path / "m.txt")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: --recalibrate must be true or false, got 'maybe'\n"
        )


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_flag_value(self, capsys):
        for flag, value, kind in [("--hidden", "lots", "an integer"), ("--ridge", "x", "a number")]:
            assert main(["train", flag, value]) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"usage error: {flag} must be {kind}, got {value!r}\n"
            )

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("train", "hidden", "0"),
            ("train", "init_block", "0"),
            ("train", "block", "0"),
            ("train", "labels", "0"),
            ("train", "features", "0"),
            ("train", "ridge", "-1"),
            ("train", "ridge", "nan"),
            ("train", "ridge", "inf"),
            ("train", "seed", "-1"),
            ("train", "shuffle_seed", "-3"),
            ("train", "format", "xml"),
            ("train", "activation", "relu"),
            ("train", "hidden", "lots"),
            ("train", "ridge", "x"),
            ("cv", "folds", "1"),
            ("cv", "seed", "-1"),
            ("bench", "arrival_interval", "-1"),
            ("bench", "arrival_interval", "0"),
            ("bench", "arrival_interval", "nan"),
            ("bench", "arrival_interval", "soon"),
        ],
    )
    def test_out_of_range_value_is_usage_error(
        self, interpolating_csv, tmp_path, capsys, command, key, value, source
    ):
        settings = {"labels": "3", "hidden": "6", "init_block": "6", "block": "2"}
        settings.pop(key, None)
        argv = [command, "--data", str(interpolating_csv), "--out", str(tmp_path / "out")]
        if source == "flag":
            settings[key] = value
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} {value}\n")
            argv += ["--config", str(config)]
        for name, text in settings.items():
            argv += ["--" + name.replace("_", "-"), text]
        assert main(argv) == EXIT_USAGE
        flag = "--" + key.replace("_", "-")
        assert f"usage error: {flag} must be" in capsys.readouterr().err

    def test_help_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        lines = capsys.readouterr().out.splitlines()
        format_line = next(l for l in lines if l.strip().startswith("--format"))
        activation_line = next(l for l in lines if l.strip().startswith("--activation"))
        assert "csv" in format_line and "sparse" in format_line
        for name in ACTIVATIONS:
            assert name in activation_line

    def test_eval_takes_no_seed(self, capsys):
        assert main(["eval", "--seed", "3"]) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        assert "--seed" not in capsys.readouterr().out

    def test_each_command_has_its_flags(self):
        dataset = ["--config", "--data", "--format", "--header", "--labels", "--features"]
        training = ["--seed", "--out", "--hidden", "--activation", "--ridge", "--init-block",
                    "--block", "--shuffle-seed", "--recalibrate"]
        assert command_flags() == {
            "train": dataset + training,
            "eval": dataset + ["--out", "--model"],
            "cv": dataset + training + ["--folds", "--fold-file"],
            "bench": dataset + training + ["--arrival-interval"],
        }

    def test_every_config_key_is_a_flag_and_every_flag_a_key(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        keys = {f.name for f in fields(RunConfig)} - {"command"}
        flagged = set()
        for command, p in sub.choices.items():
            for action in p._actions:
                flags = [o for o in action.option_strings if o.startswith("--")]
                if flags in (["--help"], ["--config"]):
                    continue
                assert flags == ["--" + action.dest.replace("_", "-")], (command, flags)
                assert action.dest in keys, (command, action.dest)
                flagged.add(action.dest)
        assert flagged == keys

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["train", "--data", "nope.csv", "--labels", "2", "--init-block", "1",
              "--block", "1", "--out", "m"], "hidden"),
            (["train", "--data", "nope.csv", "--labels", "2", "--init-block", "1",
              "--block", "1", "--out", "m", "--shuffle-seed", "3"], "hidden"),
            (["train", "--data", "nope.csv", "--labels", "2", "--init-block", "1",
              "--block", "1", "--out", "m", "--format", "sparse", "--features", "1"], "hidden"),
            (["train", "--data", "nope.csv", "--labels", "2", "--hidden", "1",
              "--init-block", "1", "--block", "1", "--out", "m", "--format", "sparse"],
             "features"),
            (["train", "--labels", "2"], "data"),
            (["eval", "--model", "nope.model", "--data", "d.csv"], "labels"),
            (["eval", "--data", "nope.csv", "--labels", "2"], "model"),
            (["cv", "--data", "nope.csv", "--labels", "2", "--hidden", "3",
              "--init-block", "1", "--block", "1"], "folds"),
            (["bench", "--data", "nope.csv", "--labels", "2", "--hidden", "3",
              "--block", "1"], "init_block"),
        ],
    )
    def test_missing_key_is_reported_before_any_file_is_read(
        self, tmp_path, monkeypatch, capsys, argv, key
    ):
        monkeypatch.chdir(tmp_path)  # no named file exists here
        assert main(argv) == EXIT_USAGE
        flag = "--" + key.replace("_", "-")
        assert capsys.readouterr().err == f"usage error: {flag} is required for '{argv[0]}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_run_config_checks_itself(self):
        with pytest.raises(cli.UsageError, match="^--hidden is required for 'train'$"):
            RunConfig(command="train", data="nope.csv", labels=2, init_block=1, block=1)
        with pytest.raises(cli.UsageError, match="^--block must be >= 1, got 0$"):
            RunConfig(command="train", block=0)
        with pytest.raises(cli.UsageError, match="^unknown command 'trian'$"):
            RunConfig(command="trian", data="d.csv", labels=2)
        # A key that is not a flag of the command is not required by it.
        RunConfig(command="eval", data="d.csv", labels=2, model="m")
        RunConfig(command="cv", data="d.csv", labels=2, hidden=1, init_block=1, block=1,
                  fold_file="f")

    def test_sparse_requires_features(self, tmp_path):
        p = tmp_path / "d.sparse"
        p.write_text("1 1:0.5\n")
        code = main(["train", "--data", str(p), "--format", "sparse", "--labels", "2",
                     "--hidden", "1", "--init-block", "1", "--block", "1",
                     "--out", str(tmp_path / "m.txt")])
        assert code == EXIT_USAGE


class TestProcessEntry:
    """``python -m elmstream.cli`` and the ``elmstream`` script run
    ``cli.entry``: it freezes the import-time heap out of the garbage
    collector, then exits with ``main``'s code. ``main`` alone leaves the
    collector as it found it."""

    @pytest.mark.parametrize(
        "case, code",
        [("train", EXIT_OK), ("no_hidden", EXIT_USAGE), ("ragged_csv", EXIT_DATA),
         ("singular_init", EXIT_NUMERIC)],
    )
    def test_child_exits_with_the_code_and_all_output_of_main(
        self, interpolating_csv, tmp_path, capsys, case, code
    ):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("0.1,0.2,1,0,1\n0.3,1,0\n", encoding="utf-8")
        argv = {
            "train": train_args(interpolating_csv, tmp_path / "m.txt"),
            "no_hidden": ["train", "--data", str(interpolating_csv), "--labels", "3",
                          "--init-block", "6", "--block", "2", "--out", str(tmp_path / "m.txt")],
            "ragged_csv": train_args(ragged, tmp_path / "m.txt", **{"init-block": "1"}),
            # ridge 0 and 6 rows for 7 neurons: the Gram matrix is singular
            "singular_init": train_args(interpolating_csv, tmp_path / "m.txt", hidden="7"),
        }[case]
        assert main(argv) == code
        expected = capsys.readouterr()
        child = subprocess.run([sys.executable, "-m", "elmstream.cli", *argv], env=child_env(),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == code
        # All of the output, but for the training time's value.
        timeless = functools.partial(re.sub, r"(?m)^training time: .* s$", "training time:")
        assert timeless(child.stdout) == timeless(expected.out)
        assert (child.stdout == "") == (code != EXIT_OK)
        assert child.stderr == expected.err
        assert (child.stderr == "") == (code == EXIT_OK)

    def test_main_changes_no_gc_state_and_entry_freezes(
        self, interpolating_csv, tmp_path, monkeypatch, capsys
    ):
        frozen = gc.get_freeze_count()
        argv = train_args(interpolating_csv, tmp_path / "m.txt")
        assert main(argv) == EXIT_OK
        assert gc.get_freeze_count() == frozen
        monkeypatch.setattr(sys, "argv", ["elmstream", *argv])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.entry()
            assert exc.value.code == EXIT_OK
            assert gc.get_freeze_count() > frozen
        finally:
            gc.unfreeze()
        assert "model: " in capsys.readouterr().out

    def test_module_and_script_run_the_entry(self):
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert '\nelmstream = "elmstream.cli:entry"\n' in pyproject
        # The module's __main__ block, run as -m runs it, in a child that
        # then reads the child's own freeze count.
        probe = ("import gc, runpy\n"
                 "try:\n    runpy.run_module('elmstream.cli', run_name='__main__')\n"
                 "except SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0)")
        child = subprocess.run([sys.executable, "-c", probe, "train"], env=child_env(),
                               capture_output=True, text=True, timeout=120)
        assert child.stdout == f"{EXIT_USAGE} True\n"


def test_sparse_input_runs_as_the_same_rows_in_csv(tmp_path, capsys):
    # train reads both files one block at a time, each with its own
    # format's chunk parser, so equal model bytes also pin that both learn
    # the same blocks: an init block of 20, then 10 blocks of 7 and a
    # rest of 3.
    ds = synthetic_stream(93, 5, 3, seed=95)
    csv, sparse = tmp_path / "d.csv", tmp_path / "d.sparse"
    write_csv(csv, ds)
    save_sparse(sparse, ds)
    inputs = {csv: [], sparse: ["--format", "sparse", "--features", "5"]}
    plan = ["--hidden", "8", "--init-block", "20", "--block", "7", "--seed", "4"]
    outputs = {}
    for data, read_as in inputs.items():
        model = tmp_path / (data.name + ".model")
        dataset = ["--data", str(data), "--labels", "3", *read_as]
        assert main(["train", *dataset, *plan, "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        assert main(["eval", *dataset, "--model", str(tmp_path / "d.csv.model")]) == EXIT_OK
        evaluated = without_times(capsys.readouterr().out)
        assert main(["cv", *dataset, *plan, "--folds", "3"]) == EXIT_OK
        outputs[data] = (model.read_bytes(), evaluated, without_times(capsys.readouterr().out))
    assert outputs[csv] == outputs[sparse]


def test_yeast_scale_train_reports_time_within_budget(tmp_path, capsys):
    ds = synthetic_stream(2417, 103, 14, seed=90)
    data = tmp_path / "big.csv"
    write_csv(data, ds)
    out = tmp_path / "model.txt"
    code = main(["train", "--data", str(data), "--labels", "14", "--hidden", "100",
                 "--init-block", "150", "--block", "30", "--seed", "6",
                 "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    line = next(l for l in text.splitlines() if l.startswith("training time:"))
    seconds = float(line.split()[2])
    assert seconds <= 10.0
    assert f"{seconds:.3f}" in line  # printed at 3 decimals


def test_synthetic_stream_is_learnable(tmp_path):
    # End-to-end quality check: teacher-generated labels are recovered far
    # better than chance from a streamed training run.
    ds = synthetic_stream(400, 10, 4, seed=80)
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    write_csv(train, ds.subset(np.arange(300)))
    write_csv(test, ds.subset(np.arange(300, 400)))
    model_path = tmp_path / "model.txt"
    assert main(["train", "--data", str(train), "--labels", "4", "--hidden", "40",
                 "--init-block", "60", "--block", "30", "--seed", "3",
                 "--out", str(model_path)]) == EXIT_OK
    cfg = RunConfig(command="eval", model=str(model_path), data=str(test), labels=4)
    report = run_eval(cfg)
    assert report.hamming_loss < 0.25

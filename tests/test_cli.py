import argparse
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from conftest import synthetic_stream, write_csv
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
from elmstream.model import ACTIVATIONS, load_model

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
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

        def strip_times(text):
            return [
                " ".join(p for p in line.split() if "time" not in p)
                for line in text.splitlines()
                if not line.startswith(("train_time", "test_time"))
            ]

        assert strip_times(first) == strip_times(second)

    def test_fold_file_input(self, tmp_path):
        ds = synthetic_stream(12, 3, 2, seed=62)
        data = tmp_path / "cv.csv"
        write_csv(data, ds)
        fold_file = tmp_path / "folds.txt"
        fold_file.write_text("0 1 2 3 4 5\n6 7 8 9 10 11\n")
        code = main(["cv", "--data", str(data), "--labels", "2",
                     "--fold-file", str(fold_file), "--hidden", "2",
                     "--init-block", "3", "--block", "3"])
        assert code == EXIT_OK

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
        assert "avg time/block:" in text
        assert "real-time at 10.000000 s/block arrival: yes" in text
        values = dict(line.split("\t") for line in out.read_text().splitlines())
        assert values["blocks"] == "7"
        assert float(values["avg_time_per_block"]) >= 0.0


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
        assert str(config) in capsys.readouterr().err

    def test_bad_boolean_rejected(self, interpolating_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("recalibrate maybe\n")
        assert main(["train", "--config", str(config), "--data", str(interpolating_csv),
                     "--out", str(tmp_path / "m.txt")]) == EXIT_USAGE


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_flag_value(self, tmp_path):
        assert main(["train", "--hidden", "lots"]) == EXIT_USAGE

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
            ("cv", "folds", "1"),
            ("cv", "seed", "-1"),
            ("bench", "arrival_interval", "-1"),
            ("bench", "arrival_interval", "nan"),
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

    def test_sparse_requires_features(self, tmp_path):
        p = tmp_path / "d.sparse"
        p.write_text("1 1:0.5\n")
        code = main(["train", "--data", str(p), "--format", "sparse", "--labels", "2",
                     "--hidden", "1", "--init-block", "1", "--block", "1",
                     "--out", str(tmp_path / "m.txt")])
        assert code == EXIT_USAGE


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

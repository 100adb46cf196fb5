import errno
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from asymhash import cli, dataio, evaluate, solver
from asymhash.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
)
from asymhash.dataio import (
    CODES_MAGIC,
    FEATURES_MAGIC,
    LABELS_MAGIC,
    MODEL_MAGIC,
    read_codes,
    read_features,
    read_labels,
    read_model,
    write_codes,
    write_features,
    write_model,
)
from asymhash.encoder import forward, init_encoder
from asymhash.hashcore import CodeMatrix
from asymhash.solver import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("data")
    code = main(
        [
            "gen-data",
            "--out", str(outdir),
            "--clusters", "8",
            "--per-cluster", "50",
            "--dim", "12",
            "--sigma", "0.1",
            "--seed", "21",
            "--queries", "40",
            "--val", "20",
        ]
    )
    assert code == EXIT_OK
    return outdir


TRAIN_FLAGS = [
    "--bits", "16",
    "--omega", "80",
    "--tout", "5",
    "--tin", "2",
    "--batch", "40",
    "--lr", "0.003",
    "--optimizer", "adam",
    "--hidden", "32",
    "--seed", "5",
]


def assert_last_good_state(dataset, run):
    db_rows = len(read_labels(dataset / "db_labels.bin"))
    assert read_model(run / "model.bin").code_len == 16
    assert read_codes(run / "db_codes.bin").rows == db_rows
    assert (run / "history.csv").read_text().startswith(
        "outer,inner,phase,objective,seconds"
    )
    assert "gamma = " in (run / "config.txt").read_text()


def must_not_run(*_args, **_kwargs):
    raise AssertionError("the command did work before checking its inputs")


def narrow_features(dataset, tmp_path, name):
    """A copy of a features file with one column fewer."""
    path = tmp_path / f"narrow_{name}"
    write_features(path, read_features(dataset / name)[:, :-1])
    return path


def run_train(dataset, outdir, extra=()):
    return main(
        [
            "train",
            "--features", str(dataset / "db_features.bin"),
            "--labels", str(dataset / "db_labels.bin"),
            "--out", str(outdir),
            *TRAIN_FLAGS,
            *extra,
        ]
    )


class TestGenData:
    def test_writes_all_groups_and_config(self, dataset):
        for name in (
            "db_features.bin", "db_labels.bin",
            "query_features.bin", "query_labels.bin",
            "val_features.bin", "val_labels.bin",
            "config.txt",
        ):
            assert (dataset / name).exists()
        text = (dataset / "config.txt").read_text()
        assert "seed = 21" in text


class TestTrainEvalFlow:
    def test_end_to_end_map(self, dataset, tmp_path):
        run = tmp_path / "run"
        assert run_train(dataset, run) == EXIT_OK
        assert (run / "model.bin").exists()
        assert (run / "history.csv").read_text().startswith(
            "outer,inner,phase,objective,seconds"
        )

        codes = tmp_path / "query_codes.bin"
        assert main(
            [
                "encode",
                "--model", str(run / "model.bin"),
                "--features", str(dataset / "query_features.bin"),
                "--out", str(codes),
            ]
        ) == EXIT_OK

        metrics = tmp_path / "metrics"
        assert main(
            [
                "eval",
                "--query-codes", str(codes),
                "--db-codes", str(run / "db_codes.bin"),
                "--query-labels", str(dataset / "query_labels.bin"),
                "--db-labels", str(dataset / "db_labels.bin"),
                "--map-cutoff", "5000",
                "--topk", "10",
                "--out", str(metrics),
            ]
        ) == EXIT_OK
        body = (metrics / "metrics.csv").read_text()
        assert "# map_cutoff = 5000" in body
        assert "map,cutoff=5000," in body
        score = float(
            [l for l in body.splitlines() if l.startswith("map,cutoff=none")][0]
            .split(",")[2]
        )
        assert score >= 0.95
        topk = (metrics / "topk_curve.csv").read_text().splitlines()
        assert topk[0] == "k,precision"
        pr = (metrics / "pr_curve.csv").read_text().splitlines()
        assert pr[1] == "precision,recall"
        assert len(topk) == 11 and len(pr) == 2 + 17
        # every curve value is a plain number, not a numpy scalar repr
        for line in topk[1:] + pr[2:]:
            for value in line.split(","):
                float(value)

    @pytest.mark.parametrize("cutoff", ["0", "-2"])
    def test_eval_cutoff_below_one_is_config_error(
        self, dataset, tmp_path, monkeypatch, capsys, cutoff
    ):
        # --map-cutoff 0 once meant "no cutoff"; eval now rejects it as sweep does
        monkeypatch.setattr(evaluate, "retrieval_metrics", must_not_run)
        codes = tmp_path / "codes.bin"
        write_codes(codes, CodeMatrix.from_signs(np.ones((1, 16))))
        code = main(
            [
                "eval",
                "--query-codes", str(codes),
                "--db-codes", str(codes),
                "--query-labels", str(dataset / "query_labels.bin"),
                "--db-labels", str(dataset / "db_labels.bin"),
                "--map-cutoff", cutoff,
                "--out", str(tmp_path / "metrics"),
            ]
        )
        assert code == EXIT_CONFIG
        assert f"map_cutoff must be >= 1, got {cutoff}" in capsys.readouterr().err
        assert not (tmp_path / "metrics").exists()

    def test_same_seed_identical_code_files(self, dataset, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_train(dataset, first) == EXIT_OK
        assert run_train(dataset, second) == EXIT_OK
        assert (
            (first / "db_codes.bin").read_bytes()
            == (second / "db_codes.bin").read_bytes()
        )

    def test_symmetric_mode_trains(self, dataset, tmp_path):
        run = tmp_path / "sym"
        code = run_train(dataset, run, extra=["--mode", "symmetric_baseline", "--tout", "2"])
        assert code == EXIT_OK
        codes = read_codes(run / "db_codes.bin")
        assert codes.rows == 340  # 8*50 minus 40 queries minus 20 validation

    @pytest.mark.parametrize(
        "mode", ["symmetric_baseline", "asymmetric_separate_queries"]
    )
    def test_batch_above_omega_trains_where_no_query_is_sampled(
        self, dataset, tmp_path, mode
    ):
        # --omega sizes the sampled query set only; these modes batch the
        # database rows or the query file's 40 rows, whatever --omega says
        run = tmp_path / "run"
        extra = ["--mode", mode, "--omega", "10", "--batch", "64", "--tout", "1"]
        if mode == "asymmetric_separate_queries":
            extra += [
                "--query-features", str(dataset / "query_features.bin"),
                "--query-labels", str(dataset / "query_labels.bin"),
            ]
        assert run_train(dataset, run, extra=extra) == EXIT_OK
        assert read_codes(run / "db_codes.bin").rows == 340

    def test_separate_query_mode_trains(self, dataset, tmp_path):
        run = tmp_path / "sep"
        code = run_train(
            dataset,
            run,
            extra=[
                "--mode", "asymmetric_separate_queries",
                "--query-features", str(dataset / "query_features.bin"),
                "--query-labels", str(dataset / "query_labels.bin"),
                "--omega", "40",
                "--batch", "20",
            ],
        )
        assert code == EXIT_OK
        assert read_codes(run / "db_codes.bin").rows == 340

    def test_separate_query_mode_without_queries_is_config_error(
        self, dataset, tmp_path
    ):
        code = run_train(
            dataset,
            tmp_path / "sep",
            extra=["--mode", "asymmetric_separate_queries"],
        )
        assert code == EXIT_CONFIG


    def test_encode_creates_its_output_directory(self, dataset, tmp_path):
        model = tmp_path / "model.bin"
        write_model(model, init_encoder((12, 8, 16), 0))
        codes = tmp_path / "missing" / "deeper" / "query_codes.bin"
        assert main(
            [
                "encode",
                "--model", str(model),
                "--features", str(dataset / "query_features.bin"),
                "--out", str(codes),
            ]
        ) == EXIT_OK
        want = len(read_features(dataset / "query_features.bin"))
        assert read_codes(codes).rows == want


class TestConfigFile:
    def test_file_values_and_flag_overrides(self, dataset, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "bits = 12\n"
            "omega = 80\n"
            "tout = 2\n"
            "tin = 1\n"
            "batch = 40\n"
            "lr = 0.003\n"
            "optimizer = adam\n"
            "hidden = 32\n"
            "seed = 5\n"
            f"features = {dataset / 'db_features.bin'}\n"
            f"labels = {dataset / 'db_labels.bin'}\n",
            encoding="utf-8",
        )
        run = tmp_path / "run"
        code = main(
            ["train", "--config", str(config), "--out", str(run), "--seed", "9"]
        )
        assert code == EXIT_OK
        echoed = (run / "config.txt").read_text()
        assert "seed = 9" in echoed  # flag wins over file
        assert "bits = 12" in echoed

    def test_echoed_config_reruns_the_same_run(self, dataset, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_train(dataset, first) == EXIT_OK
        code = main(
            ["train", "--config", str(first / "config.txt"), "--out", str(second)]
        )
        assert code == EXIT_OK
        assert (
            (second / "db_codes.bin").read_bytes()
            == (first / "db_codes.bin").read_bytes()
        )
        echoed = (first / "config.txt").read_text()
        assert f"out = {first}\n" in echoed
        assert (second / "config.txt").read_text() == echoed.replace(
            f"out = {first}\n", f"out = {second}\n"
        )

    def test_hash_in_a_path_reads_back(self, dataset, tmp_path):
        # only whole lines are comments, so an echoed "#" stays in the value
        run = tmp_path / "h#x" / "run"
        assert run_train(dataset, run) == EXIT_OK
        first = (run / "db_codes.bin").read_bytes()
        (run / "db_codes.bin").unlink()
        assert main(["train", "--config", str(run / "config.txt")]) == EXIT_OK
        assert (run / "db_codes.bin").read_bytes() == first
        assert [path.name for path in tmp_path.iterdir()] == ["h#x"]

    def test_comment_lines_and_inline_hash(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# a comment\n  # indented\nseed = 5 # kept\n")
        assert cli.load_config_file(config) == {"seed": "5 # kept"}

    def test_option_defaults_are_train_config_defaults(self):
        # an empty train command, through the parser and _resolve
        args = cli.build_parser().parse_args(["train"])
        values = cli._resolve(args, cli._TRAIN_KEYS)
        assert values["bits"] == "16"
        assert cli._train_config(values) == TrainConfig(code_len=16)

    def test_unknown_key_rejected(self, dataset, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus_key = 1\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--config", str(config),
                "--features", str(dataset / "db_features.bin"),
                "--labels", str(dataset / "db_labels.bin"),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_malformed_line_rejected(self, dataset, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just words\n", encoding="utf-8")
        code = main(
            [
                "train",
                "--config", str(config),
                "--features", str(dataset / "db_features.bin"),
                "--labels", str(dataset / "db_labels.bin"),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == EXIT_CONFIG


class TestExitCodes:
    INPUT_FLAGS = {
        "train": ("--features", "--labels"),
        "encode": ("--model", "--features"),
        "eval": ("--query-codes", "--db-codes", "--query-labels", "--db-labels"),
        "sweep": ("--features", "--labels", "--query-features", "--query-labels"),
        "bench": (),
        "gen-data": (),
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--hidden", "0"),
            ("train", "--hidden", "-3"),
            ("eval", "--topk", "0"),
            ("sweep", "--gammas", "abc"),
            ("sweep", "--omegas", "0"),
            ("bench", "--modes", "bogus"),
            ("bench", "--sizes", "100,x,200"),
            ("gen-data", "--clusters", "0"),
            ("gen-data", "--queries", "5000"),  # of the default 2,000 points
        ],
    )
    def test_config_error_comes_before_any_input_is_read(
        self, tmp_path, capsys, command, flag, value
    ):
        # every input path is missing: opening one would be a data error (3)
        out = tmp_path / "out"
        argv = [command, flag, value, "--out", str(out)]
        for name in self.INPUT_FLAGS[command]:
            argv += [name, str(tmp_path / f"missing{name}.bin")]
        assert main(argv) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--per-cluster", str(10**12)],
            ["train", *TRAIN_FLAGS, "--hidden", str(10**13)],
            ["bench", "--sizes", f"100,200,{10**13}", "--omega", "50",
             "--modes", "asymmetric_sampled"],
        ],
        ids=["gen-data", "train", "bench"],
    )
    def test_unallocatable_size_is_config_error(self, dataset, tmp_path, capsys, argv):
        # each size asks for an array above 2**48 bytes, more than any
        # machine maps, so its allocation fails before it touches memory
        out = tmp_path / "out"
        if argv[0] == "train":
            argv = argv + ["--features", str(dataset / "db_features.bin"),
                            "--labels", str(dataset / "db_labels.bin")]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        one_line = r"config error: out of memory: Unable to allocate .*\n"
        assert re.fullmatch(one_line, err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, out",
        [
            ("gen-data", "afile/sub"),
            ("train", "afile"),
            ("train", "afile/sub"),
            ("encode", "afile/q.bin"),
            ("encode", "adir"),
            ("eval", "afile"),
            ("bench", "afile"),
            ("sweep", "afile/sub"),
        ],
    )
    def test_unusable_out_is_config_error_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, out
    ):
        # an --out that is a file, lies under one or, for encode's codes
        # file, is a directory: exit 2 before any input is read, and
        # nothing is made or overwritten
        for name in ("gen_synthetic_clusters", "read_features", "read_labels",
                     "read_codes", "read_model"):
            monkeypatch.setattr(dataio, name, must_not_run)
        monkeypatch.setattr(cli, "complexity_probe", must_not_run)
        (tmp_path / "afile").write_text("kept")
        (tmp_path / "adir").mkdir()
        argv = [command, "--out", str(tmp_path / out)]
        for name in self.INPUT_FLAGS[command]:
            argv += [name, str(tmp_path / f"missing{name}.bin")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"config error: --out .*\n", err)
        assert (tmp_path / "afile").read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]

    @pytest.mark.parametrize("command", ["gen-data", "train", "sweep", "bench"])
    def test_negative_seed_is_named_before_any_work(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # numpy rejects a negative seed with a message that names no flag;
        # every input path is missing, so train exits 2, not 3
        for name in ("gen_synthetic_clusters", "read_features", "read_labels"):
            monkeypatch.setattr(dataio, name, must_not_run)
        monkeypatch.setattr(cli, "complexity_probe", must_not_run)
        out = tmp_path / "out"
        argv = [command, "--seed", "-1", "--out", str(out)]
        for name in self.INPUT_FLAGS[command]:
            argv += [name, str(tmp_path / f"missing{name}.bin")]
        assert main(argv) == EXIT_CONFIG
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, argv, message",
        [
            # the dataset has 340 database rows
            ("train", ["--omega", "500", "--batch", "40"],
             "omega 500 exceeds the 340 database rows"),
            ("bench", ["--sizes", "300,100,200", "--omega", "150"],
             "omega 150 exceeds the 100 database rows"),
            ("bench", ["--sizes", "300,100,200", "--omega", "150",
                       "--modes", "symmetric_baseline,asymmetric_sampled"],
             "omega 150 exceeds the 100 database rows"),
        ],
    )
    def test_omega_above_the_database_is_named_before_any_training(
        self, dataset, tmp_path, monkeypatch, capsys, command, argv, message
    ):
        monkeypatch.setattr(cli, "train", must_not_run)
        monkeypatch.setattr(cli, "complexity_probe", must_not_run)
        out = tmp_path / "out"
        argv = [command, *argv, "--out", str(out)]
        if command == "train":
            argv += ["--features", str(dataset / "db_features.bin"),
                     "--labels", str(dataset / "db_labels.bin")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_omega_is_not_checked_for_the_symmetric_bench(
        self, tmp_path, monkeypatch
    ):
        # the symmetric baseline samples no queries: omega may exceed n
        sizes = []

        def probe(n_values, query_count, code_len, mode, seed):
            sizes.append((list(n_values), query_count, mode))
            return solver.ProbeResult(mode, list(n_values), [1.0, 2.0, 3.0], 1.0)

        monkeypatch.setattr(cli, "complexity_probe", probe)
        argv = ["bench", "--sizes", "100,200,300", "--omega", "150",
                "--modes", "symmetric_baseline", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        assert sizes == [([100, 200, 300], 150, "symmetric_baseline")]

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "train",
                "--features", str(tmp_path / "missing.bin"),
                "--labels", str(tmp_path / "missing2.bin"),
                "--out", str(tmp_path / "run"),
                *TRAIN_FLAGS,
            ]
        )
        assert code == EXIT_DATA

    def test_corrupt_file_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage!")
        code = main(
            [
                "train",
                "--features", str(bad),
                "--labels", str(dataset / "db_labels.bin"),
                "--out", str(tmp_path / "run"),
                *TRAIN_FLAGS,
            ]
        )
        assert code == EXIT_DATA

    def test_bad_mode_is_config_error(self, dataset, tmp_path):
        code = run_train(dataset, tmp_path / "run", extra=["--mode", "bogus"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--gamma", "nan"),
            ("--gamma", "inf"),
            ("--lr", "nan"),
            ("--lr", "inf"),
            ("--lr", "1e309"),
        ],
    )
    def test_non_finite_gamma_or_lr_is_config_error(
        self, dataset, tmp_path, monkeypatch, capsys, flag, value
    ):
        # once exit 4 after training started, with an untrained "last good state"
        monkeypatch.setattr(dataio, "read_features", must_not_run)
        run = tmp_path / "run"
        assert run_train(dataset, run, extra=[flag, value]) == EXIT_CONFIG
        assert "must be finite and >= 0" in capsys.readouterr().err
        assert not run.exists()

    def test_divergence_is_numeric_error(self, dataset, tmp_path):
        run = tmp_path / "run"
        code = run_train(
            dataset,
            run,
            extra=["--optimizer", "sgd", "--lr", "1e308", "--tout", "1", "--tin", "1"],
        )
        assert code == EXIT_NUMERIC
        assert_last_good_state(dataset, run)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--gamma", "1e308"],
            # the symmetric trainer keeps no codes; they come from the model
            ["--mode", "symmetric_baseline", "--optimizer", "sgd", "--lr", "1e308"],
        ],
        ids=["huge_gamma", "symmetric"],
    )
    def test_diverged_run_keeps_last_good_state(self, dataset, tmp_path, extra):
        run = tmp_path / "run"
        assert run_train(dataset, run, extra=extra) == EXIT_NUMERIC
        assert_last_good_state(dataset, run)

    def test_non_finite_features_are_data_error(self, dataset, tmp_path):
        bad = tmp_path / "features.bin"
        data = bytearray((dataset / "db_features.bin").read_bytes())
        data[24:32] = struct.pack("<d", float("nan"))
        bad.write_bytes(bytes(data))
        code = main(
            [
                "train",
                "--features", str(bad),
                "--labels", str(dataset / "db_labels.bin"),
                "--out", str(tmp_path / "run"),
                *TRAIN_FLAGS,
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "mode, empty",
        [
            ("asymmetric_sampled", "db"),
            ("symmetric_baseline", "db"),
            ("asymmetric_separate_queries", "query"),
        ],
    )
    def test_empty_train_feature_file_is_data_error(
        self, dataset, tmp_path, monkeypatch, capsys, mode, empty
    ):
        # a 0-row feature file beside a 0-row label file: the row counts
        # agree, but there is nothing to train on (once exit 2 from a
        # config check, or exit 0 and a 0-row db_codes.bin)
        monkeypatch.setattr(cli, "train", must_not_run)
        empty_features = tmp_path / "empty_features.bin"
        empty_labels = tmp_path / "empty_labels.bin"
        write_features(empty_features, np.zeros((0, 12)))
        empty_labels.write_bytes(LABELS_MAGIC + struct.pack("<Q", 0))
        argv = ["train", "--mode", mode, "--out", str(tmp_path / "run"), *TRAIN_FLAGS]
        sides = [("db", "--")]
        if mode == "asymmetric_separate_queries":
            sides.append(("query", "--query-"))
        for side, prefix in sides:
            features = dataset / f"{side}_features.bin"
            labels = dataset / f"{side}_labels.bin"
            if side == empty:
                features, labels = empty_features, empty_labels
            argv += [f"{prefix}features", str(features), f"{prefix}labels", str(labels)]
        assert main(argv) == EXIT_DATA
        assert f"{empty_features} has no rows" in capsys.readouterr().err
        assert not (tmp_path / "run" / "db_codes.bin").exists()

    def test_zero_feature_dim_is_data_error(self, dataset, tmp_path, capsys):
        # write_features never writes dim 0 (once exit 2 from the encoder)
        rows = len(read_labels(dataset / "db_labels.bin"))
        bad = tmp_path / "features.bin"
        bad.write_bytes(FEATURES_MAGIC + struct.pack("<QQ", rows, 0))
        argv = ["train", "--features", str(bad), "--labels"]
        argv += [str(dataset / "db_labels.bin"), "--out", str(tmp_path / "run")]
        assert main(argv + TRAIN_FLAGS) == EXIT_DATA
        assert "feature dim is 0 (at byte offset 16)" in capsys.readouterr().err

    @pytest.mark.parametrize("mismatch", ["query_rows", "db_rows", "code_len"])
    def test_mismatched_eval_inputs_are_data_error(
        self, dataset, tmp_path, monkeypatch, mismatch
    ):
        monkeypatch.setattr(evaluate, "relevance_from_labels", must_not_run)
        monkeypatch.setattr(evaluate, "rank_by_hamming", must_not_run)
        monkeypatch.setattr(evaluate, "retrieval_metrics", must_not_run)
        query_rows = len(read_labels(dataset / "query_labels.bin"))
        db_rows = len(read_labels(dataset / "db_labels.bin"))
        query_bits = 16
        if mismatch == "query_rows":
            query_rows += 1
        elif mismatch == "db_rows":
            db_rows -= 1
        else:
            query_bits = 8
        for name, rows, bits in (
            ("query_codes.bin", query_rows, query_bits),
            ("db_codes.bin", db_rows, 16),
        ):
            write_codes(tmp_path / name, CodeMatrix.from_signs(np.ones((rows, bits))))
        code = main(
            [
                "eval",
                "--query-codes", str(tmp_path / "query_codes.bin"),
                "--db-codes", str(tmp_path / "db_codes.bin"),
                "--query-labels", str(dataset / "query_labels.bin"),
                "--db-labels", str(dataset / "db_labels.bin"),
                "--out", str(tmp_path / "metrics"),
            ]
        )
        assert code == EXIT_DATA
        assert not (tmp_path / "metrics" / "metrics.csv").exists()

    @pytest.mark.parametrize("empty", ["query", "db"])
    def test_empty_eval_code_file_is_data_error(
        self, dataset, tmp_path, monkeypatch, capsys, empty
    ):
        # a 0-row code file beside a 0-row label file: the row counts agree,
        # but there is nothing to rank (once exit 0 and NaN metrics)
        monkeypatch.setattr(evaluate, "retrieval_metrics", must_not_run)
        argv = ["eval", "--out", str(tmp_path / "metrics")]
        for side in ("query", "db"):
            labels = dataset / f"{side}_labels.bin"
            if side == empty:
                labels = tmp_path / "empty_labels.bin"
                labels.write_bytes(LABELS_MAGIC + struct.pack("<Q", 0))
            rows = len(read_labels(labels))
            codes = tmp_path / f"{side}_codes.bin"
            write_codes(codes, CodeMatrix(np.zeros((rows, 1)), rows, 16))
            argv += [f"--{side}-codes", str(codes), f"--{side}-labels", str(labels)]
        code = main(argv)
        assert code == EXIT_DATA
        assert "has no code rows" in capsys.readouterr().err
        assert not (tmp_path / "metrics" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "command, mismatch",
        [
            ("train", "db_rows"),
            ("train", "query_rows"),
            ("train", "query_width"),
            ("encode", "model_width"),
        ],
    )
    def test_mismatched_train_and_encode_inputs_are_data_error(
        self, dataset, tmp_path, monkeypatch, capsys, command, mismatch
    ):
        monkeypatch.setattr(cli, "train", must_not_run)
        monkeypatch.setattr(cli, "encode_queries", must_not_run)
        features = dataset / "db_features.bin"
        labels = dataset / "db_labels.bin"
        query_features = dataset / "query_features.bin"
        query_labels = dataset / "query_labels.bin"
        if mismatch == "db_rows":
            labels = query_labels
            named = (features, labels)
        elif mismatch == "query_rows":
            query_labels = dataset / "val_labels.bin"
            named = (query_features, query_labels)
        elif mismatch == "query_width":
            query_features = narrow_features(dataset, tmp_path, "query_features.bin")
            named = (query_features, features)
        if command == "train":
            argv = [
                "train", "--features", str(features), "--labels", str(labels),
                "--mode", "asymmetric_separate_queries",
                "--query-features", str(query_features),
                "--query-labels", str(query_labels),
                "--out", str(tmp_path / "run"), *TRAIN_FLAGS,
            ]
        else:
            model = tmp_path / "model.bin"
            write_model(model, init_encoder((12, 16), 0))
            features = narrow_features(dataset, tmp_path, "query_features.bin")
            named = (features, model)
            argv = [
                "encode", "--model", str(model), "--features", str(features),
                "--out", str(tmp_path / "codes.bin"),
            ]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert all(str(path) in err for path in named)
        assert not (tmp_path / "run" / "model.bin").exists()
        assert not (tmp_path / "codes.bin").exists()

    @pytest.mark.parametrize("reader", ["features", "labels", "model", "codes"])
    def test_size_fields_past_the_end_are_data_error(
        self, dataset, tmp_path, capsys, reader
    ):
        # each header claims more than 2**63 bytes; the reader must find the
        # file too short before it tries to allocate the claim
        bad = tmp_path / f"{reader}.bin"
        if reader == "features":
            bad.write_bytes(FEATURES_MAGIC + struct.pack("<QQ", 2**62, 4))
            argv = [
                "train", "--features", str(bad),
                "--labels", str(dataset / "db_labels.bin"),
                "--out", str(tmp_path / "run"), *TRAIN_FLAGS,
            ]
        elif reader == "labels":
            bad.write_bytes(LABELS_MAGIC + struct.pack("<Q", 2**62))
            argv = [
                "train", "--features", str(dataset / "db_features.bin"),
                "--labels", str(bad), "--out", str(tmp_path / "run"), *TRAIN_FLAGS,
            ]
        elif reader == "model":
            bad.write_bytes(MODEL_MAGIC + struct.pack("<IQQ", 2, 2**40, 2**40))
            argv = [
                "encode", "--model", str(bad),
                "--features", str(dataset / "query_features.bin"),
                "--out", str(tmp_path / "codes.bin"),
            ]
        else:
            bad.write_bytes(CODES_MAGIC + struct.pack("<QI", 2**62, 64))
            argv = [
                "eval", "--query-codes", str(bad), "--db-codes", str(bad),
                "--query-labels", str(dataset / "query_labels.bin"),
                "--db-labels", str(dataset / "db_labels.bin"),
                "--out", str(tmp_path / "metrics"),
            ]
        assert main(argv) == EXIT_DATA
        assert "truncated file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_v1_label_file_is_data_error(
        self, dataset, tmp_path, monkeypatch, capsys, command
    ):
        # the v1 layout wrote each row's count right before its ids; its
        # version is named before any training or ranking starts
        monkeypatch.setattr(cli, "train", must_not_run)
        monkeypatch.setattr(evaluate, "retrieval_metrics", must_not_run)
        side = "db" if command == "train" else "query"
        labels = read_labels(dataset / f"{side}_labels.bin")
        # gen-data gives each row one id: v1 words are 1, id per row
        words = np.column_stack((np.ones(len(labels)), labels.ids)).ravel()
        v1 = tmp_path / "v1_labels.bin"
        v1.write_bytes(
            b"ADSHLBL1" + struct.pack("<Q", len(labels))
            + words.astype("<u4").tobytes()
        )
        if command == "train":
            argv = [
                "train", "--features", str(dataset / "db_features.bin"),
                "--labels", str(v1), "--out", str(tmp_path / "run"), *TRAIN_FLAGS,
            ]
        else:
            argv = ["eval", "--out", str(tmp_path / "metrics")]
            for name in ("query", "db"):
                rows = len(read_labels(dataset / f"{name}_labels.bin"))
                codes = tmp_path / f"{name}_codes.bin"
                write_codes(codes, CodeMatrix.from_signs(np.ones((rows, 16))))
                argv += [f"--{name}-codes", str(codes)]
            argv += [
                "--query-labels", str(v1),
                "--db-labels", str(dataset / "db_labels.bin"),
            ]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "unsupported format version b'1', expected b'2'" in err
        assert not (tmp_path / "run" / "model.bin").exists()
        assert not (tmp_path / "metrics" / "metrics.csv").exists()

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["train", "--bogus"]) == EXIT_CONFIG
        capsys.readouterr()


def traced_main(argv):
    """The tracemalloc peak, in bytes, of a successful ``main(argv)``."""
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gen_data_argv(out, clusters, per_cluster, dim, *extra):
    return [
        "gen-data", "--out", str(out), "--clusters", str(clusters),
        "--per-cluster", str(per_cluster), "--dim", str(dim), "--seed", "8",
        *extra,
    ]


class TestFeatureStreaming:
    """No command holds a database's n x d features: gen-data writes them
    by chunks, train gathers its sampled rows and encode encodes chunks."""

    @pytest.mark.parametrize("existing", [False, True])
    def test_gen_data_write_failure_is_data_error_and_leaves_nothing(
        self, tmp_path, monkeypatch, capsys, existing
    ):
        # a disk that fills up after the first chunk: exit 3 with one line,
        # and none of the files, nor the directories gen-data made, remain
        monkeypatch.setattr(dataio, "FEATURE_CHUNK_BYTES", 7 * 8 * 12)
        write, calls = dataio.FeatureWriter.write, []

        def full_disk(writer, chunk):
            calls.append(len(chunk))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write(writer, chunk)

        monkeypatch.setattr(dataio.FeatureWriter, "write", full_disk)
        out = tmp_path / "made" / "data"
        if existing:
            out.mkdir(parents=True)
            (out / "kept.txt").write_text("kept")
        argv = gen_data_argv(out, 4, 20, 12, "--queries", "10", "--val", "5")
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"data error: \[Errno 28\] No space left on device\n", err)
        assert len(calls) == 2
        if existing:
            assert [p.name for p in out.iterdir()] == ["kept.txt"]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_outputs_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch):
        # gen-data's files and train's model and codes are byte-identical
        # with the whole dataset in one chunk and with chunks of 4 rows;
        # encode's codes may differ only where a raw output is within
        # rounding of 0, since BLAS sums can depend on a chunk's shape
        dim, runs = 6, {}
        budgets = (("one", dataio.FEATURE_CHUNK_BYTES), ("four", 4 * 8 * dim))
        for name, budget in budgets:
            monkeypatch.setattr(dataio, "FEATURE_CHUNK_BYTES", budget)
            data, run = tmp_path / name / "data", tmp_path / name / "run"
            argv = gen_data_argv(data, 5, 31, dim, "--queries", "17", "--val", "9")
            assert main(argv) == EXIT_OK
            assert main([
                "train", "--features", str(data / "db_features.bin"),
                "--labels", str(data / "db_labels.bin"), "--out", str(run),
                *TRAIN_FLAGS, "--omega", "40", "--batch", "16",
            ]) == EXIT_OK
            for side in ("db", "query"):
                assert main([
                    "encode", "--model", str(run / "model.bin"),
                    "--features", str(data / f"{side}_features.bin"),
                    "--out", str(run / f"{side}_encoded.bin"),
                ]) == EXIT_OK
            runs[name] = (data, run)
        (one_data, one_run), (four_data, four_run) = runs["one"], runs["four"]
        for side in ("db", "query", "val"):
            for kind in ("features", "labels"):
                name = f"{side}_{kind}.bin"
                assert (four_data / name).read_bytes() == (one_data / name).read_bytes()
        for name in ("model.bin", "db_codes.bin"):
            assert (four_run / name).read_bytes() == (one_run / name).read_bytes()
        objectives = [
            [line.split(",")[3] for line in lines]
            for lines in (
                (run / "history.csv").read_text().splitlines()
                for run in (one_run, four_run)
            )
        ]
        assert objectives[0] == objectives[1]
        model = read_model(one_run / "model.bin")
        for side in ("db", "query"):
            one = read_codes(one_run / f"{side}_encoded.bin").to_signs()
            four = read_codes(four_run / f"{side}_encoded.bin").to_signs()
            relaxed = forward(model, read_features(one_data / f"{side}_features.bin"))
            assert np.all((one == four) | (np.abs(relaxed) < 1e-9))

    def test_sampled_train_peak_does_not_grow_with_dim(self, tmp_path, monkeypatch):
        # from d = 8 to 256 the traced peak grows by the m x d gather and
        # the first layer, not by the 4,000 x d matrix (7.9 MB more)
        monkeypatch.setattr(dataio, "FEATURE_CHUNK_BYTES", 1 << 16)
        m, hidden, peaks = 100, 16, {}
        for dim in (8, 256):
            data = tmp_path / f"data{dim}"
            assert main(gen_data_argv(data, 10, 400, dim, "--queries", "0")) == EXIT_OK
            argv = [
                "train", "--features", str(data / "db_features.bin"),
                "--labels", str(data / "db_labels.bin"), "--out", str(tmp_path / "run"),
                "--omega", str(m), "--bits", "16", "--tout", "1", "--tin", "1",
                "--batch", "50", "--hidden", str(hidden), "--seed", "3",
            ]
            main(argv)  # one untraced run first: one-off allocations
            peaks[dim] = traced_main(argv)
        grown = 8 * (256 - 8)
        assert peaks[256] - peaks[8] <= 2 * m * grown + 6 * hidden * grown

    def test_gen_data_and_encode_peaks_do_not_grow_with_rows(
        self, tmp_path, monkeypatch
    ):
        # from 2,000 to 20,000 rows: gen-data grows by its index and label
        # arrays, not by the 2,048 bytes per row of 256-d features, and
        # encode by its 8-byte code words, not by the features or the
        # hidden layer's activations
        monkeypatch.setattr(dataio, "FEATURE_CHUNK_BYTES", 1 << 16)
        model = tmp_path / "model.bin"
        write_model(model, init_encoder((256, 64, 16), 0))
        gen_peaks, encode_peaks = {}, {}
        for per_cluster in (200, 200, 2000):  # the first run is a warm-up
            data = tmp_path / f"data{per_cluster}"
            argv = gen_data_argv(data, 10, per_cluster, 256, "--queries", "0")
            gen_peaks[per_cluster] = traced_main(argv)
            encode_peaks[per_cluster] = traced_main([
                "encode", "--model", str(model),
                "--features", str(data / "db_features.bin"),
                "--out", str(data / "codes.bin"),
            ])
        rows = 20_000 - 2_000
        assert gen_peaks[2000] - gen_peaks[200] <= 128 * rows
        assert encode_peaks[2000] - encode_peaks[200] <= 16 * rows

    def test_features_changed_after_opening_are_data_error(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        # train checks every value when it opens the file; a value made NaN
        # after that fails the gather that reads it, not the loss
        features = tmp_path / "features.bin"
        features.write_bytes((dataset / "db_features.bin").read_bytes())
        real_train = cli.train

        def poisoning(file, *args, **kwargs):
            rows = len(file)
            with open(features, "r+b") as fh:
                for row in range(rows):
                    fh.seek(dataio.FEATURES_DATA_OFFSET + 8 * 12 * row)
                    fh.write(struct.pack("<d", float("nan")))
            return real_train(file, *args, **kwargs)

        monkeypatch.setattr(cli, "train", poisoning)
        argv = ["train", "--features", str(features), "--labels"]
        argv += [str(dataset / "db_labels.bin"), "--out", str(tmp_path / "run")]
        assert main(argv + TRAIN_FLAGS) == EXIT_DATA
        err = capsys.readouterr().err
        not_finite = r"data error: feature value \d+ of \d+x12 is not finite .*\n"
        assert re.fullmatch(not_finite, err)
        assert not (tmp_path / "run").exists()

    def test_pipeline_leaves_no_resource_warning(self, tmp_path):
        # under -X dev an unclosed file warns when it is collected: run the
        # pipeline in its own interpreter, with every warning an error
        script = f"""
import sys
from asymhash.cli import main
d, r = {str(tmp_path / "data")!r}, {str(tmp_path / "run")!r}
steps = [
    ["gen-data", "--out", d, "--clusters", "4", "--per-cluster", "30",
     "--dim", "6", "--queries", "10"],
    ["train", "--features", d + "/db_features.bin", "--labels",
     d + "/db_labels.bin", "--out", r, "--omega", "20", "--batch", "10",
     "--tout", "2", "--tin", "1", "--hidden", "8", "--bits", "8"],
    ["encode", "--model", r + "/model.bin", "--features",
     d + "/query_features.bin", "--out", r + "/query_codes.bin"],
    ["eval", "--query-codes", r + "/query_codes.bin", "--db-codes",
     r + "/db_codes.bin", "--query-labels", d + "/query_labels.bin",
     "--db-labels", d + "/db_labels.bin", "--out", r + "/metrics"],
]
sys.exit(max(main(step) for step in steps))
"""
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr


class TestBench:
    def test_bench_writes_rows_and_slopes(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--sizes", "300,600,1200",
                "--omega", "50",
                "--bits", "8",
                "--modes", "asymmetric_sampled",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        body = (out / "bench.csv").read_text()
        assert "# slope asymmetric_sampled = " in body
        assert "asymmetric_sampled,300," in body

    def test_bad_bench_mode_is_config_error(self, tmp_path):
        code = main(
            ["bench", "--modes", "bogus", "--out", str(tmp_path / "bench")]
        )
        assert code == EXIT_CONFIG

    def test_repeated_sizes_are_config_error(self, tmp_path, monkeypatch):
        # three sizes of which two are distinct fit no slope
        monkeypatch.setattr(solver, "train", must_not_run)
        out = tmp_path / "bench"
        code = main(["bench", "--sizes", "100,100,200", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_omega_above_a_size_fails_before_the_first_size(
        self, tmp_path, monkeypatch
    ):
        # sampled training draws --omega rows of each size: 100 < 200
        calls = []
        real_train = solver.train

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(solver, "train", counted)
        out = tmp_path / "bench"
        code = main([
            "bench", "--sizes", "300,600,100", "--omega", "200", "--bits", "8",
            "--modes", "asymmetric_sampled", "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert calls == []
        assert not out.exists()


class TestSweep:
    def test_grid_produces_metric_rows(self, dataset, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--features", str(dataset / "db_features.bin"),
                "--labels", str(dataset / "db_labels.bin"),
                "--query-features", str(dataset / "query_features.bin"),
                "--query-labels", str(dataset / "query_labels.bin"),
                "--out", str(out),
                "--gammas", "1,200",
                "--omegas", "40,80",
                "--tout", "2",
                "--tin", "1",
                "--batch", "40",
                "--optimizer", "adam",
                "--lr", "0.003",
                "--hidden", "16",
                "--bits", "8",
            ]
        )
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "gamma,omega,map"
        assert len(lines) == 5
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[2]) <= 1.0

    @pytest.mark.parametrize("mismatch", ["db_rows", "query_rows", "query_width"])
    def test_mismatched_inputs_fail_before_the_first_trial(
        self, dataset, tmp_path, monkeypatch, mismatch
    ):
        monkeypatch.setattr(cli, "train", must_not_run)
        inputs = {
            "--features": dataset / "db_features.bin",
            "--labels": dataset / "db_labels.bin",
            "--query-features": dataset / "query_features.bin",
            "--query-labels": dataset / "query_labels.bin",
        }
        if mismatch == "db_rows":
            inputs["--labels"] = dataset / "val_labels.bin"
        elif mismatch == "query_rows":
            inputs["--query-labels"] = dataset / "val_labels.bin"
        else:
            inputs["--query-features"] = narrow_features(
                dataset, tmp_path, "query_features.bin"
            )
        out = tmp_path / "sweep"
        # a valid configuration (batch <= omega): only the inputs are at fault
        argv = ["sweep", "--out", str(out), "--gammas", "1", "--omegas", "40"]
        argv += ["--batch", "40"]
        for flag, path in inputs.items():
            argv += [flag, str(path)]
        assert main(argv) == EXIT_DATA
        assert not (out / "sweep.csv").exists()

    def test_empty_query_file_fails_before_the_first_trial(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        # with no queries there is no MAP to report (once a NaN row, exit 0)
        monkeypatch.setattr(cli, "train", must_not_run)
        write_features(tmp_path / "query_features.bin", np.zeros((0, 12)))
        (tmp_path / "query_labels.bin").write_bytes(
            LABELS_MAGIC + struct.pack("<Q", 0)
        )
        out = tmp_path / "sweep"
        # a valid configuration (batch <= omega): only the inputs are at fault
        argv = ["sweep", "--out", str(out), "--gammas", "1", "--omegas", "40"]
        argv += ["--batch", "40"]
        for flag, path in (
            ("--features", dataset / "db_features.bin"),
            ("--labels", dataset / "db_labels.bin"),
            ("--query-features", tmp_path / "query_features.bin"),
            ("--query-labels", tmp_path / "query_labels.bin"),
        ):
            argv += [flag, str(path)]
        assert main(argv) == EXIT_DATA
        assert "has no rows" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_non_finite_gamma_fails_before_the_first_trial(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "train", must_not_run)
        argv = ["sweep", "--out", str(tmp_path / "sweep"), "--gammas", "1,nan"]
        for flag, name in (
            ("--features", "db_features.bin"),
            ("--labels", "db_labels.bin"),
            ("--query-features", "query_features.bin"),
            ("--query-labels", "query_labels.bin"),
        ):
            argv += [flag, str(dataset / name)]
        assert main(argv) == EXIT_CONFIG
        assert "gamma must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep" / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "mode", ["symmetric_baseline", "asymmetric_separate_queries"]
    )
    def test_mode_without_the_grid_fails_before_any_input_is_read(
        self, dataset, tmp_path, monkeypatch, capsys, mode
    ):
        # gamma and omega are read by asymmetric_sampled only; a missing
        # features file would be a data error (3) if it were opened
        monkeypatch.setattr(cli, "train", must_not_run)
        out = tmp_path / "sweep"
        argv = ["sweep", "--out", str(out), "--mode", mode]
        for flag, path in (
            ("--features", tmp_path / "missing.bin"),
            ("--labels", dataset / "db_labels.bin"),
            ("--query-features", dataset / "query_features.bin"),
            ("--query-labels", dataset / "query_labels.bin"),
        ):
            argv += [flag, str(path)]
        assert main(argv) == EXIT_CONFIG
        assert repr(mode) in capsys.readouterr().err
        assert not out.exists()

    def test_omega_above_the_database_fails_before_the_first_trial(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        # 340 database rows: the third trial cannot sample 100000 of them,
        # so no trial runs and no sweep.csv is half a grid
        calls = []
        real_train = cli.train

        def counted(*args, **kwargs):
            calls.append(args[2].query_count)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", counted)
        out = tmp_path / "sweep"
        argv = ["sweep", "--out", str(out), "--omegas", "40,80,100000"]
        argv += ["--batch", "40", "--tout", "1", "--tin", "1", "--bits", "8",
                 "--hidden", "8"]
        for flag, name in (
            ("--features", "db_features.bin"),
            ("--labels", "db_labels.bin"),
            ("--query-features", "query_features.bin"),
            ("--query-labels", "query_labels.bin"),
        ):
            argv += [flag, str(dataset / name)]
        assert main(argv) == EXIT_CONFIG
        assert calls == []
        assert "omega 100000 exceeds the 340 database rows" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_cutoff_fails_before_the_first_trial(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "train", must_not_run)
        argv = ["sweep", "--out", str(tmp_path / "sweep"), "--map-cutoff", "-1"]
        for flag, name in (
            ("--features", "db_features.bin"),
            ("--labels", "db_labels.bin"),
            ("--query-features", "query_features.bin"),
            ("--query-labels", "query_labels.bin"),
        ):
            argv += [flag, str(dataset / name)]
        assert main(argv) == EXIT_CONFIG
        assert "map_cutoff must be >= 1" in capsys.readouterr().err


def readme_commands():
    """Every asymhash command of the README's sh blocks, as an argv."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["asymhash"]:
                commands.append(argv[1:])
    return commands


class TestReadme:
    def test_every_command_is_documented(self):
        documented = {argv[0] for argv in readme_commands()}
        assert documented == {"gen-data", "train", "encode", "eval", "bench", "sweep"}

    def test_config_echo_claim(self, dataset, tmp_path):
        text = " ".join(README.read_text(encoding="utf-8").split())
        claim = re.search(r"((?:`[a-z-]+`,? )+and `[a-z-]+`) echo their", text)
        echoing = set(re.findall(r"`([a-z-]+)`", claim.group(1)))
        assert echoing == {"gen-data", "train", "eval", "bench", "sweep"}
        assert "`encode` writes only its codes file" in text

        short = ["--tout", "1", "--tin", "1"]
        outs = {"gen-data": dataset, "train": tmp_path / "run"}
        assert run_train(dataset, outs["train"], short) == EXIT_OK
        codes = tmp_path / "codes" / "query_codes.bin"
        codes.parent.mkdir()
        assert main(
            [
                "encode", "--model", str(outs["train"] / "model.bin"),
                "--features", str(dataset / "query_features.bin"),
                "--out", str(codes),
            ]
        ) == EXIT_OK
        assert list(codes.parent.iterdir()) == [codes]
        outs["eval"] = tmp_path / "metrics"
        assert main(
            [
                "eval", "--query-codes", str(codes),
                "--db-codes", str(outs["train"] / "db_codes.bin"),
                "--query-labels", str(dataset / "query_labels.bin"),
                "--db-labels", str(dataset / "db_labels.bin"),
                "--out", str(outs["eval"]),
            ]
        ) == EXIT_OK
        outs["bench"] = tmp_path / "bench"
        assert main(
            [
                "bench", "--sizes", "100,200,300", "--omega", "20", "--bits", "8",
                "--modes", "asymmetric_sampled", "--out", str(outs["bench"]),
            ]
        ) == EXIT_OK
        outs["sweep"] = tmp_path / "sweep"
        argv = ["sweep", "--out", str(outs["sweep"]), "--gammas", "1", "--omegas", "40"]
        for flag, name in (
            ("--features", "db_features"), ("--labels", "db_labels"),
            ("--query-features", "query_features"), ("--query-labels", "query_labels"),
        ):
            argv += [flag, str(dataset / f"{name}.bin")]
        assert main(argv + ["--batch", "40", *short]) == EXIT_OK
        assert {cmd for cmd, out in outs.items() if (out / "config.txt").exists()} == echoing

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
    def test_command_parses(self, argv):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: asymhash {shlex.join(argv)}")

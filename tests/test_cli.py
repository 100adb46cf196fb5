import struct

import numpy as np
import pytest

from asymhash import cli, evaluate
from asymhash.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from asymhash.dataio import (
    read_codes,
    read_features,
    read_labels,
    read_model,
    write_codes,
    write_features,
    write_model,
)
from asymhash.encoder import init_encoder
from asymhash.hashcore import CodeMatrix


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
        assert (metrics / "topk_curve.csv").read_text().startswith("k,precision")
        assert "precision,recall" in (metrics / "pr_curve.csv").read_text()

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

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["train", "--bogus"]) == EXIT_CONFIG
        capsys.readouterr()


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
        argv = ["sweep", "--out", str(out), "--gammas", "1", "--omegas", "40"]
        for flag, path in inputs.items():
            argv += [flag, str(path)]
        assert main(argv) == EXIT_DATA
        assert not (out / "sweep.csv").exists()

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

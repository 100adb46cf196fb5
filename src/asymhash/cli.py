"""Command-line driver for reproducible experiments.

Commands: gen-data, train, encode, eval, bench, sweep. Options come from
an optional ``key = value`` config file overridden by CLI flags; the
effective configuration is echoed into the output directory so every run
is self-describing. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import dataio, evaluate
from .dataio import FileFormatError
from .encoder import NonFiniteError, encode_queries
from .solver import (
    PROBE_MODES,
    TrainConfig,
    TrainingDiverged,
    complexity_probe,
    history_to_csv,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid or unknown configuration input."""


class _Option(NamedTuple):
    """One train/sweep key: its flag, its config-file entry and its parse."""

    field: str | None  # the TrainConfig field it sets, if any
    type: Callable = str  # argparse type; config.txt echoes str(type(flag))
    default: str | None = None
    help: str | None = None
    parse: Callable | None = None  # config string -> field value; type if None


def _parse_weighting(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"weighting must be on/off, got {value!r}")


def _parse_hidden(value: str) -> tuple[int, ...]:
    value = value.strip()
    if not value or value.lower() == "none":
        return ()
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError as err:
        raise ConfigError(f"hidden must be comma-separated ints: {value!r}") from err


# Keys accepted in config files, in flag order; flags use the same names.
TRAIN_OPTIONS = {
    "seed": _Option("seed", int, "0"),
    "gamma": _Option("gamma", float, "200.0"),
    "omega": _Option("query_count", int, "1000", "sampled query count"),
    "bits": _Option("code_len", int, "16", "code length"),
    "tout": _Option("outer_iters", int, "50", "outer iterations"),
    "tin": _Option("inner_iters", int, "3", "inner iterations"),
    "batch": _Option("batch_size", int, "128", "minibatch size"),
    "lr": _Option("learning_rate", float, "0.001", "learning rate"),
    "mode": _Option("mode", str, "asymmetric_sampled", "training mode"),
    "optimizer": _Option("optimizer", str, "sgd", "sgd or adam"),
    "hidden": _Option(
        "hidden_dims", str, "512", "comma-separated hidden layer sizes", _parse_hidden
    ),
    "weighting": _Option(
        "imbalance_weighting", str, "on", "imbalance weighting on/off", _parse_weighting
    ),
    "features": _Option(None, help="database features file"),
    "labels": _Option(None, help="database labels file"),
    "query_features": _Option(None),
    "query_labels": _Option(None),
    "out": _Option(None, help="output directory"),
    # sweep only
    "map_cutoff": _Option(None, int),
}
CONFIG_KEYS = tuple(TRAIN_OPTIONS)
_TRAIN_KEYS = tuple(key for key in CONFIG_KEYS if key != "map_cutoff")


def load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        # only whole lines are comments: a value, such as a path, may hold "#"
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve(args, needed: tuple[str, ...]) -> dict[str, str]:
    """defaults <- config file <- explicit CLI flags, restricted to needed."""
    merged = {
        k: TRAIN_OPTIONS[k].default for k in needed if TRAIN_OPTIONS[k].default
    }
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            if key in needed:
                merged[key] = value
    for key in needed:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = str(flag)
    return merged


def _train_config(values: dict[str, str]) -> TrainConfig:
    try:
        return TrainConfig(
            **{
                option.field: (option.parse or option.type)(values[key])
                for key, option in TRAIN_OPTIONS.items()
                if option.field
            }
        )
    except (KeyError, ValueError) as err:
        raise ConfigError(f"invalid training configuration: {err}") from err


def _ensure_outdir(path) -> Path:
    if path is None:
        raise ConfigError("an output directory is required (--out)")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(outdir: Path, values: dict[str, str]) -> None:
    lines = [f"{key} = {values[key]}" for key in sorted(values)]
    (outdir / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _echo_args(outdir: Path, args, **overrides) -> None:
    """Echo every parsed argument of a command that takes no config file."""
    values = {**vars(args), "out": outdir, **overrides}
    _echo_config(
        outdir,
        {k: str(v) for k, v in values.items() if k not in ("command", "func")},
    )


def _require_paths(values: dict[str, str], keys: tuple[str, ...]) -> None:
    for key in keys:
        if not values.get(key):
            raise ConfigError(f"missing required input {key!r}")


def _check_rows(labels, labels_path, rows: int, rows_path, what: str) -> None:
    """A label file must have one row per row of the file it describes."""
    if len(labels) != rows:
        # offset 8 is the row count in the labels, features and codes headers
        raise FileFormatError(
            f"{labels_path} has {len(labels)} label rows but {rows_path} "
            f"has {rows} {what} rows",
            8,
        )


def _check_width(features, features_path, dim: int, dim_path) -> None:
    if features.shape[1] != dim:
        # offset 16 is the feature dim in the features header
        raise FileFormatError(
            f"{features_path} has {features.shape[1]} features per row but "
            f"{dim_path} has {dim}",
            16,
        )


def _read_train_inputs(values, with_queries: bool):
    """Read the database features and labels, and with_queries the query
    ones, and check that they agree before any training work."""
    features = dataio.read_features(values["features"])
    labels = dataio.read_labels(values["labels"])
    _check_rows(labels, values["labels"], len(features), values["features"], "feature")
    if not with_queries:
        return features, labels, None, None
    _require_paths(values, ("query_features", "query_labels"))
    query_features = dataio.read_features(values["query_features"])
    query_labels = dataio.read_labels(values["query_labels"])
    _check_rows(
        query_labels, values["query_labels"],
        len(query_features), values["query_features"], "feature",
    )
    _check_width(
        query_features, values["query_features"], features.shape[1], values["features"]
    )
    return features, labels, query_features, query_labels


def cmd_gen_data(args) -> int:
    outdir = _ensure_outdir(args.out)
    features, labels = dataio.gen_synthetic_clusters(
        args.clusters, args.per_cluster, args.dim, args.sigma, args.seed
    )
    parts = dataio.split(len(labels), args.queries, args.val, args.seed)
    groups = [
        ("db", parts.db_indices),
        ("query", parts.query_indices),
        ("val", parts.val_indices),
    ]
    for name, indices in groups:
        if len(indices) == 0:
            continue
        dataio.write_features(outdir / f"{name}_features.bin", features[indices])
        dataio.write_labels(outdir / f"{name}_labels.bin", labels.subset(indices))
    _echo_args(outdir, args)
    print(f"wrote dataset with {len(labels)} points to {outdir}")
    return EXIT_OK


def cmd_train(args) -> int:
    values = _resolve(args, _TRAIN_KEYS)
    _require_paths(values, ("features", "labels"))
    config = _train_config(values)
    outdir = _ensure_outdir(values.get("out"))
    features, labels, query_features, query_labels = _read_train_inputs(
        values, config.mode == "asymmetric_separate_queries"
    )
    diverged = None
    try:
        model, codes, history = train(
            features,
            labels,
            config,
            query_features=query_features,
            query_labels=query_labels,
        )
    except TrainingDiverged as err:
        # keep the last good state on disk before reporting the failure
        diverged = err
        model, codes, history = err.partial
    dataio.write_model(outdir / "model.bin", model)
    (outdir / "history.csv").write_text(history_to_csv(history), encoding="utf-8")
    _echo_config(outdir, values)
    if codes is None:  # a diverged symmetric run keeps only its model
        codes = encode_queries(model, features)
    dataio.write_codes(outdir / "db_codes.bin", codes)
    if diverged is not None:
        print(
            f"numeric failure: {diverged}; last good state written to {outdir}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    print(
        f"trained {config.mode} run: {codes.rows} codes of {codes.code_len} bits "
        f"-> {outdir}"
    )
    return EXIT_OK


def cmd_encode(args) -> int:
    model = dataio.read_model(args.model)
    features = dataio.read_features(args.features)
    _check_width(features, args.features, model.feature_dim, args.model)
    codes = encode_queries(model, features)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    dataio.write_codes(args.out, codes)
    print(f"encoded {codes.rows} points at {codes.code_len} bits -> {args.out}")
    return EXIT_OK


def _check_eval_inputs(args, query_codes, db_codes, query_labels, db_labels):
    """Both code files must hold rows, and row counts and code lengths must
    agree, before any ranking work."""
    for codes, path in ((query_codes, args.query_codes), (db_codes, args.db_codes)):
        if codes.rows == 0:
            # offset 8 is the row count in the codes header
            raise FileFormatError(f"{path} has no code rows", 8)
    _check_rows(
        query_labels, args.query_labels, query_codes.rows, args.query_codes, "code"
    )
    _check_rows(db_labels, args.db_labels, db_codes.rows, args.db_codes, "code")
    if query_codes.code_len != db_codes.code_len:
        raise FileFormatError(
            f"{args.query_codes} has {query_codes.code_len}-bit codes but "
            f"{args.db_codes} has {db_codes.code_len}-bit codes",
            16,
        )


def _check_cutoff(cutoff) -> None:
    if cutoff is not None and cutoff < 1:
        raise ConfigError(f"map_cutoff must be >= 1, got {cutoff}")


def cmd_eval(args) -> int:
    _check_cutoff(args.map_cutoff)
    outdir = _ensure_outdir(args.out)
    query_codes = dataio.read_codes(args.query_codes)
    db_codes = dataio.read_codes(args.db_codes)
    query_labels = dataio.read_labels(args.query_labels)
    db_labels = dataio.read_labels(args.db_labels)
    _check_eval_inputs(args, query_codes, db_codes, query_labels, db_labels)
    k_max = min(args.topk, db_codes.rows)
    metrics = evaluate.retrieval_metrics(
        query_codes, db_codes, query_labels, db_labels, args.map_cutoff, k_max
    )

    meta = [
        "# map_normalization = min(relevant, cutoff)",
        "# empty_retrieval_precision = 1.0",
        "# zero_relevant_recall = 1.0",
        f"# map_cutoff = {args.map_cutoff if args.map_cutoff else 'none'}",
    ]
    rows = ["metric,param,value", f"map,cutoff=none,{metrics.map!r}"]
    if args.map_cutoff:
        rows.append(f"map,cutoff={args.map_cutoff},{metrics.cutoff_map!r}")
    (outdir / "metrics.csv").write_text(
        "\n".join(meta + rows) + "\n", encoding="utf-8"
    )

    lines = ["k,precision"]
    lines.extend(
        f"{k + 1},{float(p)!r}" for k, p in enumerate(metrics.topk_precision)
    )
    (outdir / "topk_curve.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["# one row per Hamming radius 0..code_len", "precision,recall"]
    lines.extend(
        f"{float(p)!r},{float(r)!r}"
        for p, r in zip(metrics.precision, metrics.recall)
    )
    (outdir / "pr_curve.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    _echo_args(outdir, args, map_cutoff=args.map_cutoff or "none", topk=k_max)
    print(f"map = {metrics.map:.6f} -> {outdir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    outdir = _ensure_outdir(args.out)
    sizes = [int(s) for s in args.sizes.split(",")]
    modes = []
    for mode in args.modes.split(","):
        mode = mode.strip()
        if mode not in PROBE_MODES:
            raise ConfigError(f"bench mode must not be {mode!r}")
        modes.append(mode)
    lines = ["mode,n,seconds"]
    slopes = []
    for mode in modes:
        result = complexity_probe(
            sizes,
            query_count=args.omega,
            code_len=args.bits,
            mode=mode,
            seed=args.seed,
        )
        for n, secs in zip(result.sizes, result.seconds):
            lines.append(f"{mode},{n},{secs!r}")
        slopes.append(f"# slope {mode} = {result.slope!r}")
        print(f"{mode}: slope {result.slope:.3f}")
    (outdir / "bench.csv").write_text(
        "\n".join(slopes + lines) + "\n", encoding="utf-8"
    )
    _echo_args(outdir, args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _resolve(args, CONFIG_KEYS)
    if values["mode"] != "asymmetric_sampled":
        raise ConfigError(
            f"sweep grids gamma and omega, which only mode 'asymmetric_sampled' "
            f"reads; got mode {values['mode']!r}"
        )
    _require_paths(
        values, ("features", "labels", "query_features", "query_labels")
    )
    outdir = _ensure_outdir(values.get("out"))
    features, labels, query_features, query_labels = _read_train_inputs(values, True)
    if len(query_features) == 0:
        # offset 8 is the row count in the features header
        raise FileFormatError(f"{values['query_features']} has no rows", 8)
    gammas = [float(g) for g in args.gammas.split(",")]
    omegas = [int(o) for o in args.omegas.split(",")]
    cutoff = int(values["map_cutoff"]) if values.get("map_cutoff") else None
    _check_cutoff(cutoff)
    # every trial's configuration is checked before the first one trains
    configs = [
        _train_config({**values, "gamma": repr(gamma), "omega": str(omega)})
        for gamma in gammas
        for omega in omegas
    ]
    lines = ["gamma,omega,map"]
    for config in configs:
        model, codes, _ = train(features, labels, config)
        # sweep reports MAP only; k_max = 1 keeps the unused curve small
        score = evaluate.retrieval_metrics(
            encode_queries(model, query_features),
            codes, query_labels, labels, cutoff, 1,
        ).cutoff_map
        gamma, omega = config.gamma, config.query_count
        lines.append(f"{gamma!r},{omega},{score!r}")
        print(f"gamma={gamma} omega={omega}: map={score:.6f}")
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _echo_config(outdir, values)
    return EXIT_OK


def _add_flag(parser: argparse.ArgumentParser, key: str) -> None:
    option = TRAIN_OPTIONS[key]
    parser.add_argument(
        "--" + key.replace("_", "-"), type=option.type, help=option.help
    )


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for key in _TRAIN_KEYS:
        _add_flag(parser, key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymhash",
        description="Learn database hash codes directly and a query encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic clustered dataset")
    p.add_argument("--clusters", type=int, default=10)
    p.add_argument("--per-cluster", dest="per_cluster", type=int, default=200)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--val", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train codes and the query encoder")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="hash feature rows with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output codes file")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="Hamming-ranking retrieval metrics")
    p.add_argument("--query-codes", dest="query_codes", required=True)
    p.add_argument("--db-codes", dest="db_codes", required=True)
    p.add_argument("--query-labels", dest="query_labels", required=True)
    p.add_argument("--db-labels", dest="db_labels", required=True)
    p.add_argument("--map-cutoff", dest="map_cutoff", type=int, default=None)
    p.add_argument("--topk", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="per-iteration wall-clock scaling probe")
    p.add_argument("--sizes", default="2000,4000,8000")
    p.add_argument("--omega", type=int, default=200)
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--modes", default="asymmetric_sampled,symmetric_baseline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="grid over gamma and query-set size")
    _add_train_flags(p)
    p.add_argument("--gammas", default="200")
    p.add_argument("--omegas", default="1000")
    _add_flag(p, "map_cutoff")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad flags, matching the config-error code
        return EXIT_CONFIG if err.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, IsADirectoryError, PermissionError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except FileFormatError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, NonFiniteError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

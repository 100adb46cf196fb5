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

from . import dataio, evaluate
from .dataio import FileFormatError
from .encoder import NonFiniteError, encode_queries
from .solver import (
    TrainConfig,
    TrainingDiverged,
    complexity_probe,
    history_to_csv,
    train,
    train_symmetric_baseline,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid or unknown configuration input."""


# Keys accepted in config files; flags use the same names.
CONFIG_KEYS = (
    "seed",
    "bits",
    "gamma",
    "omega",
    "tout",
    "tin",
    "batch",
    "lr",
    "mode",
    "optimizer",
    "hidden",
    "weighting",
    "map_cutoff",
    "features",
    "labels",
    "query_features",
    "query_labels",
    "out",
)

TRAIN_DEFAULTS = {
    "seed": "0",
    "bits": "16",
    "gamma": "200.0",
    "omega": "1000",
    "tout": "50",
    "tin": "3",
    "batch": "128",
    "lr": "0.001",
    "mode": "asymmetric_sampled",
    "optimizer": "sgd",
    "hidden": "512",
    "weighting": "on",
}


def load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
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
    merged = {k: TRAIN_DEFAULTS[k] for k in needed if k in TRAIN_DEFAULTS}
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            if key in needed:
                merged[key] = value
    for key in needed:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = str(flag)
    return merged


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be on/off, got {value!r}")


def _parse_hidden(value: str) -> tuple[int, ...]:
    value = value.strip()
    if not value or value.lower() == "none":
        return ()
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError as err:
        raise ConfigError(f"hidden must be comma-separated ints: {value!r}") from err


def _train_config(values: dict[str, str]) -> TrainConfig:
    try:
        return TrainConfig(
            code_len=int(values["bits"]),
            gamma=float(values["gamma"]),
            query_count=int(values["omega"]),
            outer_iters=int(values["tout"]),
            inner_iters=int(values["tin"]),
            batch_size=int(values["batch"]),
            learning_rate=float(values["lr"]),
            seed=int(values["seed"]),
            mode=values["mode"],
            imbalance_weighting=_parse_bool(values["weighting"], "weighting"),
            hidden_dims=_parse_hidden(values["hidden"]),
            optimizer=values["optimizer"],
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


def _check_train_inputs(values, features, labels, query_features, query_labels):
    """Feature and label files must agree before any training work."""
    _check_rows(labels, values["labels"], len(features), values["features"], "feature")
    if query_features is None:
        return
    _check_rows(
        query_labels, values["query_labels"],
        len(query_features), values["query_features"], "feature",
    )
    _check_width(
        query_features, values["query_features"], features.shape[1], values["features"]
    )


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
    _echo_config(
        outdir,
        {
            "clusters": str(args.clusters),
            "per_cluster": str(args.per_cluster),
            "dim": str(args.dim),
            "sigma": str(args.sigma),
            "seed": str(args.seed),
            "queries": str(args.queries),
            "val": str(args.val),
            "out": str(outdir),
        },
    )
    print(f"wrote dataset with {len(labels)} points to {outdir}")
    return EXIT_OK


_TRAIN_KEYS = (
    "seed", "bits", "gamma", "omega", "tout", "tin", "batch", "lr",
    "mode", "optimizer", "hidden", "weighting",
    "features", "labels", "query_features", "query_labels", "out",
)


def cmd_train(args) -> int:
    values = _resolve(args, _TRAIN_KEYS)
    _require_paths(values, ("features", "labels"))
    config = _train_config(values)
    outdir = _ensure_outdir(values.get("out"))
    features = dataio.read_features(values["features"])
    labels = dataio.read_labels(values["labels"])
    query_features = query_labels = None
    if config.mode == "asymmetric_separate_queries":
        _require_paths(values, ("query_features", "query_labels"))
        query_features = dataio.read_features(values["query_features"])
        query_labels = dataio.read_labels(values["query_labels"])
    _check_train_inputs(values, features, labels, query_features, query_labels)
    diverged = None
    try:
        if config.mode == "symmetric_baseline":
            model, history = train_symmetric_baseline(features, labels, config)
            codes = None
        else:
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
    if codes is None:
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
    dataio.write_codes(args.out, codes)
    print(f"encoded {codes.rows} points at {codes.code_len} bits -> {args.out}")
    return EXIT_OK


def _check_eval_inputs(args, query_codes, db_codes, query_labels, db_labels):
    """Row counts and code lengths must agree before any ranking work."""
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


def cmd_eval(args) -> int:
    outdir = _ensure_outdir(args.out)
    query_codes = dataio.read_codes(args.query_codes)
    db_codes = dataio.read_codes(args.db_codes)
    query_labels = dataio.read_labels(args.query_labels)
    db_labels = dataio.read_labels(args.db_labels)
    _check_eval_inputs(args, query_codes, db_codes, query_labels, db_labels)
    k_max = min(args.topk, db_codes.rows)
    metrics = evaluate.retrieval_metrics(
        query_codes, db_codes, query_labels, db_labels, args.map_cutoff or None, k_max
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
    lines.extend(f"{k + 1},{p!r}" for k, p in enumerate(metrics.topk_precision))
    (outdir / "topk_curve.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["# one row per Hamming radius 0..code_len", "precision,recall"]
    lines.extend(f"{p!r},{r!r}" for p, r in zip(metrics.precision, metrics.recall))
    (outdir / "pr_curve.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    _echo_config(
        outdir,
        {
            "query_codes": str(args.query_codes),
            "db_codes": str(args.db_codes),
            "query_labels": str(args.query_labels),
            "db_labels": str(args.db_labels),
            "map_cutoff": str(args.map_cutoff if args.map_cutoff else "none"),
            "topk": str(k_max),
            "out": str(outdir),
        },
    )
    print(f"map = {metrics.map:.6f} -> {outdir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    outdir = _ensure_outdir(args.out)
    sizes = [int(s) for s in args.sizes.split(",")]
    modes = []
    for mode in args.modes.split(","):
        mode = mode.strip()
        if mode not in ("asymmetric_sampled", "symmetric_baseline"):
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
    _echo_config(
        outdir,
        {
            "sizes": args.sizes,
            "omega": str(args.omega),
            "bits": str(args.bits),
            "modes": args.modes,
            "seed": str(args.seed),
            "out": str(outdir),
        },
    )
    return EXIT_OK


_SWEEP_KEYS = _TRAIN_KEYS + ("map_cutoff",)


def cmd_sweep(args) -> int:
    values = _resolve(args, _SWEEP_KEYS)
    _require_paths(
        values, ("features", "labels", "query_features", "query_labels")
    )
    outdir = _ensure_outdir(values.get("out"))
    features = dataio.read_features(values["features"])
    labels = dataio.read_labels(values["labels"])
    query_features = dataio.read_features(values["query_features"])
    query_labels = dataio.read_labels(values["query_labels"])
    _check_train_inputs(values, features, labels, query_features, query_labels)
    gammas = [float(g) for g in args.gammas.split(",")]
    omegas = [int(o) for o in args.omegas.split(",")]
    cutoff = int(values["map_cutoff"]) if values.get("map_cutoff") else None
    if cutoff is not None and cutoff < 1:
        raise ConfigError(f"map_cutoff must be >= 1, got {cutoff}")
    lines = ["gamma,omega,map"]
    for gamma in gammas:
        for omega in omegas:
            trial = dict(values)
            trial["gamma"] = repr(gamma)
            trial["omega"] = str(omega)
            config = _train_config(trial)
            model, codes, _ = train(features, labels, config)
            # sweep reports MAP only; k_max = 1 keeps the unused curve small
            score = evaluate.retrieval_metrics(
                encode_queries(model, query_features),
                codes, query_labels, labels, cutoff, 1,
            ).cutoff_map
            lines.append(f"{gamma!r},{omega},{score!r}")
            print(f"gamma={gamma} omega={omega}: map={score:.6f}")
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _echo_config(outdir, values)
    return EXIT_OK


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--omega", type=int, help="sampled query count")
    parser.add_argument("--bits", type=int, help="code length")
    parser.add_argument("--tout", type=int, help="outer iterations")
    parser.add_argument("--tin", type=int, help="inner iterations")
    parser.add_argument("--batch", type=int, help="minibatch size")
    parser.add_argument("--lr", type=float, help="learning rate")
    parser.add_argument("--mode", help="training mode")
    parser.add_argument("--optimizer", help="sgd or adam")
    parser.add_argument("--hidden", help="comma-separated hidden layer sizes")
    parser.add_argument("--weighting", help="imbalance weighting on/off")
    parser.add_argument("--features", help="database features file")
    parser.add_argument("--labels", help="database labels file")
    parser.add_argument("--query-features", dest="query_features")
    parser.add_argument("--query-labels", dest="query_labels")
    parser.add_argument("--out", help="output directory")


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
    p.add_argument("--map-cutoff", dest="map_cutoff", type=int, default=None)
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

"""One benchmark repetition in a fresh process.

Makes the workload's inputs from the seed, then runs the CLI pipeline
``train -> encode -> eval`` in-process through ``asymhash.cli.main`` and
writes what it measured to ``<work>/result.json``. Run by ``run.py``:

    python3 perfbench/rep.py --workload clusters-20k --seed 1 \
        --mode plain --work perfbench/_work/rep0

Modes: ``plain`` (untraced), ``spans`` (per-layer spans and counters),
``alloc`` (per-layer peak ``tracemalloc`` allocation).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import struct
import sys
import time
from pathlib import Path

import numpy as np

import spans


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # "clusters" (gen-data) or "multilabel" (benchmark-generated)
    db_rows: int  # database rows the program trains on
    query_rows: int
    bits: int
    train_flags: tuple[str, ...]
    map_bar: float | None  # held-out MAP the run must reach, when set


CLUSTERS = 10  # gen-data workloads
LABEL_IDS = 80  # multilabel rows draw ids from range(LABEL_IDS), COCO-sized
DIM = 32

_COMMON = ("--batch", "128", "--optimizer", "adam", "--lr", "1e-3")
_WEIGHTED = ("--omega", "200", "--tout", "2", "--tin", "2", "--weighting", "on")

# Why each workload exists, and what it stresses: see README.md.
WORKLOADS = {
    "clusters-20k": Workload(
        "clusters", 20000, 200, 16, _COMMON + _WEIGHTED, 0.95,
    ),
    "retrieval-50k": Workload(
        "clusters", 50000, 250, 64,
        _COMMON + ("--omega", "200", "--tout", "1", "--tin", "1", "--weighting", "off"),
        None,
    ),
    "multilabel-80": Workload(
        "multilabel", 10000, 200, 16, _COMMON + _WEIGHTED, None,
    ),
}

# Same shapes and flags at a size that runs in about a second.
SMOKE = {
    "clusters-20k": dict(db_rows=1000, query_rows=50),
    "retrieval-50k": dict(db_rows=2000, query_rows=50),
    "multilabel-80": dict(db_rows=1000, query_rows=50),
}

EVAL_FLAGS = ("--map-cutoff", "5000", "--topk", "100")


def workload(name: str, smoke: bool) -> Workload:
    base = WORKLOADS[name]
    return dataclasses.replace(base, **SMOKE[name]) if smoke else base


def _multilabel_arrays(w: Workload, seed: int):
    """Rows with 1-3 label ids; features are their centres' mean plus noise."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1.0, 1.0, size=(LABEL_IDS, DIM))
    counts = rng.integers(1, 4, size=w.db_rows + w.query_rows)
    label_sets = [rng.choice(LABEL_IDS, size=c, replace=False) for c in counts]
    features = np.stack([centres[ids].mean(axis=0) for ids in label_sets])
    features += rng.normal(0.0, 0.1, size=features.shape)
    return features, label_sets


def make_inputs(cli, dataio, simgraph, w: Workload, seed: int, data: Path) -> float:
    """Writes the workload's input files; returns the program's share of time."""
    if w.kind == "clusters":
        per_cluster = -(-(w.db_rows + w.query_rows) // CLUSTERS)
        queries = per_cluster * CLUSTERS - w.db_rows
        argv = [
            "gen-data", "--out", str(data), "--clusters", str(CLUSTERS),
            "--per-cluster", str(per_cluster), "--queries", str(queries),
            "--dim", str(DIM), "--sigma", "0.1", "--seed", str(seed),
        ]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"gen-data exited {code}")
        return elapsed
    features, label_sets = _multilabel_arrays(w, seed)
    db = slice(0, w.db_rows)
    query = slice(w.db_rows, None)
    start = time.perf_counter()
    data.mkdir(parents=True, exist_ok=True)
    for name, part in (("db", db), ("query", query)):
        dataio.write_features(data / f"{name}_features.bin", features[part])
        dataio.write_labels(
            data / f"{name}_labels.bin", simgraph.LabelMatrix(label_sets[part])
        )
    return time.perf_counter() - start


def code_header(path: Path) -> tuple[int, int]:
    """(rows, code_len) of a code file, read without the program."""
    with open(path, "rb") as fh:
        head = fh.read(20)
    if len(head) != 20 or head[:8] != b"ADSHCOD1":
        raise ValueError(f"{path.name} is not a code file")
    return struct.unpack("<QI", head[8:])


def read_map(path: Path) -> float:
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("map,cutoff=none,"):
            return float(line.rsplit(",", 1)[1])
    raise ValueError("metrics.csv has no full-ranking MAP row")


def run_pipeline(cli, w: Workload, seed: int, data: Path, out: Path) -> dict:
    train = [
        "train", "--features", str(data / "db_features.bin"),
        "--labels", str(data / "db_labels.bin"), "--out", str(out / "run"),
        "--bits", str(w.bits), "--seed", str(seed), *w.train_flags,
    ]
    encode = [
        "encode", "--model", str(out / "run" / "model.bin"),
        "--features", str(data / "query_features.bin"),
        "--out", str(out / "run" / "query_codes.bin"),
    ]
    evaluate = [
        "eval", "--query-codes", str(out / "run" / "query_codes.bin"),
        "--db-codes", str(out / "run" / "db_codes.bin"),
        "--query-labels", str(data / "query_labels.bin"),
        "--db-labels", str(data / "db_labels.bin"),
        *EVAL_FLAGS, "--out", str(out / "metrics"),
    ]
    t0 = time.perf_counter()
    train_code = cli.main(train)
    t1 = time.perf_counter()
    encode_code = cli.main(encode)
    t2 = time.perf_counter()
    eval_code = cli.main(evaluate)
    t3 = time.perf_counter()
    return {
        "exit_codes": [train_code, encode_code, eval_code],
        "train_s": t1 - t0,
        "eval_s": t3 - t2,
        "pipeline_s": t3 - t0,
    }


def check_outputs(w: Workload, out: Path, result: dict) -> list[str]:
    """Correctness problems of one repetition; empty when it passed."""
    problems = [
        f"{cmd} exited {code}"
        for cmd, code in zip(("train", "encode", "eval"), result["exit_codes"])
        if code != 0
    ]
    if problems:
        return problems
    expected = {
        "db_codes.bin": (w.db_rows, w.bits),
        "query_codes.bin": (w.query_rows, w.bits),
    }
    for name, shape in expected.items():
        got = code_header(out / "run" / name)
        if got != shape:
            problems.append(f"{name} has rows/bits {got}, expected {shape}")
    if w.map_bar is not None and not result["map"] >= w.map_bar:
        problems.append(f"MAP {result['map']!r} below {w.map_bar}")
    return problems


def blas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "alloc"), default="plain")
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args(argv)
    w = workload(args.workload, args.smoke)
    work = Path(args.work)
    data = work / "data"

    start = time.perf_counter()
    import asymhash
    from asymhash import cli, dataio, simgraph

    import_s = time.perf_counter() - start
    inputs_s = make_inputs(cli, dataio, simgraph, w, args.seed, data)

    recorder = None
    undo = []
    if args.mode == "spans":
        recorder = spans.SpanRecorder()
    elif args.mode == "alloc":
        recorder = spans.AllocRecorder()
        recorder.start()
    if recorder is not None:
        undo = spans.install(recorder)
    try:
        result = run_pipeline(cli, w, args.seed, data, work)
    finally:
        spans.uninstall(undo)
        if args.mode == "alloc":
            recorder.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["setup_s"] = import_s + inputs_s
    result["import_s"] = import_s
    if all(code == 0 for code in result["exit_codes"]):
        result["map"] = read_map(work / "metrics" / "metrics.csv")
        db_codes = (work / "run" / "db_codes.bin").read_bytes()
        result["db_codes_sha256"] = hashlib.sha256(db_codes).hexdigest()
    result["problems"] = check_outputs(w, work, result)
    if args.mode == "spans":
        result["layers"] = recorder.summary()
        result["covered"] = recorder.command_coverage()
    elif args.mode == "alloc":
        result["layers"] = recorder.peaks
    result["package"] = str(Path(asymhash.__file__).resolve().parent)
    result["numpy"] = np.__version__
    result["blas"] = blas_version()
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the asymhash CLI pipeline (train -> encode -> eval).

    python3 perfbench/run.py --workload clusters-20k --seed 1 --seconds 40 --trace 0

Runs repetitions of one workload, each in a fresh process (``rep.py``),
until ``--seconds`` is used up (at least ``MIN_REPS``), checks every
repetition's outputs, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment (thread count, nproc, numpy and BLAS versions,
source revision) and the sha256 of ``db_codes.bin``.

``--trace 0`` reports the end-to-end metrics (medians over untraced
repetitions). ``--trace 1`` alternates untraced and span-traced
repetitions, ends with one ``tracemalloc`` repetition, and reports the
per-layer metrics. ``--smoke`` runs every workload at tiny sizes, both
ways, in seconds. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOADS = ("clusters-20k", "retrieval-50k", "multilabel-80")
MIN_REPS = 3  # measured repetitions, after one warm-up
HARD_LIMIT_S = 170.0  # the whole run must end well within 180 s
# One BLAS thread: on a shared 2-core VM, two threads were ~5% faster on
# clusters-20k but varied 1.7x as much from repetition to repetition.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.v_step.s": "s",
    "solver.v_step.calls": "count",
    "solver.v_step.bits_flipped": "count",
    "solver.objective.s": "s",
    "solver.objective.calls": "count",
    "solver.train.self_s": "s",
    "encoder.minibatch_step.s": "s",
    "encoder.minibatch_step.calls": "count",
    "encoder.forward.s": "s",
    "encoder.encode_queries.s": "s",
    "simgraph.build_sampled_similarity.s": "s",
    "simgraph.LabelMatrix.shares_label.s": "s",
    "simgraph.LabelMatrix.shares_label.calls": "count",
    "simgraph.LabelMatrix.shares_label.pairs": "count",
    "hashcore.pairwise_hamming.s": "s",
    "hashcore.pairwise_hamming.pairs": "count",
    "hashcore.pairwise_hamming.bytes_computed": "bytes",
    "hashcore.CodeMatrix.from_signs.s": "s",
    "evaluate.rank_by_hamming.self_s": "s",
    "evaluate.mean_average_precision.s": "s",
    "evaluate.topk_precision_curve.s": "s",
    "evaluate.precision_recall_by_radius.self_s": "s",
    "evaluate.relevance_from_labels.self_s": "s",
    "dataio.read_features.s": "s",
    "dataio.read_labels.s": "s",
    "dataio.read_labels.bytes": "bytes",
    "dataio.read_codes.s": "s",
    "dataio.read_model.s": "s",
    "dataio.write_codes.s": "s",
    "dataio.write_model.s": "s",
    "cli.train.self_s": "s",
    "cli.encode.self_s": "s",
    "cli.eval.self_s": "s",
    "solver.v_step.peak_alloc_mb": "MB",
    "solver.objective.peak_alloc_mb": "MB",
    "encoder.minibatch_step.peak_alloc_mb": "MB",
    "simgraph.build_sampled_similarity.peak_alloc_mb": "MB",
    "hashcore.pairwise_hamming.peak_alloc_mb": "MB",
    "evaluate.rank_by_hamming.peak_alloc_mb": "MB",
    "evaluate.mean_average_precision.peak_alloc_mb": "MB",
    "evaluate.precision_recall_by_radius.peak_alloc_mb": "MB",
    "trace.overhead": "ratio",
    "trace.coverage_train": "ratio",
    "trace.coverage_eval": "ratio",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def source_revision() -> str:
    """The git SHA, or a digest of ``src/`` where the checkout is not a repository."""
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            if proc.returncode == 0:
                return "git:" + proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def run_rep(workload, seed, mode, index, smoke, timeout):
    """One repetition in a fresh process; returns its result dict.

    A "warmup" repetition runs untraced and is checked, but its timings
    are not used.
    """
    work = WORK / f"{workload}-{seed}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--mode", "plain" if mode == "warmup" else mode,
        "--work", str(work),
    ]
    if smoke:
        cmd.append("--smoke")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
        result_file = work / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            result = {"problems": [f"rep exited {proc.returncode}: {' | '.join(tail)}"]}
        else:
            result = json.loads(result_file.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        result = {"problems": [f"rep timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["mode"] = mode
    result["wall_s"] = time.perf_counter() - started
    if "package" in result and Path(result["package"]) != SRC / "asymhash":
        raise SetupError(f"imported asymhash from {result['package']}, not {SRC}")
    return result


def run_reps(workload, seed, seconds, trace, smoke):
    """A warm-up, then repetitions until the time is used (at least MIN_REPS)."""
    start = time.perf_counter()
    cycle = ("spans", "plain") if trace else ("plain",)
    # a tracemalloc repetition takes about 1.5x an untraced one
    reserve = 1.5 if trace else 0.0
    reps = [run_rep(workload, seed, "warmup", 0, smoke, HARD_LIMIT_S)]
    if any(p.startswith("rep exited") for p in reps[0]["problems"]):
        return reps  # the program cannot run here; more tries cost time only
    while True:
        elapsed = time.perf_counter() - start
        need = reps[-1]["wall_s"] * (1 + reserve)
        measured = len(reps) - 1
        if measured >= MIN_REPS and elapsed + need > seconds:
            break
        if HARD_LIMIT_S - elapsed < 2 * need:
            break
        mode = cycle[measured % len(cycle)]
        reps.append(
            run_rep(workload, seed, mode, len(reps), smoke, HARD_LIMIT_S - elapsed)
        )
    if trace:
        remaining = HARD_LIMIT_S - (time.perf_counter() - start)
        reps.append(run_rep(workload, seed, "alloc", len(reps), smoke, remaining))
    return reps


def mark_failures(reps) -> None:
    """A repetition fails on any problem, or a db_codes.bin unlike the rest."""
    digests = collections.Counter(
        r["db_codes_sha256"] for r in reps if "db_codes_sha256" in r
    )
    if not digests:
        return
    expected = digests.most_common(1)[0][0]
    for r in reps:
        if r.get("db_codes_sha256", expected) != expected:
            r["problems"].append("db_codes.bin differs from the other repetitions")


def median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(passed) -> dict:
    plain = [r for r in passed if r["mode"] == "plain"]
    return {name: median([r[name] for r in plain]) for name in END_TO_END}


def per_layer_metrics(passed) -> dict:
    plain = [r for r in passed if r["mode"] == "plain"]
    traced = [r for r in passed if r["mode"] == "spans"]
    alloc = [r for r in passed if r["mode"] == "alloc"]
    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        source = alloc if name.endswith(".peak_alloc_mb") else traced
        # a layer the pipeline never called did no work
        out[name] = median([r["layers"].get(name, 0) for r in source])
    if plain and traced:
        out["trace.overhead"] = (
            median([r["pipeline_s"] for r in traced])
            / median([r["pipeline_s"] for r in plain])
        )
        out["trace.coverage_train"] = median(
            [r["covered"]["cli.train"] / r["train_s"] for r in traced]
        )
        out["trace.coverage_eval"] = median(
            [r["covered"]["cli.eval"] / r["eval_s"] for r in traced]
        )
    return out


def benchmark(workload, seed, seconds, trace, smoke) -> tuple[dict, dict]:
    reps = run_reps(workload, seed, seconds, trace, smoke)
    mark_failures(reps)
    passed = [r for r in reps if not r["problems"]]
    if trace:
        values, units = per_layer_metrics(passed), PER_LAYER
    else:
        values, units = end_to_end_metrics(passed), END_TO_END
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in units
        if values.get(name) is not None
    }
    failed = len(reps) - len(passed)
    complete = len(metrics) == len(units)
    result = {
        "correct": failed == 0 and complete,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    first = next((r for r in reps if "numpy" in r), {})
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "revision": source_revision(),
        "db_codes_sha256": sorted({r["db_codes_sha256"] for r in passed}),
        "map": sorted({r["map"] for r in passed}),
        "reps": [
            {"mode": r["mode"], "wall_s": r["wall_s"], "problems": r["problems"]}
            for r in reps
        ],
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload runs all, both traces")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "asymhash" / "__init__.py").is_file():
        print(f"error: no asymhash package under {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        runs = [(w, t) for w in workloads for t in (0, 1)]
        seconds = 0.0
    else:
        runs = [(args.workload, args.trace)]
        seconds = args.seconds
    ok = True
    try:
        for workload, trace in runs:
            info, result = benchmark(workload, args.seed, seconds, trace, args.smoke)
            if not result["metrics"]:
                print(json.dumps(info), file=sys.stderr)
                print("error: no repetition passed", file=sys.stderr)
                return 1
            print(json.dumps(info))
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"]
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()  # each repetition removed its own directory
        except OSError:
            pass
    return 0 if ok or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())

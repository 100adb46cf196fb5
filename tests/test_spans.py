"""The benchmark's traced names must exist, so that renaming or removing a
traced function fails here and not only in a ``--trace 1`` benchmark run.
Their call counts in a small train and a small evaluation are pinned too,
so the per-layer figures stay comparable from one version to the next and
a refactor that bypasses a traced stage fails here."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from asymhash import evaluate, hashcore
from asymhash.dataio import gen_synthetic_clusters
from asymhash.hashcore import CodeMatrix
from asymhash.simgraph import LabelMatrix
from asymhash.solver import TrainConfig, train

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_resolves():
    spans = load_spans()
    # spans.install looks each target up the same way
    missing = [
        f"{path} {attr} ({name})"
        for path, attr, name in spans.TARGETS
        if attr not in spans._owner(path).__dict__
    ]
    assert not missing, f"span targets that no longer resolve: {missing}"


def test_span_call_counts_of_a_small_train():
    # one objective at the start, one after each theta and each V phase;
    # ceil(m / batch) minibatch steps per theta phase; one V-step per phase
    spans = load_spans()
    features, labels = gen_synthetic_clusters(4, 30, 8, 0.1, seed=38)
    tout, tin, m, batch = 2, 2, 40, 16
    config = TrainConfig(
        code_len=8, query_count=m, outer_iters=tout, inner_iters=tin,
        batch_size=batch, seed=38, hidden_dims=(8,),
    )
    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        train(features, labels, config)
    finally:
        spans.uninstall(undo)
    counts = recorder.summary()
    assert counts["solver.objective.calls"] == 1 + 2 * tout * tin
    assert counts["encoder.minibatch_step.calls"] == tout * tin * math.ceil(m / batch)
    assert counts["solver.v_step.calls"] == tout * tin
    assert counts["simgraph.build_sampled_similarity.calls"] == tout


def test_span_call_counts_of_a_small_retrieval_metrics(monkeypatch):
    # each chunk runs every per-chunk stage once; the lookup curve is taken
    # once over all queries
    spans = load_spans()
    rng = np.random.default_rng(39)
    q, n, chunks = 7, 20, 3
    monkeypatch.setattr(hashcore, "CHUNK_PAIRS", 3 * n)  # chunks of 3, 3 and 1
    queries = CodeMatrix.from_signs(rng.integers(0, 2, (q, 8)) * 2 - 1)
    database = CodeMatrix.from_signs(rng.integers(0, 2, (n, 8)) * 2 - 1)
    query_labels = LabelMatrix.from_ids(rng.integers(0, 3, q))
    db_labels = LabelMatrix.from_ids(rng.integers(0, 3, n))
    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        evaluate.retrieval_metrics(queries, database, query_labels, db_labels, None, 5)
    finally:
        spans.uninstall(undo)
    counts = recorder.summary()
    for stage in (
        "hashcore.pairwise_hamming",
        "evaluate.relevance_from_labels",
        "evaluate.rank_by_hamming",
        "evaluate.mean_average_precision",
        "evaluate.topk_precision_curve",
    ):
        assert counts.get(f"{stage}.calls", 0) == chunks, stage
    assert counts.get("evaluate.precision_recall_by_radius.calls", 0) == 1

"""The benchmark's traced names must exist, so that renaming or removing a
traced function fails here and not only in a ``--trace 1`` benchmark run.
Their call counts in a small run are pinned too, so the per-layer figures
stay comparable from one version to the next."""

import importlib.util
import math
from pathlib import Path

from asymhash.dataio import gen_synthetic_clusters
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

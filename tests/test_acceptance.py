"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import time
from dataclasses import replace
from functools import partial

import numpy as np

from asymhash import oracle, solver
from asymhash.dataio import (
    gen_synthetic_clusters,
    read_codes,
    read_features,
    read_labels,
    read_model,
    split,
    write_codes,
    write_features,
    write_labels,
    write_model,
)
from asymhash.encoder import encode_queries, init_encoder, param_grads
from asymhash.evaluate import retrieval_metrics
from asymhash.hashcore import CodeMatrix
from asymhash.oracle import hamming_distance
from asymhash.simgraph import LabelMatrix, SimilarityBlock
from asymhash.solver import (
    TrainConfig,
    _group_stats,
    _pair_loss_and_grad,
    complexity_probe,
    objective,
    train,
    v_step,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_tiny(rng, gamma, weighted):
    n = int(rng.integers(2, 11))
    m = int(rng.integers(1, min(n, 4) + 1))
    c = int(rng.integers(1, 5))
    signs = (rng.integers(0, 2, (m, n)) * 2 - 1).astype(np.int8)
    pos = int((signs == 1).sum())
    neg = signs.size - pos
    rho = pos / neg if weighted and pos and neg else 1.0
    block = SimilarityBlock(
        signs=signs,
        neg_weight=rho,
        query_indices=rng.choice(n, m, replace=False).astype(np.int64),
    )
    relaxed = rng.uniform(-0.95, 0.95, (m, c))
    db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64)
    inst = oracle.TinyInstance(
        relaxed=relaxed,
        signs=signs.astype(np.float64),
        weights=block.weights(),
        gamma=gamma,
        db_signs=db,
        query_indices=block.query_indices,
    )
    return inst, block


def synthetic_benchmark(seed=42):
    features, labels = gen_synthetic_clusters(10, 200, 32, 0.1, seed=seed)
    parts = split(2000, 200, 0, seed=seed)
    return (
        features[parts.db_indices],
        labels.subset(parts.db_indices),
        features[parts.query_indices],
        labels.subset(parts.query_indices),
    )


def benchmark_config(**overrides):
    base = dict(
        code_len=16,
        gamma=200.0,
        query_count=200,
        outer_iters=10,
        inner_iters=3,
        batch_size=128,
        learning_rate=1e-3,
        seed=42,
        optimizer="adam",
        hidden_dims=(512,),
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_criterion_1_bit_update_oracle_equivalence():
    # one v_step sweep per instance; its column k starts from the new
    # columns < k and the old columns >= k, and is checked against the
    # exhaustive minimum over that column
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    checked = columns = 0
    worst_gap = 0.0
    for trial in range(102):
        gamma = (0.0, 1.0, 200.0)[trial % 3]
        weighted = trial % 2 == 0
        inst, block = random_tiny(rng, gamma, weighted)
        old = inst.db_signs
        new = v_step(old.copy(), inst.relaxed, block, gamma)
        # training's int8 codes sweep to the same bits
        signs = v_step(old.astype(np.int8), inst.relaxed, block, gamma)
        assert signs.dtype == np.int8 and np.array_equal(signs, new)
        for k in range(old.shape[1]):
            before = replace(inst, db_signs=np.hstack([new[:, :k], old[:, k:]]))
            after = np.hstack([new[:, : k + 1], old[:, k + 1 :]])
            oracle_col, oracle_best = oracle.exhaustive_column_min(before, k)
            solver_best = oracle.naive_objective(replace(inst, db_signs=after))
            gap = abs(solver_best - oracle_best)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-9, f"objective gap {gap} on trial {trial}, column {k}"
            # any disagreeing bit must be a zero-coefficient tie: flipping it
            # must leave the objective unchanged
            for j in np.flatnonzero(after[:, k] != oracle_col):
                flipped = after.copy()
                flipped[j, k] = -flipped[j, k]
                flipped_best = oracle.naive_objective(replace(inst, db_signs=flipped))
                tie_gap = abs(flipped_best - solver_best)
                assert tie_gap <= 1e-9, f"non-tie disagreement at row {j}"
            columns += 1
        checked += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        checked >= 100 and elapsed < 60.0,
        f"{checked} instances, {columns} columns, worst objective gap "
        f"{worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    worst = 0.0
    pairs = 0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(n, 4) + 1))
        c = int(rng.integers(1, 5))
        d = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 8))
        gamma = float(rng.choice([0.0, 1.0, 200.0]))
        weighted = bool(rng.integers(0, 2))
        model = init_encoder((d, hidden, c), rng)
        feats = rng.normal(0.0, 1.0, (m, d))
        signs = (rng.integers(0, 2, (m, n)) * 2 - 1).astype(np.float64)
        weights = np.where(signs == 1, 1.0, 0.4) if weighted else None
        db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64)
        own = db[rng.choice(n, m, replace=False)]
        _, grad_w, grad_b = param_grads(model, feats, partial(
            _pair_loss_and_grad, db_signs=db, sign_rows=signs,
            weight_rows=weights, own_codes=own, gamma=gamma,
        ))

        def closure():
            from asymhash.encoder import forward

            relaxed = forward(model, feats)
            resid = relaxed @ db.T - c * signs
            sq = resid * resid if weights is None else weights * resid * resid
            diff = relaxed - own
            return float(sq.sum() + gamma * (diff * diff).sum())

        fd_w, fd_b = oracle.finite_difference_model_grad(model, closure, 1e-5)
        for got, want in zip(grad_w + grad_b, fd_w + fd_b):
            worst = max(worst, oracle.relative_error(got, want))
        pairs += 1
    report(2, pairs >= 50 and worst < 1e-5, f"{pairs} pairs, worst rel err {worst:.2e}")


def test_criterion_3_coordinate_descent_monotonic(monkeypatch):
    # each sweep of training is scored before its first column and after
    # each column: a column update writes only its own column, so after
    # column k the codes are the sweep's in columns 0..k and the starting
    # codes in the rest
    traces: list = []
    sweep = solver.v_step

    def scored(db_signs, relaxed, block, gamma, *code_ids):
        before = db_signs.copy()
        sweep(db_signs, relaxed, block, gamma, *code_ids)
        trace = []
        for k in range(db_signs.shape[1] + 1):
            codes = np.hstack((db_signs[:, :k], before[:, k:]))
            trace.append(objective(relaxed, _group_stats(codes, block), block, gamma))
        traces.append(trace)
        return db_signs

    monkeypatch.setattr(solver, "v_step", scored)
    db_feats, db_labels, _, _ = synthetic_benchmark()
    train(db_feats, db_labels, benchmark_config())
    sweeps = 0
    worst_rise = -np.inf
    for trace in traces:
        for before, after in zip(trace, trace[1:]):
            worst_rise = max(worst_rise, after - before)
        sweeps += 1
    report(
        3,
        sweeps == 10 * 3 and worst_rise <= 1e-9,
        f"{sweeps} sweeps instrumented, worst per-column rise {worst_rise:.2e}",
    )


def test_criterion_4_end_to_end_synthetic_retrieval():
    db_feats, db_labels, q_feats, q_labels = synthetic_benchmark()
    started = time.perf_counter()
    model, codes, _ = train(db_feats, db_labels, benchmark_config())
    elapsed = time.perf_counter() - started
    query_codes = encode_queries(model, q_feats)
    score = retrieval_metrics(query_codes, codes, q_labels, db_labels, None, 1).map
    report(
        4,
        score >= 0.95 and elapsed < 120.0,
        f"held-out MAP {score:.4f} in {elapsed:.1f}s",
    )


def test_criterion_5_scaling_slopes():
    sizes = [2000, 4000, 8000, 16000]
    asym = complexity_probe(sizes, query_count=200, code_len=16, seed=7)
    symm = complexity_probe(
        sizes, query_count=200, code_len=16, mode="symmetric_baseline", seed=7
    )
    report(
        5,
        asym.slope <= 1.3 and symm.slope >= 1.7,
        f"asymmetric slope {asym.slope:.2f} (<= 1.3), "
        f"symmetric slope {symm.slope:.2f} (>= 1.7)",
    )


def test_criterion_6_asymmetric_advantage_at_equal_budget():
    # The per-epoch pair cost only separates the two trainers once the
    # database is large, so this runs the same generator at 20k points.
    features, labels = gen_synthetic_clusters(10, 2000, 32, 0.1, seed=6)
    parts = split(20000, 200, 0, seed=6)
    db_feats, db_labels = features[parts.db_indices], labels.subset(parts.db_indices)
    q_feats = features[parts.query_indices]
    q_labels = labels.subset(parts.query_indices)

    def map_of(model, codes):
        query_codes = encode_queries(model, q_feats)
        return retrieval_metrics(query_codes, codes, q_labels, db_labels, None, 1).map

    asym_points = []
    clock = [0.0]

    def on_outer(_outer, seconds, model, db):
        clock[0] += seconds
        codes = CodeMatrix.from_signs(db)
        asym_points.append((clock[0], map_of(model, codes)))

    train(
        db_feats,
        db_labels,
        benchmark_config(outer_iters=6, seed=1),
        on_outer_end=on_outer,
    )
    budget = clock[0]

    sym_points = []
    sym_clock = [0.0]

    class BudgetReached(Exception):
        pass

    def on_epoch(_epoch, seconds, model, _db):
        sym_clock[0] += seconds
        sym_points.append((sym_clock[0], map_of(model, encode_queries(model, db_feats))))
        if sym_clock[0] >= budget:
            raise BudgetReached

    try:
        train(
            db_feats,
            db_labels,
            benchmark_config(
                outer_iters=60, inner_iters=1, seed=1, mode="symmetric_baseline"
            ),
            on_outer_end=on_epoch,
        )
    except BudgetReached:
        pass

    within = [p for p in sym_points if p[0] <= budget] or sym_points[:1]
    best_asym = max(m for _, m in asym_points)
    best_sym = max(m for _, m in within)
    target = max(best_asym, best_sym) - 0.02
    reach_asym = min((t for t, m in asym_points if m >= target), default=np.inf)
    reach_sym = min((t for t, m in within if m >= target), default=np.inf)
    report(
        6,
        best_asym >= best_sym - 0.02 and reach_asym <= reach_sym,
        f"budget {budget:.1f}s: asymmetric MAP {best_asym:.4f} "
        f"(reached {target:.2f} at {reach_asym:.1f}s), symmetric MAP "
        f"{best_sym:.4f} (at {reach_sym if np.isfinite(reach_sym) else np.inf:.1f}s)",
    )


def test_criterion_7_weighted_and_matrix_paths_agree():
    # the label-group sweep must match the direct m x n reference sweep
    # bit for bit, with imbalance weights (rho != 1) and without
    rng = np.random.default_rng(707)
    agreed = {True: 0, False: 0}
    for trial in range(50):
        weighted = trial % 2 == 0
        n = int(rng.integers(5, 40))
        m = int(rng.integers(1, 6))
        c = int(rng.integers(1, 9))
        signs = (rng.integers(0, 2, (m, n)) * 2 - 1).astype(np.int8)
        pos = int((signs == 1).sum())
        neg = signs.size - pos
        rho = pos / neg if pos and neg else 1.0
        if weighted and rho == 1.0:
            continue
        if not weighted:
            rho = 1.0  # every pair weighs 1
        block = SimilarityBlock(
            signs=signs,
            neg_weight=rho,
            query_indices=rng.choice(n, m, replace=False).astype(np.int64),
        )
        relaxed = rng.uniform(-0.95, 0.95, (m, c))
        db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64)
        gamma = float(rng.choice([0.0, 200.0]))
        reference = oracle.entrywise_v_step(
            relaxed, signs, block.weights(), gamma, db, block.query_indices
        )
        # training's int8 codes and float64 ones
        for codes in (db.astype(np.int8), db):
            v_step(codes, relaxed, block, gamma)
            assert np.array_equal(codes, reference)
        agreed[weighted] += 1
    report(
        7,
        agreed[True] >= 20 and agreed[False] >= 20,
        f"{agreed[True]} weighted and {agreed[False]} unweighted instances "
        "bit-identical to the entrywise reference",
    )


def _naive_ap(ranked_rel, total_rel, cutoff):
    hits, total = 0, 0.0
    for rank, rel in enumerate(ranked_rel[:cutoff], start=1):
        if rel:
            hits += 1
            total += hits / rank
    denom = min(total_rel, cutoff)
    return total / denom if denom else 0.0


def _naive_ranking(queries, database):
    """Each query's database rows by Hamming distance, then by index."""
    return np.array(
        [
            sorted(
                range(database.rows),
                key=lambda j: (hamming_distance(query, database.words[j]), j),
            )
            for query in queries.words
        ]
    )


def _metrics_of_relevance(queries, database, relevance, cutoff, k_max):
    """retrieval_metrics where relevance is given as a matrix: each relevant
    (query, row) pair shares one private label id, and each row of either
    side holds one more private id."""
    m, n = relevance.shape
    pair_ids = np.arange(m * n).reshape(m, n)
    query_labels = LabelMatrix(
        [[*pair_ids[i][relevance[i]], m * n + i] for i in range(m)]
    )
    db_labels = LabelMatrix(
        [[*pair_ids[:, j][relevance[:, j]], m * n + m + j] for j in range(n)]
    )
    return retrieval_metrics(queries, database, query_labels, db_labels, cutoff, k_max)


def test_criterion_8_metric_oracle_equivalence():
    rng = np.random.default_rng(808)
    worst = 0.0
    cases = 0
    for _ in range(50):
        n = int(rng.integers(4, 25))
        m = int(rng.integers(1, 5))
        c = int(rng.integers(2, 9))
        queries = CodeMatrix.from_signs(rng.integers(0, 2, (m, c)) * 2 - 1)
        database = CodeMatrix.from_signs(rng.integers(0, 2, (n, c)) * 2 - 1)
        relevance = rng.random((m, n)) < 0.35
        ranking = _naive_ranking(queries, database)
        cutoff = int(rng.integers(1, n + 1))
        got = _metrics_of_relevance(queries, database, relevance, cutoff, n)

        for limit, got_map in ((n, got.map), (cutoff, got.cutoff_map)):
            expected_map = np.mean(
                [
                    _naive_ap(
                        relevance[i, ranking[i]].tolist(),
                        int(relevance[i].sum()),
                        limit,
                    )
                    for i in range(m)
                ]
            )
            worst = max(worst, abs(got_map - expected_map))

        for k in range(1, n + 1):
            expected_p = np.mean(
                [relevance[i, ranking[i, :k]].sum() / k for i in range(m)]
            )
            worst = max(worst, abs(got.topk_precision[k - 1] - expected_p))

        for radius in range(c + 1):
            precs, recs = [], []
            for i in range(m):
                retrieved = [
                    j
                    for j in range(n)
                    if hamming_distance(queries.words[i], database.words[j]) <= radius
                ]
                hit = sum(1 for j in retrieved if relevance[i, j])
                n_rel = int(relevance[i].sum())
                precs.append(hit / len(retrieved) if retrieved else 1.0)
                recs.append(hit / n_rel if n_rel else 1.0)
            worst = max(worst, abs(got.precision[radius] - np.mean(precs)))
            worst = max(worst, abs(got.recall[radius] - np.mean(recs)))
        cases += 1

    # database rows at distances 0, 1 and 2, relevant, not, relevant
    alternating = _metrics_of_relevance(
        CodeMatrix.from_signs([[1, 1]]),
        CodeMatrix.from_signs([[1, 1], [-1, 1], [-1, -1]]),
        np.array([[True, False, True]]),
        None,
        3,
    ).map
    worst = max(worst, abs(alternating - 5 / 6))
    report(
        8,
        cases >= 50 and worst <= 1e-12,
        f"{cases} rankings, worst metric deviation {worst:.2e}",
    )


def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(909)
    results = []

    features = rng.normal(0, 1, (17, 5))
    write_features(tmp_path / "f.bin", features)
    results.append(
        np.array_equal(
            read_features(tmp_path / "f.bin").view(np.uint64),
            features.view(np.uint64),
        )
    )

    labels = LabelMatrix([{0}, {2, 5}, {1, 7, 63}, {200}])
    write_labels(tmp_path / "l.bin", labels)
    back = read_labels(tmp_path / "l.bin")
    results.append(
        np.array_equal(back.ids, labels.ids)
        and np.array_equal(back.offsets, labels.offsets)
    )

    for code_len in (12, 24, 48):
        codes = CodeMatrix.from_signs(
            rng.integers(0, 2, (11, code_len)) * 2 - 1
        )
        path = tmp_path / f"c{code_len}.bin"
        write_codes(path, codes)
        back = read_codes(path)
        results.append(back == codes and np.array_equal(back.words, codes.words))

    model = init_encoder((7, 6, 4), rng)
    write_model(tmp_path / "m.bin", model)
    back = read_model(tmp_path / "m.bin")
    results.append(
        all(
            np.array_equal(got, want)
            for got, want in zip(back.params(), model.params())
        )
    )

    report(
        9,
        all(results),
        f"features/labels/model plus codes at 12, 24, 48 bits "
        f"({len(results)} round trips bit-exact)",
    )

"""Retrieval evaluation over Hamming rankings.

All functions are pure and deterministic: rankings break distance ties by
ascending database index, so every metric has a single well-defined value.
Conventions for degenerate cases (documented per function) are also
recorded by the CLI in its output metadata.

``retrieval_metrics`` computes everything the CLI reports in one pass over
query chunks, with memory O(chunk * n). The per-metric functions share its
per-query helpers, and every mean is taken once over the full per-query
results, so both routes give bit-identical floats.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hashcore import CodeMatrix, pairwise_hamming
from .simgraph import LabelMatrix

# Per-query list of database indices by ascending Hamming distance.
RankingResult = np.ndarray

# Query/database pairs per chunk of retrieval_metrics. A chunk's working set
# peaks near 34 bytes per pair, so this bounds it near 17 MB whatever the
# query count.
CHUNK_PAIRS = 1 << 19


class RetrievalMetrics(NamedTuple):
    """Query-averaged results of ``retrieval_metrics``."""

    map: float  # over the full ranking
    cutoff_map: float  # over ranks <= map_cutoff; equals map without a cutoff
    topk_precision: np.ndarray  # precision@k for k = 1..k_max
    precision: np.ndarray  # lookup precision per Hamming radius 0..code_len
    recall: np.ndarray  # lookup recall per Hamming radius 0..code_len


def _stable_order(dist: np.ndarray, code_len: int) -> RankingResult:
    """Row-wise stable argsort; the narrowed copy lets numpy radix-sort."""
    narrow = dist.astype(np.min_scalar_type(code_len))
    return np.argsort(narrow, axis=1, kind="stable")


def rank_by_hamming(query_codes: CodeMatrix, db_codes: CodeMatrix) -> RankingResult:
    """Full ranking per query; equal distances order by database index."""
    dist = pairwise_hamming(query_codes, db_codes)
    return _stable_order(dist, query_codes.code_len)


def relevance_from_labels(
    query_labels: LabelMatrix, db_labels: LabelMatrix
) -> np.ndarray:
    """Ground-truth neighbor matrix: rows sharing at least one label."""
    return query_labels.shares_label(db_labels)


def _check_relevance(ranking, relevance):
    relevance = np.asarray(relevance, dtype=bool)
    if relevance.shape != ranking.shape:
        raise ValueError(
            f"relevance shape {relevance.shape} does not match "
            f"ranking shape {ranking.shape}"
        )
    return relevance


def _check_cutoff(cutoff: int | None, n: int) -> int:
    if cutoff is None:
        return n
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return min(cutoff, n)


def _check_k_max(k_max: int, n: int) -> None:
    if not 1 <= k_max <= n:
        raise ValueError(f"need 1 <= k_max <= {n}, got {k_max}")


def _precision_at_ranks(ranked_rel: np.ndarray) -> np.ndarray:
    """precision@r of each ranked relevance row at every rank r = 1..width."""
    hits = np.cumsum(ranked_rel, axis=1, dtype=np.float64)
    return hits / np.arange(1, ranked_rel.shape[1] + 1, dtype=np.float64)


def _average_precision(ranked_rel, precision, cutoff: int) -> np.ndarray:
    """Per-query AP: precision summed over relevant ranks <= cutoff, divided
    by min(#relevant, cutoff); 0 for a query with no relevant rows."""
    gained = np.where(ranked_rel[:, :cutoff], precision[:, :cutoff], 0.0)
    denom = np.minimum(ranked_rel.sum(axis=1), cutoff)
    return np.where(denom > 0, gained.sum(axis=1) / np.maximum(denom, 1), 0.0)


def _add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """Adds rows into total one at a time, in order. That is the order of
    numpy's ``mean(axis=0)``, so chunked sums match an unchunked mean."""
    for row in rows:
        total += row


def _radius_counts(dist: np.ndarray, relevance: np.ndarray, code_len: int):
    """Per query and radius 0..code_len: rows within the radius, and relevant
    rows within it. Two histograms and their cumulative sums."""
    rows, bins = len(dist), code_len + 1
    keys = dist + np.arange(rows)[:, None] * bins  # (query, distance) bin ids
    retrieved = np.bincount(keys.ravel(), minlength=rows * bins)
    hits = np.bincount(keys[relevance], minlength=rows * bins)
    return (
        retrieved.reshape(rows, bins).cumsum(axis=1),
        hits.reshape(rows, bins).cumsum(axis=1),
    )


def _precision_recall(retrieved: np.ndarray, hits: np.ndarray):
    """Query-averaged precision and recall per radius from per-query counts."""
    n_rel = hits[:, -1]  # the largest radius retrieves every row
    precisions, recalls = [], []
    for n_ret, n_hit in zip(retrieved.T, hits.T):
        prec = np.where(n_ret > 0, n_hit / np.maximum(n_ret, 1), 1.0)
        rec = np.where(n_rel > 0, n_hit / np.maximum(n_rel, 1), 1.0)
        precisions.append(prec.mean())
        recalls.append(rec.mean())
    return np.array(precisions), np.array(recalls)


def mean_average_precision(
    ranking: RankingResult, relevance, cutoff: int | None = None
) -> float:
    """MAP with optional rank cutoff.

    Average precision per query sums precision-at-r over relevant ranks
    r <= cutoff and divides by min(#relevant, cutoff). Queries with no
    relevant points contribute 0 and stay in the mean.
    """
    relevance = _check_relevance(ranking, relevance)
    cutoff = _check_cutoff(cutoff, ranking.shape[1])
    ranked_rel = np.take_along_axis(relevance, ranking, axis=1)
    precision = _precision_at_ranks(ranked_rel[:, :cutoff])
    return float(_average_precision(ranked_rel, precision, cutoff).mean())


def topk_precision_curve(ranking: RankingResult, relevance, k_max: int) -> np.ndarray:
    """precision@k averaged over queries, for k = 1..k_max."""
    relevance = _check_relevance(ranking, relevance)
    _check_k_max(k_max, ranking.shape[1])
    ranked_rel = np.take_along_axis(relevance, ranking[:, :k_max], axis=1)
    total = np.zeros(k_max)
    _add_rows(total, _precision_at_ranks(ranked_rel))
    return total / len(ranking)


def precision_recall_by_radius(
    query_codes: CodeMatrix, db_codes: CodeMatrix, relevance
):
    """Lookup-style curve: retrieve everything within each Hamming radius.

    Returns (precision, recall) arrays over radius 0..code_len, averaged
    over queries. An empty retrieved set counts as precision 1.0; a query
    with no relevant points counts as recall 1.0.
    """
    dist = pairwise_hamming(query_codes, db_codes)
    relevance = np.asarray(relevance, dtype=bool)
    if relevance.shape != dist.shape:
        raise ValueError(
            f"relevance shape {relevance.shape} does not match "
            f"{dist.shape} query/database pair grid"
        )
    return _precision_recall(*_radius_counts(dist, relevance, query_codes.code_len))


def retrieval_metrics(
    query_codes: CodeMatrix,
    db_codes: CodeMatrix,
    query_labels: LabelMatrix,
    db_labels: LabelMatrix,
    map_cutoff: int | None,
    k_max: int,
) -> RetrievalMetrics:
    """MAP (full and at map_cutoff), precision@1..k_max and the lookup
    precision/recall curve, from one Hamming scan per query chunk.

    A chunk holds at most max(1, CHUNK_PAIRS // n) queries. Its distances
    and relevance are computed once and feed both its stable ranking (MAP,
    top-k) and its radius histograms (the lookup curve). The results equal
    those of the per-metric functions exactly, with the same conventions.
    """
    q, n, code_len = query_codes.rows, db_codes.rows, db_codes.code_len
    if query_codes.code_len != code_len:
        raise ValueError(
            f"code length mismatch: {query_codes.code_len} vs {code_len}"
        )
    if (len(query_labels), len(db_labels)) != (q, n):
        raise ValueError(
            f"{len(query_labels)} query and {len(db_labels)} database label "
            f"rows do not match {q} query and {n} database code rows"
        )
    cutoff = _check_cutoff(map_cutoff, n)
    _check_k_max(k_max, n)

    ap = {n: np.empty(q), cutoff: np.empty(q)}  # one array when cutoff >= n
    topk = np.zeros(k_max)
    retrieved = np.empty((q, code_len + 1), dtype=np.int64)
    hits = np.empty_like(retrieved)
    step = max(1, CHUNK_PAIRS // n)
    for start in range(0, q, step):
        stop = min(start + step, q)
        chunk = CodeMatrix(query_codes.words[start:stop], stop - start, code_len)
        dist = pairwise_hamming(chunk, db_codes)
        relevance = relevance_from_labels(
            query_labels.subset(range(start, stop)), db_labels
        )
        ranked_rel = np.take_along_axis(
            relevance, _stable_order(dist, code_len), axis=1
        )
        retrieved[start:stop], hits[start:stop] = _radius_counts(
            dist, relevance, code_len
        )
        del dist, relevance
        precision = _precision_at_ranks(ranked_rel)
        for limit, out in ap.items():
            out[start:stop] = _average_precision(ranked_rel, precision, limit)
        _add_rows(topk, precision[:, :k_max])
    precision_curve, recall_curve = _precision_recall(retrieved, hits)
    return RetrievalMetrics(
        map=float(ap[n].mean()),
        cutoff_map=float(ap[cutoff].mean()),
        topk_precision=topk / q,
        precision=precision_curve,
        recall=recall_curve,
    )

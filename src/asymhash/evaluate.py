"""Retrieval evaluation over Hamming rankings.

All functions are pure and deterministic: rankings break distance ties by
ascending database index, so every metric has a single well-defined value.
Conventions for degenerate cases (documented per function) are also
recorded by the CLI in its output metadata.

``retrieval_metrics`` computes everything the CLI reports in one pass over
query chunks, with memory O(chunk * n). It ranks the narrow distances of
``pairwise_hamming`` as they are and works from the ranks of each query's
relevant rows. Average precision scatters k / (rank + 1), the precision at
the k-th relevant rank, into a zeroed row and sums its prefix. The lookup
curve counts the relevant ranks below each radius's retrieved count. Only
precision@k (over the first k_max ranks) and that row are float64, and
the floats equal those of a dense float64 precision at every rank, bit for
bit. The per-metric functions share its per-query helpers, and every mean
is taken once over the full per-query results, so both routes give
bit-identical floats.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hashcore import CodeMatrix, pairwise_hamming
from .simgraph import LabelMatrix

# Per-query list of database indices by ascending Hamming distance.
RankingResult = np.ndarray

# Query/database pairs per chunk of retrieval_metrics. A chunk's working set
# peaks near 21 bytes per pair (tracemalloc, 10 label classes), so this
# bounds it near 11 MB whatever the query count. When nearly every pair is
# relevant, shares_label's scatter indices raise the peak to ~44 bytes.
CHUNK_PAIRS = 1 << 19


class RetrievalMetrics(NamedTuple):
    """Query-averaged results of ``retrieval_metrics``."""

    map: float  # over the full ranking
    cutoff_map: float  # over ranks <= map_cutoff; equals map without a cutoff
    topk_precision: np.ndarray  # precision@k for k = 1..k_max
    precision: np.ndarray  # lookup precision per Hamming radius 0..code_len
    recall: np.ndarray  # lookup recall per Hamming radius 0..code_len


def _stable_order(dist: np.ndarray) -> RankingResult:
    """Row-wise stable argsort; numpy radix-sorts the narrow distances."""
    return np.argsort(dist, axis=1, kind="stable")


def rank_by_hamming(query_codes: CodeMatrix, db_codes: CodeMatrix) -> RankingResult:
    """Full ranking per query; equal distances order by database index."""
    return _stable_order(pairwise_hamming(query_codes, db_codes))


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


def _ranked_relevance(relevance, ranking, out=None) -> np.ndarray:
    """relevance[i, ranking[i]] for each row i, by one np.take per row (a
    2-D take_along_axis is several times slower on a bool matrix)."""
    if out is None:
        out = np.empty(ranking.shape, dtype=bool)
    for row, order, ranked in zip(relevance, ranking, out):
        np.take(row, order, out=ranked)
    return out


def _relevant_ranks(ranked_rel: np.ndarray) -> list[np.ndarray]:
    """The 0-based ranks of each query's relevant rows, ascending."""
    return [np.flatnonzero(row) for row in ranked_rel]


def _precision_at_ranks(ranked_rel: np.ndarray) -> np.ndarray:
    """precision@r of each ranked relevance row at every rank r = 1..width."""
    hits = np.cumsum(ranked_rel, axis=1, dtype=np.float64)
    return hits / np.arange(1, ranked_rel.shape[1] + 1, dtype=np.float64)


def _average_precision(ranks, limits, gained: np.ndarray) -> list[np.ndarray]:
    """Per-query AP for each rank limit: precision summed over relevant ranks
    <= limit, divided by min(#relevant, limit); 0 for a query with no
    relevant rows.

    ``gained`` is a zero float64 buffer of one full-width row per query, and
    is zero again on return. The k-th relevant rank r gets precision
    k / (r + 1), the float a float64 cumsum / rank gives there, and each
    limit sums the dense row prefix: numpy's pairwise sum then adds in the
    same order as over a dense masked precision row. A sum over the
    relevant ranks alone would round differently.
    """
    n_rel = np.array([len(r) for r in ranks], dtype=np.int64)
    for row, r in zip(gained, ranks):
        row[r] = np.arange(1, len(r) + 1) / (r + 1)
    out = []
    for limit in limits:
        denom = np.minimum(n_rel, limit)
        summed = gained[:, :limit].sum(axis=1)
        out.append(np.where(denom > 0, summed / np.maximum(denom, 1), 0.0))
    for row, r in zip(gained, ranks):
        row[r] = 0.0
    return out


def _add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """Adds rows into total one at a time, in order. That is the order of
    numpy's ``mean(axis=0)``, so chunked sums match an unchunked mean."""
    for row in rows:
        total += row


def _radius_counts(dist, ranks, code_len: int):
    """Per query and radius 0..code_len: the rows within the radius (a
    cumulated bincount of the query's distances) and the relevant rows
    within it. The ranking is sorted by distance, so the latter are the
    relevant ranks below the former."""
    retrieved = np.empty((len(dist), code_len + 1), dtype=np.int64)
    hits = np.empty_like(retrieved)
    for row, r, n_ret, n_hit in zip(dist, ranks, retrieved, hits):
        np.cumsum(np.bincount(row, minlength=code_len + 1), out=n_ret)
        n_hit[:] = np.searchsorted(r, n_ret)
    return retrieved, hits


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
    ranks = _relevant_ranks(_ranked_relevance(relevance, ranking))
    (ap,) = _average_precision(ranks, (cutoff,), np.zeros(ranking.shape))
    return float(ap.mean())


def topk_precision_curve(ranking: RankingResult, relevance, k_max: int) -> np.ndarray:
    """precision@k averaged over queries, for k = 1..k_max."""
    relevance = _check_relevance(ranking, relevance)
    _check_k_max(k_max, ranking.shape[1])
    ranked_rel = _ranked_relevance(relevance, ranking[:, :k_max])
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
    ranks = _relevant_ranks(_ranked_relevance(relevance, _stable_order(dist)))
    return _precision_recall(*_radius_counts(dist, ranks, query_codes.code_len))


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

    A chunk holds at most max(1, CHUNK_PAIRS // n) queries. Its narrow
    distances and its relevance are computed once. The stable ranking of
    the distances orders the relevance, whose first k_max ranks give
    top-k, and the relevant ranks give MAP and, with a bincount of each
    query's distances, the lookup curve. The ranked-relevance and
    average-precision buffers are allocated once per call. The results
    equal those of the per-metric functions exactly, with the same
    conventions. Raises ValueError before any chunk for mismatched inputs,
    no queries, a cutoff below 1 or k_max outside 1..n.
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
    if q == 0:
        raise ValueError("need at least one query")
    cutoff = _check_cutoff(map_cutoff, n)
    _check_k_max(k_max, n)

    ap = {n: np.empty(q), cutoff: np.empty(q)}  # one array when cutoff >= n
    topk = np.zeros(k_max)
    retrieved = np.empty((q, code_len + 1), dtype=np.int64)
    hits = np.empty_like(retrieved)
    step = max(1, CHUNK_PAIRS // n)
    # reused by every chunk; gained is zero between chunks
    ranked_buf = np.empty((min(step, q), n), dtype=bool)
    gained_buf = np.zeros((min(step, q), n))
    for start in range(0, q, step):
        stop = min(start + step, q)
        chunk = CodeMatrix(query_codes.words[start:stop], stop - start, code_len)
        dist = pairwise_hamming(chunk, db_codes)
        relevance = relevance_from_labels(
            query_labels.subset(range(start, stop)), db_labels
        )
        ranked_rel = _ranked_relevance(
            relevance, _stable_order(dist), ranked_buf[: stop - start]
        )
        del relevance
        ranks = _relevant_ranks(ranked_rel)
        retrieved[start:stop], hits[start:stop] = _radius_counts(
            dist, ranks, code_len
        )
        del dist
        per_limit = _average_precision(ranks, ap, gained_buf[: stop - start])
        for out, values in zip(ap.values(), per_limit):
            out[start:stop] = values
        _add_rows(topk, _precision_at_ranks(ranked_rel[:, :k_max]))
    precision_curve, recall_curve = _precision_recall(retrieved, hits)
    return RetrievalMetrics(
        map=float(ap[n].mean()),
        cutoff_map=float(ap[cutoff].mean()),
        topk_precision=topk / q,
        precision=precision_curve,
        recall=recall_curve,
    )

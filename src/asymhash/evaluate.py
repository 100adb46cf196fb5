"""Retrieval evaluation over Hamming rankings.

Evaluation is deterministic: rankings break distance ties by ascending
database index, so every metric has a single well-defined value.
Conventions for degenerate cases (documented per stage) are also recorded
by the CLI in its output metadata.

``retrieval_metrics`` computes everything the CLI reports in one pass over
query chunks, with memory O(chunk * n). It works from the ranks of each
query's relevant rows and its first k_max ranks, so it ranks only the
prefix of the stable ranking that holds them: the rows up to the larger of
the farthest relevant row's distance and the radius that retrieves k_max
rows, found from each query's distance histogram. The histogram runs over
the distinct database codes, each weighted by the rows holding it: learned
database codes collapse onto few values, so that is O(distinct codes) per
query rather than O(n). A prefix of more than half the row ranks the whole
row. Average precision scatters k / (rank + 1), the precision at the k-th
relevant rank, into each query's own zeroed full-width row and sums its
prefix. The lookup curve counts the relevant ranks below each radius's
retrieved count. Only precision@k (over the first k_max ranks) and that
row are float64, and the floats equal those of a dense float64 precision
at every rank, bit for bit.

Each stage of a chunk is a module-level function that ``retrieval_metrics``
looks up by name: ``pairwise_hamming``, ``relevance_from_labels``,
``rank_by_hamming``, ``mean_average_precision`` and
``topk_precision_curve``, then ``precision_recall_by_radius`` once over
every query's counts. So each can be timed from outside.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hashcore import CodeMatrix, chunk_rows, pairwise_hamming
from .simgraph import LabelMatrix, _unique_rows


class RetrievalMetrics(NamedTuple):
    """Query-averaged results of ``retrieval_metrics``."""

    map: float  # over the full ranking
    cutoff_map: float  # over ranks <= map_cutoff; equals map without a cutoff
    topk_precision: np.ndarray  # precision@k for k = 1..k_max
    precision: np.ndarray  # lookup precision per Hamming radius 0..code_len
    recall: np.ndarray  # lookup recall per Hamming radius 0..code_len


def relevance_from_labels(
    query_labels: LabelMatrix, db_labels: LabelMatrix
) -> np.ndarray:
    """Ground-truth neighbor matrix: rows sharing at least one label."""
    return query_labels.shares_label(db_labels)


def mean_average_precision(ranks, limits, width: int) -> np.ndarray:
    """Per-query AP (limits x queries) for each rank limit: precision summed
    over relevant ranks <= limit, divided by min(#relevant, limit); 0 for a
    query with no relevant rows, which stays in the mean. The caller takes
    each mean once, over every query's AP, so a chunked run matches an
    unchunked one bit for bit.

    Each query scatters the precision k / (r + 1) of its k-th relevant rank
    r, the float a float64 cumsum / rank gives there, into its own zeroed
    float64 row of ``width`` (n); each limit sums the row's dense prefix, so
    numpy's pairwise sum adds as over a dense masked precision row. A sum
    over the relevant ranks alone would round differently.
    """
    ap = np.empty((len(limits), len(ranks)))
    for r, query_ap in zip(ranks, ap.T):
        gained = np.zeros(width)
        gained[r] = np.arange(1, len(r) + 1) / (r + 1)
        for j, limit in enumerate(limits):
            query_ap[j] = gained[:limit].sum() / max(min(len(r), limit), 1)
    return ap


def topk_precision_curve(total: np.ndarray, ranked_rel: np.ndarray) -> None:
    """Adds precision@k of each ranked relevance row, for k = 1..width, into
    total one row at a time, in order. That is the order of numpy's
    ``mean(axis=0)``, so chunked sums match an unchunked mean."""
    hits = np.cumsum(ranked_rel, axis=1, dtype=np.float64)
    for row in hits / np.arange(1, ranked_rel.shape[1] + 1, dtype=np.float64):
        total += row


def _distinct_codes(codes: CodeMatrix):
    """(a row holding each distinct code, how many rows hold it).

    ``_unique_rows`` compares every packed word. The counts are float64,
    the type bincount takes its weights in, and exact below 2**53 rows."""
    reps, code_of_row = _unique_rows(*codes.words.T)
    rows_per_code = np.bincount(code_of_row, minlength=len(reps))
    return reps, rows_per_code.astype(np.float64)


def _retrieved_counts(dist, distinct, code_len: int) -> np.ndarray:
    """Per query and radius 0..code_len, the rows within the radius: a
    cumulated histogram of the query's distances to the distinct database
    codes ``distinct`` (from ``_distinct_codes``), each weighted by the
    rows holding it. That is O(distinct codes) per query, not O(n)."""
    reps, rows_per_code = distinct
    retrieved = np.empty((len(dist), code_len + 1), dtype=np.int64)
    for row, n_ret in zip(dist, retrieved):
        hist = np.bincount(row[reps], weights=rows_per_code, minlength=code_len + 1)
        np.cumsum(hist, out=n_ret)
    return retrieved


def _hits_within(ranks, retrieved: np.ndarray) -> np.ndarray:
    """Per query and radius, the relevant rows within the radius. The
    ranking is sorted by distance, so these are the relevant ranks below
    the radius's retrieved count."""
    hits = np.empty_like(retrieved)
    for r, n_ret, n_hit in zip(ranks, retrieved, hits):
        n_hit[:] = np.searchsorted(r, n_ret)
    return hits


def _ranking_prefix(row, far: int, width: int) -> np.ndarray:
    """The first ``width`` entries of the row's stable ranking, where
    width counts the rows at distance <= far: those rows, stably sorted.
    When they are more than half the row, selecting them costs more than
    it saves, and the whole ranking is returned."""
    if 2 * width > len(row):
        return np.argsort(row, kind="stable")
    prefix = np.flatnonzero(row <= far)
    return prefix[np.argsort(row[prefix], kind="stable")]


def rank_by_hamming(dist, relevance, retrieved, k_max: int):
    """(relevant ranks of each query, chunk x k_max bool of its first k_max
    ranked relevances), from the prefix of its stable Hamming ranking
    (equal distances in database index order) that holds every relevant
    row and the first k_max rows.

    The prefix ends at distance far, the larger of the farthest relevant
    row and the smallest radius that retrieves k_max rows; it is the
    retrieved count at far long. Its entries are those of the full stable
    ranking, so every rank read from it is too.
    """
    far = np.maximum(
        (dist * relevance).max(axis=1), (retrieved < k_max).sum(axis=1)
    )
    width = np.take_along_axis(retrieved, far[:, None], axis=1)[:, 0]
    ranks = []
    top = np.empty((len(dist), k_max), dtype=bool)
    for row, rel, f, w, first in zip(dist, relevance, far, width, top):
        ranked = rel[_ranking_prefix(row, f, w)]
        ranks.append(np.flatnonzero(ranked))
        first[:] = ranked[:k_max]
    return ranks, top


def precision_recall_by_radius(retrieved: np.ndarray, hits: np.ndarray):
    """Lookup-style curve: retrieve everything within each Hamming radius.

    From per-query retrieved and relevant-hit counts per radius
    0..code_len, the (precision, recall) arrays averaged over queries. An
    empty retrieved set counts as precision 1.0; a query with no relevant
    points counts as recall 1.0.
    """
    n_rel = hits[:, -1]  # the largest radius retrieves every row
    precisions, recalls = [], []
    for n_ret, n_hit in zip(retrieved.T, hits.T):
        prec = np.where(n_ret > 0, n_hit / np.maximum(n_ret, 1), 1.0)
        rec = np.where(n_rel > 0, n_hit / np.maximum(n_rel, 1), 1.0)
        precisions.append(prec.mean())
        recalls.append(rec.mean())
    return np.array(precisions), np.array(recalls)


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

    A chunk holds chunk_rows(n) queries, near 6 MB of work. Its narrow
    distances and its relevance are computed once. The distinct database
    codes are found once per call; a bincount of each query's distances to
    them, weighted by the rows holding each, gives its retrieved count per
    radius. Per query, the prefix of the stable ranking that holds every
    relevant row and the first k_max rows orders the relevance: its first
    k_max ranks give top-k, and the relevant ranks give MAP and, with the
    retrieved counts, the lookup curve. Each stage's conventions are in
    its docstring. Raises ValueError before any chunk for mismatched
    inputs, no queries, a cutoff below 1 or k_max outside 1..n.
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
    if map_cutoff is not None and map_cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if not 1 <= k_max <= n:
        raise ValueError(f"need 1 <= k_max <= {n}, got {k_max}")
    cutoff = n if map_cutoff is None else min(map_cutoff, n)

    ap = np.empty((2, q))  # per query, AP over the full ranking and at cutoff
    topk = np.zeros(k_max)
    retrieved = np.empty((q, code_len + 1), dtype=np.int64)
    hits = np.empty_like(retrieved)
    distinct = _distinct_codes(db_codes)
    step = chunk_rows(n)
    for start in range(0, q, step):
        stop = min(start + step, q)
        chunk = CodeMatrix(query_codes.words[start:stop], stop - start, code_len)
        dist = pairwise_hamming(chunk, db_codes)
        relevance = relevance_from_labels(
            query_labels.subset(range(start, stop)), db_labels
        )
        chunk_retrieved = retrieved[start:stop]
        chunk_retrieved[:] = _retrieved_counts(dist, distinct, code_len)
        ranks, top = rank_by_hamming(dist, relevance, chunk_retrieved, k_max)
        del dist, relevance
        hits[start:stop] = _hits_within(ranks, chunk_retrieved)
        ap[:, start:stop] = mean_average_precision(ranks, (n, cutoff), n)
        # 8 bytes per pair when every pair is relevant: kept into the next
        # chunk's pairwise_hamming, the ranks would raise its peak by that
        del ranks
        topk_precision_curve(topk, top)
    precision_curve, recall_curve = precision_recall_by_radius(retrieved, hits)
    return RetrievalMetrics(
        map=float(ap[0].mean()),
        cutoff_map=float(ap[1].mean()),
        topk_precision=topk / q,
        precision=precision_curve,
        recall=recall_curve,
    )

"""Pairwise supervision: signed similarity blocks, query sampling, weights.

Two points count as similar when their label sets intersect; LabelMatrix
finds them through a postings index of ids. A block holds which of m
query-role points are similar to which of the n database points, plus
rho, the dissimilar-pair weight training applies: 1, or the pos/neg ratio
that down-weights the (usually far more numerous) dissimilar pairs.
Database rows with the same column of that relation form a label-set group
and are stored once, so the block's one large array is the m x groups bool
relation, not m x n signs.
"""

from __future__ import annotations

import math

import numpy as np

from .hashcore import _pack_bits, _plus_mask

# ``_unique_rows`` counts keys, not sorts them, when their range is at most
# this many values per row. Timed on each call of a clusters-20k and a
# multilabel-80 train, one BLAS thread: counting took 0.03-0.33 ms against
# the sort's 0.07-0.62 ms up to 3.3 values per row, tied at 6.5 (0.25 ms),
# lost at 11-12 (0.24 against 0.16 ms) and was 10-1000x slower past 100.
# Its bool table and running count hold 9 bytes per value, so at most 36
# bytes per row, about the sort's own arrays.
COUNTED_RANGE = 4


def pair_weight(pos: int, neg: int, weighted: bool) -> float:
    """rho for ``pos`` similar and ``neg`` dissimilar pairs: their ratio
    when ``weighted`` and both are non-zero, else 1."""
    return pos / neg if weighted and pos and neg else 1.0


def _segments(starts, counts) -> np.ndarray:
    """Flat positions of the runs ``starts[i] : starts[i] + counts[i]``."""
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return np.arange(len(shift)) + shift


class LabelMatrix:
    """Per-row sets of non-negative integer label ids (>= 1 per row).

    Row r's ids are ``ids[offsets[r]:offsets[r + 1]]``, sorted and
    de-duplicated within the row; both int64 arrays are read-only. The
    constructor takes any iterable of iterables of ids.
    """

    def __init__(self, rows):
        # a numpy row is taken whole: listing one made a numpy scalar per id
        rows = [
            np.asarray(row if isinstance(row, np.ndarray) else list(row), np.int64)
            for row in rows
        ]
        ids = np.concatenate(rows) if rows else np.zeros(0, np.int64)
        self._init_flat(ids, [len(row) for row in rows])

    @classmethod
    def from_flat(cls, ids, counts) -> "LabelMatrix":
        """Row r takes the next ``counts[r]`` ids of the flat ``ids``."""
        return cls.__new__(cls)._init_flat(ids, counts)

    @classmethod
    def from_ids(cls, ids) -> "LabelMatrix":
        """Single-label shorthand: one id per row."""
        return cls.from_flat(ids, np.ones(np.size(ids), dtype=np.int64))

    def _init_flat(self, ids, counts) -> "LabelMatrix":
        ids = np.array(ids, dtype=np.int64).ravel()
        if 0 in counts:
            raise ValueError(f"label row {np.argmin(counts)} is empty")
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if offsets[-1] != ids.size:
            raise ValueError(f"{ids.size} label ids for {offsets[-1]} counted")
        if ids.size and ids.min() < 0:
            row = np.searchsorted(offsets, np.argmax(ids < 0), side="right") - 1
            raise ValueError(f"label row {row} has a negative id")
        # rows written by write_labels are already strictly increasing
        ascending = ids[1:] > ids[:-1]
        ascending[offsets[1:-1] - 1] = True  # a row may start anywhere
        if not ascending.all():
            rows = np.repeat(np.arange(len(counts)), counts)
            ids = ids[np.lexsort((ids, rows))]
            keep = np.ones(len(ids), dtype=bool)
            keep[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
            ids = ids[keep]
            np.cumsum(np.bincount(rows[keep], minlength=len(counts)), out=offsets[1:])
        self.ids, self.offsets = ids, offsets
        self.ids.flags.writeable = self.offsets.flags.writeable = False
        self._distinct = self._postings_index = None
        return self

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def _rows_of_ids(self) -> np.ndarray:
        """The row holding each of ``ids``."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def _postings(self):
        """(every id in ascending order, the row holding it); built once."""
        if self._postings_index is None:
            order = np.argsort(self.ids)
            self._postings_index = (self.ids[order], self._rows_of_ids()[order])
        return self._postings_index

    def distinct(self):
        """(the distinct label sets, index of each row's set); found once.

        Rows of one length are compared id column by id column, one
        ``_unique_rows`` per length, so the sets of one length come in the
        lexsort order of their sorted id columns.
        """
        if self._distinct is None:
            counts = np.diff(self.offsets)
            row_set = np.empty(len(self), dtype=np.int64)
            firsts = [np.zeros(0, dtype=np.int64)]
            # np.unique would import numpy.ma on its first call, 10-25 ms
            for length in np.flatnonzero(np.bincount(counts)):
                rows = np.flatnonzero(counts == length)
                ids = self.ids[_segments(self.offsets[rows], counts[rows])]
                first, inverse = _unique_rows(*ids.reshape(len(rows), length).T)
                row_set[rows] = sum(map(len, firsts)) + inverse
                firsts.append(rows[first])
            self._distinct = (self.subset(np.concatenate(firsts)), row_set)
        return self._distinct

    def subset(self, indices) -> "LabelMatrix":
        """The rows at ``indices``; negative indices count from the end."""
        rows = np.arange(len(self))[np.asarray(indices, dtype=np.int64)]
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        return LabelMatrix.from_flat(self.ids[_segments(starts, counts)], counts)

    def shares_label(self, other: "LabelMatrix") -> np.ndarray:
        """Boolean matrix: rows of self x rows of other that intersect."""
        post_ids, post_rows = other._postings()
        # each id of self matches the postings run [lo, hi), a view of the
        # rows of other that it marks in its own row: nothing per hit is
        # allocated
        lo = np.searchsorted(post_ids, self.ids, side="left").tolist()
        hi = np.searchsorted(post_ids, self.ids, side="right").tolist()
        out = np.zeros((len(self), len(other)), dtype=bool)
        for row, start, stop in zip(self._rows_of_ids().tolist(), lo, hi):
            out[row, post_rows[start:stop]] = True
        return out


def _one_key(keys):
    """(the key columns as one column in lexsort order, its range): a lone
    column itself, else an int64 column, or None when the range of that
    reaches 2^63."""
    lows = [key.min() for key in keys]
    widths = [int(key.max()) - int(low) + 1 for key, low in zip(keys, lows)]
    span = math.prod(widths)
    if span >= 2**63:
        return (keys[0] if len(keys) == 1 else None), span
    flat = (keys[-1] - lows[-1]).astype(np.int64, copy=False)
    for key, low, width in zip(keys[-2::-1], lows[-2::-1], widths[-2::-1]):
        flat *= width
        flat += (key - low).astype(np.int64, copy=False)
    return flat, span


def _unique_rows(*keys):
    """(first row of each distinct key, index of each row's distinct key).

    A row's key is its entry in each 1-D integer column of ``keys``. Keys
    are numbered in lexsort order (the last column is the primary key),
    and each one's first row is its lowest.

    When the columns' value ranges multiply to below 2^63, each row's key
    is one int64 in that order (``_one_key``). Up to ``COUNTED_RANGE``
    values per row, a bool table over the range marks the keys present and
    its running count numbers them, with no sort; above it, one unstable
    argsort orders the rows, several times faster than a stable sort, and
    each key's first row is the least of its run. Otherwise one stable
    lexsort orders the rows and one boundary test per column marks where
    the key changes. The columns stay separate there: stacking uint64 code
    words with int64 tags would promote both to float64 and merge distinct
    words.
    """
    rows = len(keys[0])
    flat, span = _one_key(keys) if rows else (None, 0)
    if flat is not None and span <= COUNTED_RANGE * rows:
        present = np.zeros(span, dtype=bool)
        present[flat] = True
        number = np.cumsum(present)
        number -= 1
        inverse = number[flat]
        first = np.full(number[-1] + 1, rows, dtype=np.int64)
        np.minimum.at(first, inverse, np.arange(rows))
        return first, inverse
    new_key = np.zeros(rows, dtype=bool)
    new_key[:1] = True
    if flat is None:
        order = np.lexsort(keys)
        for key in keys:
            sorted_key = key[order]
            new_key[1:] |= sorted_key[1:] != sorted_key[:-1]
        first = order[new_key]
    else:
        order = np.argsort(flat)
        sorted_key = flat[order]
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_key[1:])
        first = np.minimum.reduceat(order, np.flatnonzero(new_key))
    inverse = np.empty(rows, dtype=np.int64)
    inverse[order] = np.cumsum(new_key) - 1
    return first, inverse


def _group_columns(positive: np.ndarray):
    """Merge identical columns of an m x K "shares a label" matrix.

    Returns (m x G group positives, group of each column). The columns
    are packed into uint64 words and merged by ``_unique_rows`` over them,
    so groups follow the lexsort order of the packed columns, and any two
    K-column views of the same block (per database row or per distinct
    label set) give the same order.

    The merge changed no benchmark output (``db_codes.bin`` byte-identical
    without it) and folds at most 2.5% of ``multilabel-80``'s label sets,
    but on 10,000 rows of 1-3 ids out of 5,000 (m = 200) it leaves 287
    groups of 9,109 sets, and training took 0.06 s against 0.36-0.44 s
    without it.
    """
    words = _pack_bits(np.ascontiguousarray(positive.T))
    first, column_group = _unique_rows(*words.T)
    return positive[:, first], column_group


class SimilarityBlock:
    """Signed m x n supervision, stored per label-set group.

    A group is the set of database rows with one column of the "shares a
    label" relation, so the block holds that relation P_g once per group
    as the read-only m x G bool ``positive`` and each database row's group,
    never the m x n signs, plus each query's count of positive pairs
    (``positive_counts``). ``neg_weight`` is rho, the dissimilar-pair
    weight that the V-step and the loss apply. They read P_g only through
    ``relation_t_dot``, ``relation_dot`` and ``relation_mask``.
    ``query_indices`` maps each query row to its database row when the
    queries were sampled from the database itself; it is None when the
    query set is separate.

    The constructor takes a hand-built m x n ``signs`` array and groups it
    once; ``build_similarity`` and ``build_sampled_similarity`` group by
    label set without building one, and set rho from ``weighted``.
    """

    def __init__(self, signs, neg_weight: float, query_indices=None):
        plus = _plus_mask(signs)
        if plus.size == 0:
            raise ValueError("signs must be non-empty")
        positive, row_groups = _group_columns(plus)
        self._init(positive, row_groups, neg_weight, query_indices)

    @classmethod
    def _from_groups(cls, positive, row_groups, weighted, query_indices=None):
        """Block of the given groups; rho is ``pair_weight`` of their pairs."""
        block = cls.__new__(cls)
        block._init(positive, row_groups, 1.0, query_indices)
        pos = int(block.positive_counts.sum())
        neg = block.query_count * block.db_count - pos
        block.neg_weight = pair_weight(pos, neg, weighted)
        return block

    def _init(self, positive, row_groups, neg_weight, query_indices):
        self.positive = positive
        self.row_groups = np.ascontiguousarray(row_groups, dtype=np.int64)
        self.group_sizes = np.bincount(self.row_groups, minlength=self.group_count)
        # the database rows ordered by group, each group's in row order
        self.group_rows = np.argsort(self.row_groups, kind="stable")
        # (P_g n)_i, the database rows sharing a label with query i; einsum
        # buffers the bool-to-int cast instead of copying the m x G relation
        self.positive_counts = np.einsum("ig,g->i", positive, self.group_sizes)
        for arr in (self.positive, self.row_groups, self.group_sizes,
                    self.group_rows, self.positive_counts):
            arr.flags.writeable = False
        if not 0 < neg_weight < np.inf:
            raise ValueError("neg_weight must be positive and finite")
        self.neg_weight = float(neg_weight)
        if query_indices is not None:
            idx = np.ascontiguousarray(query_indices, dtype=np.int64)
            if idx.shape != (self.query_count,):
                raise ValueError("query_indices length must equal query count")
            ordered = np.sort(idx)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("query_indices must be distinct")
            if idx.size and (idx.min() < 0 or idx.max() >= self.db_count):
                raise ValueError("query_indices out of range")
            idx.flags.writeable = False
            query_indices = idx
        self.query_indices = query_indices
        self._relation = None  # P_g as float64, cast once on the first product

    def _float_relation(self) -> np.ndarray:
        # a cast per product made multi-label training ~30% slower and 13 MB
        # larger at its peak; P_g is 0/1, so its products with integers are exact
        if self._relation is None:
            self._relation = self.positive.astype(np.float64)
        return self._relation

    def relation_t_dot(self, x, groups=slice(None), out=None) -> np.ndarray:
        """P_g^T x over a range of groups ``groups`` (a slice), into ``out``."""
        return np.matmul(self._float_relation()[:, groups].T, x, out=out)

    def relation_dot(self, y, rows=slice(None), groups=slice(None)) -> np.ndarray:
        """P_g[rows, groups] y; ``rows`` and ``groups`` are index arrays or slices."""
        if not isinstance(rows, slice) and not isinstance(groups, slice):
            rows = np.asarray(rows)[:, None]  # their cross product, not pairs
        return self._float_relation()[rows, groups] @ y

    def relation_mask(self, rows) -> np.ndarray:
        """The bool P_g of the query rows ``rows`` (an index array or a slice)."""
        return self.positive[rows]

    @property
    def query_count(self) -> int:
        return self.positive.shape[0]

    @property
    def db_count(self) -> int:
        return len(self.row_groups)

    @property
    def group_count(self) -> int:
        return self.positive.shape[1]

    @property
    def signs(self) -> np.ndarray:
        """The m x n int8 signs, expanded on demand."""
        return np.where(self.positive[:, self.row_groups], np.int8(1), np.int8(-1))

    def weights(self) -> np.ndarray:
        """Per-pair weights: 1 for similar pairs, neg_weight for dissimilar."""
        return np.where(self.positive[:, self.row_groups], 1.0, self.neg_weight)


def _grouped_block(query_labels, db_labels, weighted, idx=None) -> SimilarityBlock:
    """Block from labels: one shares_label call per distinct database set."""
    distinct, row_set = db_labels.distinct()
    positive, set_group = _group_columns(query_labels.shares_label(distinct))
    return SimilarityBlock._from_groups(positive, set_group[row_set], weighted, idx)


def build_similarity(
    query_labels: LabelMatrix, db_labels: LabelMatrix, weighted: bool = True
) -> SimilarityBlock:
    """Signs are +1 exactly when the label sets share at least one id; rho
    (``neg_weight``) is the pos/neg pair ratio when ``weighted``, else 1."""
    if len(query_labels) == 0 or len(db_labels) == 0:
        raise ValueError("label matrices must be non-empty")
    return _grouped_block(query_labels, db_labels, weighted)


def build_sampled_similarity(
    db_labels: LabelMatrix, query_indices, weighted: bool = True
) -> SimilarityBlock:
    """Block for query rows drawn from the database itself; rho as above."""
    idx = np.ascontiguousarray(query_indices, dtype=np.int64)
    return _grouped_block(db_labels.subset(idx), db_labels, weighted, idx)


def sample_query_indices(n: int, m: int, rng_seed) -> np.ndarray:
    """m distinct uniform indices into [0, n), deterministic given the seed.

    ``rng_seed`` may be an int seed or a numpy Generator.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(rng_seed)
    return rng.choice(n, size=m, replace=False).astype(np.int64)


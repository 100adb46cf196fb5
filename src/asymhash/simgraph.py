"""Pairwise supervision: signed similarity blocks, query sampling, weights.

Two points count as similar when their label sets intersect. A block holds
the m x n sign matrix for m query-role points against the n database points,
plus the positive/negative imbalance ratio used to down-weight the (usually
far more numerous) dissimilar pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK_LIMIT = 64  # label ids below this use the vectorized bitmask path


class LabelMatrix:
    """Per-row sets of non-negative integer label ids (>= 1 per row)."""

    def __init__(self, label_sets):
        sets = []
        for r, row in enumerate(label_sets):
            ids = frozenset(int(x) for x in row)
            if not ids:
                raise ValueError(f"label row {r} is empty")
            if min(ids) < 0:
                raise ValueError(f"label row {r} has a negative id")
            sets.append(ids)
        self.label_sets = tuple(sets)
        self._masks = self._build_masks()

    @classmethod
    def from_ids(cls, ids) -> "LabelMatrix":
        """Single-label shorthand: one id per row."""
        return cls([(int(i),) for i in np.asarray(ids).ravel()])

    def _build_masks(self):
        if any(max(s) >= _MASK_LIMIT for s in self.label_sets):
            return None
        masks = np.zeros(len(self.label_sets), dtype=np.uint64)
        for r, ids in enumerate(self.label_sets):
            acc = 0
            for i in ids:
                acc |= 1 << i
            masks[r] = acc
        return masks

    def __len__(self) -> int:
        return len(self.label_sets)

    def subset(self, indices) -> "LabelMatrix":
        return LabelMatrix([self.label_sets[int(i)] for i in np.asarray(indices)])

    def shares_label(self, other: "LabelMatrix") -> np.ndarray:
        """Boolean matrix: rows of self x rows of other that intersect."""
        if self._masks is not None and other._masks is not None:
            return (self._masks[:, None] & other._masks[None, :]) != 0
        out = np.empty((len(self), len(other)), dtype=bool)
        for i, a in enumerate(self.label_sets):
            out[i] = [not a.isdisjoint(b) for b in other.label_sets]
        return out


@dataclass(frozen=True)
class SimilarityBlock:
    """Signed m x n supervision with the dissimilar-pair weight.

    ``query_indices`` maps each query row to its database row when the
    queries were sampled from the database itself; it is None when the
    query set is separate.
    """

    signs: np.ndarray  # int8, entries in {-1, +1}
    neg_weight: float
    query_indices: np.ndarray | None = field(default=None)

    def __post_init__(self):
        signs = np.ascontiguousarray(self.signs, dtype=np.int8)
        if signs.ndim != 2:
            raise ValueError("signs must be 2-D")
        if signs.size and not np.isin(signs, (-1, 1)).all():
            raise ValueError("signs entries must be -1 or +1")
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)
        if not self.neg_weight > 0:
            raise ValueError("neg_weight must be positive")
        if self.query_indices is not None:
            idx = np.ascontiguousarray(self.query_indices, dtype=np.int64)
            if idx.shape != (signs.shape[0],):
                raise ValueError("query_indices length must equal query count")
            if len(np.unique(idx)) != len(idx):
                raise ValueError("query_indices must be distinct")
            if idx.size and (idx.min() < 0 or idx.max() >= self.db_count):
                raise ValueError("query_indices out of range")
            idx.flags.writeable = False
            object.__setattr__(self, "query_indices", idx)

    @property
    def query_count(self) -> int:
        return self.signs.shape[0]

    @property
    def db_count(self) -> int:
        return self.signs.shape[1]

    def weights(self) -> np.ndarray:
        """Per-pair weights: 1 for similar pairs, neg_weight for dissimilar."""
        return np.where(self.signs == 1, 1.0, self.neg_weight)


def _imbalance_ratio(signs: np.ndarray) -> float:
    pos = int((signs == 1).sum())
    neg = signs.size - pos
    if pos == 0 or neg == 0:
        return 1.0
    return pos / neg


def build_similarity(
    query_labels: LabelMatrix, db_labels: LabelMatrix
) -> SimilarityBlock:
    """Signs are +1 exactly when the label sets share at least one id."""
    if len(query_labels) == 0 or len(db_labels) == 0:
        raise ValueError("label matrices must be non-empty")
    shared = query_labels.shares_label(db_labels)
    signs = np.where(shared, 1, -1).astype(np.int8)
    return SimilarityBlock(signs=signs, neg_weight=_imbalance_ratio(signs))


def build_sampled_similarity(
    db_labels: LabelMatrix, query_indices
) -> SimilarityBlock:
    """Block for query rows drawn from the database itself."""
    idx = np.ascontiguousarray(query_indices, dtype=np.int64)
    shared = db_labels.subset(idx).shares_label(db_labels)
    signs = np.where(shared, 1, -1).astype(np.int8)
    return SimilarityBlock(
        signs=signs, neg_weight=_imbalance_ratio(signs), query_indices=idx
    )


def sample_query_indices(n: int, m: int, rng_seed) -> np.ndarray:
    """m distinct uniform indices into [0, n), deterministic given the seed.

    ``rng_seed`` may be an int seed or a numpy Generator.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(rng_seed)
    return rng.choice(n, size=m, replace=False).astype(np.int64)


"""Brute-force verifiers for the solver and encoder; slow by design.

Everything here is written as literal loops, exhaustive enumeration or a
direct sum over every query/database pair, so it shares no code path with
the implementations it checks. Never used in training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DB = 12
MAX_QUERIES = 6
MAX_BITS = 6
MAX_CANDIDATES = 5000


@dataclass
class TinyInstance:
    """A fully materialized problem small enough to enumerate."""

    relaxed: np.ndarray  # m x c real query outputs
    signs: np.ndarray  # m x n in {-1, +1}
    weights: np.ndarray | None  # m x n positive, or None for unit weights
    gamma: float
    db_signs: np.ndarray  # n x c in {-1, +1}
    query_indices: np.ndarray | None = None  # db row of each query, or None

    def __post_init__(self):
        m, c = self.relaxed.shape
        n = self.db_signs.shape[0]
        if self.signs.shape != (m, n):
            raise ValueError("signs shape must be (queries, database)")
        if self.db_signs.shape != (n, c):
            raise ValueError("db_signs shape must be (database, code_len)")
        if n > MAX_DB or m > MAX_QUERIES or c > MAX_BITS:
            raise ValueError(
                f"instance too large: n={n} (<= {MAX_DB}), "
                f"m={m} (<= {MAX_QUERIES}), c={c} (<= {MAX_BITS})"
            )
        if 2**n >= MAX_CANDIDATES:
            raise ValueError(f"2^{n} candidates exceed the {MAX_CANDIDATES} cap")


def naive_objective(inst: TinyInstance) -> float:
    """Literal nested-loop evaluation of the training objective."""
    m, c = inst.relaxed.shape
    n = inst.db_signs.shape[0]
    total = 0.0
    for i in range(m):
        for j in range(n):
            dot = 0.0
            for k in range(c):
                dot += inst.relaxed[i, k] * inst.db_signs[j, k]
            resid = dot - c * inst.signs[i, j]
            w = 1.0 if inst.weights is None else inst.weights[i, j]
            total += w * resid * resid
    if inst.query_indices is not None:
        for i in range(m):
            row = inst.query_indices[i]
            for k in range(c):
                diff = inst.db_signs[row, k] - inst.relaxed[i, k]
                total += inst.gamma * diff * diff
    return total


def exhaustive_column_min(inst: TinyInstance, k: int):
    """argmin over all 2^n settings of code column k, other columns fixed.

    Candidates are enumerated lexicographically with +1 ordered before -1,
    so ties resolve to the lexicographically smallest column under that
    order. Returns (best column, best objective).
    """
    n = inst.db_signs.shape[0]
    if not 0 <= k < inst.relaxed.shape[1]:
        raise ValueError(f"column {k} out of range")
    work = TinyInstance(
        relaxed=inst.relaxed,
        signs=inst.signs,
        weights=inst.weights,
        gamma=inst.gamma,
        db_signs=inst.db_signs.copy(),
        query_indices=inst.query_indices,
    )
    best_col = None
    best_val = np.inf
    for idx in range(2**n):
        col = np.empty(n, dtype=np.int8)
        for j in range(n):
            col[j] = 1 if (idx >> (n - 1 - j)) & 1 == 0 else -1
        work.db_signs[:, k] = col
        val = naive_objective(work)
        if val < best_val:
            best_val = val
            best_col = col
    return best_col, best_val


def entrywise_v_step(relaxed, signs, weights, gamma, db, query_indices):
    """One bit-column sweep computed directly over all m x n pairs.

    The reference for solver.v_step: column k's coefficients are the
    pair-weighted sums over every (query, database) pair, with a running
    m x n product of relaxed and database codes patched after each column.
    ``weights`` is m x n, or None for unit weights; ``query_indices`` gives
    each query's database row, or None. Returns the swept copy of ``db``;
    a zero coefficient gives -1.
    """
    relaxed = np.asarray(relaxed, dtype=np.float64)
    signs = np.asarray(signs, dtype=np.float64)
    weights = (
        np.ones_like(signs) if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    db = np.array(db, dtype=np.float64)
    code_len = db.shape[1]
    static_linear = -code_len * ((weights * signs).T @ relaxed)
    if query_indices is not None and gamma != 0.0:
        static_linear[query_indices] -= gamma * relaxed
    weighted_sq = weights.T @ (relaxed * relaxed)
    prod = relaxed @ db.T
    for k in range(code_len):
        col = relaxed[:, k]
        coef = (weights * prod).T @ col
        coef -= db[:, k] * weighted_sq[:, k]
        coef += static_linear[:, k]
        new = np.where(coef >= 0.0, -1.0, 1.0)
        prod += np.outer(col, new - db[:, k])
        db[:, k] = new
    return db


def hamming_distance(a_words, b_words) -> int:
    """Differing bits between two packed code rows of uint64 words, word by
    word through Python integers."""
    if len(a_words) != len(b_words):
        raise ValueError(f"word count mismatch: {len(a_words)} vs {len(b_words)}")
    pairs = zip(a_words.tolist(), b_words.tolist())
    return sum(bin(a ^ b).count("1") for a, b in pairs)


def shares_label(a_sets, b_sets) -> np.ndarray:
    """LabelMatrix.shares_label on sequences of id collections, pair by pair."""
    out = np.empty((len(a_sets), len(b_sets)), dtype=bool)
    for i, a in enumerate(a_sets):
        for j, b in enumerate(b_sets):
            out[i, j] = not set(a).isdisjoint(b)
    return out


def finite_difference_grad(arrays, loss_fn, step: float = 1e-5):
    """Central differences of loss_fn over every entry of ``arrays``.

    ``loss_fn`` takes no arguments and reads the (perturbed) arrays.
    Returns one gradient array per input array.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_fn()
            flat[idx] = orig - step
            down = loss_fn()
            flat[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError("loss non-finite at a perturbed point")
            gflat[idx] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def finite_difference_model_grad(model, loss_fn, step: float = 1e-5):
    """Per-parameter central differences for an encoder model."""
    grads = finite_difference_grad(model.weights + model.biases, loss_fn, step)
    n_w = len(model.weights)
    return grads[:n_w], grads[n_w:]


def relative_error(a, b) -> float:
    """Max entrywise |a - b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    if a.size == 0:
        return 0.0
    return float((np.abs(a - b) / denom).max())

"""Alternating optimization: encoder epochs interleaved with exact
bit-by-bit updates of the database codes.

The database codes are free +/-1 variables. Each code column (one bit
position across the whole database) has a closed-form exact minimizer
given the other columns and the current relaxed query codes; sweeping the
columns is coordinate descent and never increases the objective. The
encoder is trained by minibatch gradient steps against the fixed codes.

The column update never forms an m x n array. Pair weights take two
values, w = rho + (1 - rho) * P, where rho is the block's ``neg_weight``
(1 when unweighted) and P is the 0/1 "shares a label" relation. Database
rows with identical columns of P (label-set groups) share every weight, so
with R the m x c relaxed query codes, Gram = R^T R, P_g the m x groups
relation and B_k = P_g^T (R * r_k), the coefficient of bit k of row j is

  coef_j = rho * (v_j . Gram[:, k] - v_jk * Gram[k, k])
           + (1 - rho) * (v_j . B_k[g(j)] - v_jk * B_k[g(j), k])
           + static[g(j), k]  (- gamma * r_ik when row j is sampled query i)

with static = -c * ((1 + rho) * P_g^T R - rho * sum_i r_i), and the new
bit is -sign(coef_j) (-1 on a zero coefficient). For rho = 1 the middle
term vanishes and is skipped. P_g^T R is one block product. Group g's
B_k[g] is row k of the symmetric c x c matrix sum_i P_ig r_i r_i^T, so
all c of them come from one block product of the m x c(c+1)/2 pair
columns r_ik * r_il (k <= l), 8 * m * c(c+1)/2 bytes, at half the flops
of c products of c columns. Each entry equals the per-column product's
to rounding, so codes can differ from those products' only at near-ties.

Given R, the sweep separates over database rows: coef_j reads only row
j's own code, its group and its own pull term. The linear terms form one
table: the G rows of static and, when the pull is live (sampled queries,
gamma != 0), one row static[g(q_i)] - gamma * r_i per sampled query i.
Each database row's tag is the table row it reads, its group or its
query's private row. Rows with one (tag, code) get one new code, so a
sweep keys each row by its tag and its code id, takes one representative
row per key from ``simgraph._unique_rows`` (the one finder of distinct
rows, which also forms the groups), runs over those rows, and writes the
result back to every row with one gather. The ids number V's distinct
codes in packed-word order (``_code_ids``, the one packer of codes):
``train`` keeps one int32 id per row beside V, and a call without them
numbers them first. The sweep renumbers the ids from its K swept rows
alone, since every row now holds one of their codes. Random initial
codes are ~all distinct and collapse onto a few codes per group during
the first sweep, after which the key's range is small enough to count
rather than sort; later sweeps cost O(n) index work and
O(distinct rows * c^2) arithmetic, not O(n * c^2).

Since no row reads another, the sweep runs in row blocks: every column
over one block of representative rows, then the next block. A block is
``SWEEP_BLOCK_BYTES`` of float64 codes, sized so that the c column passes
over it stay in a core's L2 cache; column by column over all rows, each
pass would stream the whole distinct-rows x c array from memory. At
rho != 1 a block also ends at a group cap, which bounds its pair
products, groups x c(c+1)/2. A row's new code reads only its own row,
but its float sums are not the same for every block: BLAS picks its
kernel by the block's shape and a row's place in it. With OpenBLAS on
one thread, ``block @ gram[:, k]`` over 1,024 rows gave 595-778 rows
last bits that differ from one-row products at c = 16-64, and permuting
a 3- or 7-row block changed up to 4 rows. So the block rule and the row
order, (group, tag, packed code), are part of what fixes the codes; other
blocks or another order can change a code only where a coefficient is
within rounding of 0, as for the pair products.

``train`` holds V as an n x c int8 array, one byte per bit. Float64 rows,
which BLAS needs, exist only a block at a time: the sweep gathers each
block into one reused float64 buffer and stores it back as int8, and
``_group_stats`` reads, in float64 blocks, each row once or, given the
code ids, one row per (group, code) weighted by its row count. Every sum
of products of +/-1 entries is an integer far below 2^53, so each float
is exact: int8 codes give the float64 codes' bits, and counted rows the
bits of every row read. ``v_step`` and ``_group_stats`` take codes of
either dtype on the one path.

The objective and its gradient wrt the relaxed codes, which the encoder
backpropagates through its own tanh, use the same groups. With V the
database codes, Q = V^T V, and u_g, n_g, Q_g = V_g^T V_g the row sum, row
count and Gram of group g:

  obj = rho * <R^T R, Q> + (1 - rho) * sum_g <sum_i P_ig r_i r_i^T, Q_g>
        - 2c * sum_i r_i . h_i + c^2 * (rho * m * n + (1 - rho) * sum_i (P_g n)_i)
        + pull
  d obj / d r_i = 2 * (rho * Q r_i + (1 - rho) * (sum_g P_ig Q_g) r_i
                       - c * h_i + gamma * (r_i - v_own(i)))

with h_i = (1 + rho) * (P_g u)_i - rho * sum_g u_g. A group of more than c
rows applies its Gram Q_g, at c^2 flops per positive (query, group) pair.
The groups of at most c rows are taken together: with V_s their rows and
g(j) the group of row j, their part of the sum is the masked product
(P_g[:, g(j)] * (R V_s^T)) V_s, in chunks of about n (query, row) pairs.
That is the direct form's n_g * c per query for those rows, but in two
matrix products and with no pair list; no m x n array is formed.

The loss reads V only through Q, the m x c table of h_i, the large
groups' Q_g, the small groups' rows and the sampled queries' own codes.
``train`` builds these terms (``_group_stats``) once after each block
build and once after each V-step, and the objective and every minibatch
step of that code state read them. Once a sweep has collapsed the codes,
each build counts the rows of each (group, code id) and reads V only at
one row per count, the small groups' rows and the own codes.

``train`` with ``mode="symmetric_baseline"`` runs a single-network
trainer instead, included only as the scaling and accuracy contrast; it
pays a full pass over all database pairs per epoch.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import dataio
from .encoder import (
    EncoderModel,
    NonFiniteError,
    OptimizerState,
    encode_queries,
    forward,
    init_encoder,
    minibatch_step,
)
from .hashcore import CodeMatrix, _pack_bits, chunk_rows
from .simgraph import (
    LabelMatrix,
    SimilarityBlock,
    _unique_rows,
    build_sampled_similarity,
    build_similarity,
    pair_weight,
    sample_query_indices,
)

MODES = ("asymmetric_sampled", "asymmetric_separate_queries", "symmetric_baseline")
# the two trainers complexity_probe can time
PROBE_MODES = ("asymmetric_sampled", "symmetric_baseline")

HISTORY_CSV_HEADER = "outer,inner,phase,objective,seconds"
# bytes of float64 code rows a V-step sweeps through every column at a time,
# sized to stay in a core's L2 cache (1,024 rows at c = 64)
SWEEP_BLOCK_BYTES = 1 << 19


@dataclass
class TrainConfig:
    """Hyperparameters and schedule for a training run."""

    code_len: int
    gamma: float = 200.0
    query_count: int = 1000
    outer_iters: int = 50
    inner_iters: int = 3
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0
    mode: str = "asymmetric_sampled"
    imbalance_weighting: bool = True
    hidden_dims: tuple[int, ...] = (512,)
    optimizer: str = "sgd"

    def __post_init__(self):
        if self.code_len < 1:
            raise ValueError("code_len must be >= 1")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")
        if self.query_count < 1:
            raise ValueError("query_count must be >= 1")
        # only the sampled mode batches its query_count sampled rows
        limit = self.query_count if self.mode == "asymmetric_sampled" else math.inf
        if not 1 <= self.batch_size <= limit:
            raise ValueError("need 1 <= batch_size <= query_count (sampled mode)")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("outer_iters and inner_iters must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_dims}")


@dataclass
class HistoryRecord:
    outer: int
    inner: int
    phase: str
    objective: float
    seconds: float

    def csv_line(self) -> str:
        return (
            f"{self.outer},{self.inner},{self.phase},"
            f"{self.objective!r},{self.seconds:.6f}"
        )


def history_to_csv(records) -> str:
    lines = [HISTORY_CSV_HEADER]
    lines.extend(r.csv_line() for r in records)
    return "\n".join(lines) + "\n"


class TrainResult(NamedTuple):
    model: EncoderModel
    codes: CodeMatrix
    history: list


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient goes non-finite.

    ``partial`` holds the last good model, codes, and history.
    """

    def __init__(self, message: str, partial: TrainResult):
        super().__init__(message)
        self.partial = partial


class GroupStats(NamedTuple):
    """All the loss reads of the database codes V, per label-set group.

    ``_group_stats`` builds it once per (block, codes) state; the objective
    and every minibatch step of that state read it in place of V.
    """

    gram: np.ndarray  # c x c, V^T V
    target: np.ndarray  # m x c, h_i = (1 + rho) * (P_g u)_i - rho * sum_g u_g
    large: np.ndarray  # the groups of more than c rows, ascending
    grams: np.ndarray | None  # len(large) x c x c, their Q_g; None when rho = 1
    small_codes: np.ndarray  # the rows of the groups of at most c rows, group by group
    small_groups: np.ndarray  # the group of each of those rows
    own: np.ndarray | None  # m x c, each sampled query's own code


def _group_stats(db_signs, block, code_ids=None) -> GroupStats:
    """Each query's linear term h_i from the per-group row sums u_g of the
    database codes, V^T V, the rows of the groups of at most c rows and,
    for rho = ``block.neg_weight`` != 1, the Gram Q_g = V_g^T V_g of each
    larger group.

    Each row is read once. A large group's rows go through float64 blocks
    of ``_block_rows(c)`` rows, which add to its Q_g and u_g. Given
    ``code_ids`` (as ``v_step`` keeps them), the large groups' rows are
    counted by (group, code id) instead, and the blocks hold one row per
    count, weighted by it, so V is read at those rows alone. The small
    groups are gathered by one mask over the rows in group order, cast to
    float64 and summed in one reduceat. V^T V is the Q_g plus the small
    rows' Gram; at rho = 1, where the loss reads no Q_g, every large-group
    block adds to one c x c sum instead. Entries are +/-1 and P_g is 0/1,
    so every sum, Gram and P_g u is an exact integer in float64, the same
    bits in any order, for any subset of query rows, for int8 codes as for
    float64 ones and for counted rows as for every row. The small groups'
    rows and the own codes are kept as float64, the form the loss reads.
    """
    rho = block.neg_weight
    code_len = db_signs.shape[1]
    is_large = block.group_sizes > code_len
    large = np.flatnonzero(is_large)
    sums = np.zeros((block.group_count, code_len))
    keep = rho != 1.0  # whether the loss reads the Q_g
    grams = np.zeros((len(large) if keep else 1, code_len, code_len))
    step = _block_rows(code_len)
    # the large groups' rows, group by group; with code ids, one row per
    # (group, code) of them, weighted by the rows that hold it
    members = block.group_rows[np.repeat(is_large, block.group_sizes)]
    counts = None
    if code_ids is not None:
        first, member_of = _unique_rows(code_ids[members], block.row_groups[members])
        counts = np.bincount(member_of).astype(np.float64)
        members = members[first]
    bounds = np.searchsorted(block.row_groups[members], [large, large + 1])
    for at, (g, begin, end) in enumerate(zip(large, *bounds)):
        into = grams[at if keep else 0]
        for start in range(begin, end, step):
            part = slice(start, min(start + step, end))
            codes = db_signs[members[part]].astype(np.float64, copy=False)
            weighted = codes if counts is None else codes * counts[part, None]
            into += weighted.T @ codes
            sums[g] += weighted.sum(axis=0)
    small = np.flatnonzero(~is_large)
    small_rows = block.group_rows[np.repeat(~is_large, block.group_sizes)]
    small_codes = db_signs[small_rows].astype(np.float64, copy=False)
    if small.size:
        starts = np.cumsum(block.group_sizes[small]) - block.group_sizes[small]
        sums[small] = np.add.reduceat(small_codes, starts, axis=0)
    target = (1.0 + rho) * block.relation_dot(sums)
    target -= rho * sums.sum(axis=0)
    own = None
    if block.query_indices is not None:
        own = db_signs[block.query_indices].astype(np.float64, copy=False)
    gram = grams.sum(axis=0) + small_codes.T @ small_codes
    return GroupStats(
        gram, target, large, grams if keep else None, small_codes,
        block.row_groups[small_rows], own,
    )


# A diverging run overflows here; minibatch_step's isfinite checks turn
# that into NonFiniteError, so numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def _pair_loss_and_grad(relaxed, db_signs, sign_rows, weight_rows, own_codes, gamma):
    """A batch's summed loss and its gradient wrt its relaxed codes."""
    code_len = db_signs.shape[1]
    resid = relaxed @ db_signs.T - code_len * sign_rows
    weighted = resid if weight_rows is None else weight_rows * resid
    loss = float((weighted * resid).sum())
    grad = weighted @ db_signs
    if own_codes is not None:
        diff = relaxed - own_codes
        loss += gamma * float((diff * diff).sum())
        grad = grad + gamma * diff
    return loss, 2.0 * grad


@np.errstate(over="ignore", invalid="ignore")
def _group_loss_and_grad(relaxed, rows, block, stats: GroupStats, gamma):
    """The direct loss ``_pair_loss_and_grad`` for the weights
    w = rho + (1 - rho) * P, in group form.

    ``relaxed`` holds the relaxed codes of the block's query rows ``rows``
    (an index array or a slice), ``stats`` is ``_group_stats`` of the
    current codes, and rho is the block's ``neg_weight``. With P_g the
    rows' m x G relation and P_i the database rows sharing a label with
    row i,
    q_i = rho * Q r_i + (1 - rho) * sum_{j in P_i} (r_i . v_j) v_j and
    h_i = (1 + rho) * (P_g u)_i - rho * sum_g u_g (= sum_j w_ij s_ij v_j):

      loss_i = r_i . q_i - 2c * r_i . h_i + c^2 * (rho * n + (1 - rho) * (P_g n)_i)
      d loss_i / d r_i = 2 * (q_i - c * h_i)

    plus the gamma pull toward the own code when the block's queries are
    database rows and gamma != 0. The sum in q_i is (sum_g P_ig Q_g) r_i
    over the groups of more than c rows, with the rows' summed Grams taken
    by one product per chunk of rows, plus a masked product over the rows
    of the smaller groups, taken transposed so that each chunk's mask is
    a row gather of P_g^T. At rho = 1 only ``stats.target`` reads P_g.
    Returns (loss, d loss / d relaxed codes), as ``minibatch_step`` takes.
    """
    code_len = relaxed.shape[1]
    rho = block.neg_weight
    target = stats.target[rows]
    quad = rho * (relaxed @ stats.gram)
    pairs = rho * float(block.db_count) * len(relaxed)
    if rho != 1.0:
        # sum_{j in P_i} (r_i . v_j) v_j over the groups of at most c rows
        shared = np.zeros_like(relaxed)
        codes, groups = stats.small_codes, stats.small_groups
        mask_t = np.ascontiguousarray(block.relation_mask(rows).T)
        step = max(1, block.db_count // len(relaxed))
        for start in range(0, len(codes), step):
            chunk = codes[start : start + step]
            mask = mask_t[groups[start : start + step]]
            shared += ((chunk @ relaxed.T) * mask).T @ chunk
        # sum_g P_ig Q_g over the large groups, about n entries per chunk
        grams = stats.grams.reshape(len(stats.large), code_len * code_len)
        picked = np.arange(block.query_count)[rows]
        step = max(1, block.db_count // code_len**2)
        for start in range(0, len(relaxed), step):
            at = slice(start, start + step)
            summed = block.relation_dot(grams, picked[at], stats.large)
            shared[at] += np.einsum(
                "il,ilk->ik", relaxed[at], summed.reshape(-1, code_len, code_len)
            )
        quad += (1.0 - rho) * shared
        pairs += (1.0 - rho) * float(block.positive_counts[rows].sum())
    loss = float((relaxed * (quad - 2.0 * code_len * target)).sum())
    loss += code_len * code_len * pairs
    grad = quad - code_len * target
    if stats.own is not None and gamma != 0.0:
        diff = relaxed - stats.own[rows]
        loss += gamma * float((diff * diff).sum())
        grad = grad + gamma * diff
    return loss, 2.0 * grad


def objective(relaxed, stats: GroupStats, block: SimilarityBlock, gamma):
    """Training objective for the current relaxed codes and database codes.

    ``stats`` is ``_group_stats`` of the database codes and the block, whose
    ``neg_weight`` weighs the dissimilar pairs. Pairwise squared residuals
    against code_len * sign targets, plus the pull of each sampled query's
    own database code toward its relaxed code (skipped when the query set
    is separate). Computed in label-group form (module docstring).
    """
    relaxed = np.asarray(relaxed, dtype=np.float64)
    return _group_loss_and_grad(relaxed, slice(None), block, stats, gamma)[0]


def _update_column(db, k, rho, gram, linear, shared) -> None:
    """Replace column k of the representative rows ``db`` with its exact
    minimizer; zero coefficient gives -1.

    ``linear`` is each row's static[tag, k] and ``shared`` each row's
    B_k[g(j)], None when rho = 1 (module docstring). The terms are added
    in the formula's order; the factor rho = 1 is skipped, which is exact.
    """
    coef = db @ gram[:, k]
    coef -= db[:, k] * gram[k, k]
    if shared is not None:
        coef *= rho
        row_dot = np.einsum("jl,jl->j", db, shared)
        coef += (1.0 - rho) * (row_dot - db[:, k] * shared[:, k])
    coef += linear
    # -1 where coef >= 0, else +1, in place of a float temporary
    np.greater_equal(coef, 0.0, out=coef)
    coef *= -2.0
    coef += 1.0
    db[:, k] = coef


def _block_rows(code_len):
    """Float64 code rows that fit in ``SWEEP_BLOCK_BYTES``."""
    return max(1, SWEEP_BLOCK_BYTES // (8 * code_len))


def _pair_products(relaxed):
    """The m x c(c+1)/2 products r_ik * r_il, k <= l, and the c x c index
    of the column that holds (k, l), symmetric in k and l.

    Each k fills its c - k columns in place, so no m x c(c+1)/2
    temporary is made beside the result.
    """
    code_len = relaxed.shape[1]
    pairs = np.empty((len(relaxed), code_len * (code_len + 1) // 2))
    pair_of = np.empty((code_len, code_len), dtype=np.intp)
    start = 0
    for k in range(code_len):
        stop = start + code_len - k
        np.multiply(relaxed[:, k, None], relaxed[:, k:], out=pairs[:, start:stop])
        pair_of[k, k:] = pair_of[k:, k] = np.arange(start, stop)
        start = stop
    return pairs, pair_of


def _sweep_representatives(db_signs, reps, tags, relaxed, block, static):
    """The new codes of the representative rows ``reps`` of ``db_signs``,
    which read the rows ``tags`` of the linear-term table ``static``: every
    column over one block of them, then the next block (``v_step``)."""
    rho = block.neg_weight
    code_len = db_signs.shape[1]
    gram = relaxed.T @ relaxed
    work = np.empty((len(reps), code_len), dtype=db_signs.dtype)
    rows = _block_rows(code_len)
    buffer = np.empty((min(rows, len(reps)), code_len))
    if rho != 1.0:
        pairs, pair_of = _pair_products(relaxed)
        group_cap = max(_block_rows(pairs.shape[1]), 128)
        rep_groups = block.row_groups[reps]  # ascending
        # row g: sum_i P_ig r_ik r_il for each pair k <= l, all of B[g]
        products = np.empty((min(group_cap, block.group_count), pairs.shape[1]))
    start = 0
    while start < len(reps):
        stop = min(start + rows, len(reps))
        if rho != 1.0:
            first = rep_groups[start]
            stop = min(stop, np.searchsorted(rep_groups, first + group_cap))
            groups = slice(first, rep_groups[stop - 1] + 1)
            block_products = block.relation_t_dot(
                pairs, groups, out=products[: groups.stop - first]
            )
            local = rep_groups[start:stop] - first
        part = slice(start, stop)
        block_work = buffer[: stop - start]
        block_work[...] = db_signs[reps[part]]
        linear = static[tags[part]]
        for k in range(code_len):
            shared = None
            if rho != 1.0:
                shared = block_products.take(pair_of[k], axis=1).take(local, axis=0)
            _update_column(block_work, k, rho, gram, linear[:, k], shared)
        work[part] = block_work
        start = stop
    return work


def v_step(db_signs, relaxed, block: SimilarityBlock, gamma, code_ids=None):
    """One full sweep over all code columns, each using the latest codes.

    Given the relaxed query codes the objective is a sum of independent
    per-row terms, so a row's new code depends only on its key: its code
    and its tag, the row of the linear-term table it reads (module
    docstring). The sweep runs over one representative row per distinct
    key and one gather writes the result back to all rows. The key is
    taken on every call: the first sweep from random codes starts with
    ~all rows distinct, and they collapse onto few keys only during that
    sweep. Dissimilar pairs weigh the block's ``neg_weight``.

    The key is the row's code id, V's distinct codes numbered in
    packed-word order as ``_code_ids`` numbers them, and the rank of the
    row's tag in (group, tag) order. ``code_ids`` is the int32 array of
    them that ``train`` keeps; without it the call numbers all n rows on
    entry. The call renumbers the ids in place from its swept rows, the
    only rows it packs after that. The representatives come in one order,
    by group, tag and packed code, which with the blocks fixes each row's
    arithmetic (module docstring). ``db_signs`` is updated in place and
    returned.

    The representatives are swept in blocks of ``SWEEP_BLOCK_BYTES``: each
    block gathers its rows into one reused float64 buffer and its rows of
    the table, then runs every column before the next block starts, so
    the column passes read a block that fits in L2 (module docstring).
    At rho != 1 the call builds the m x p pair columns once, p = c(c+1)/2,
    and a block also ends at the group cap: the groups whose products of
    them fit in ``SWEEP_BLOCK_BYTES``, but at least 128, as fewer cost
    more in numpy calls than in flops. Column k reads B_k through a c x c
    index from the block's one product of the pair columns over its
    groups (one range: the rows are ordered by group). The swept rows keep
    the dtype of ``db_signs``, int8 in training. Beside its inputs the
    call holds at most 8 * (m * p + (G + m) * c + group cap * p) bytes of
    pair columns, table and one block's products (the p terms at rho != 1
    only), one n x c array of the dtype of ``db_signs``, 4 *
    ``SWEEP_BLOCK_BYTES`` of block rows and 8 n-entry index arrays.
    """
    relaxed = np.asarray(relaxed, dtype=np.float64)
    rho = block.neg_weight
    code_len = db_signs.shape[1]
    group_count = block.group_count
    tags = block.row_groups
    # a sampled row's pull term -gamma * r_i is its own: it reads a private
    # row of the table, after the group rows
    pull = block.query_indices is not None and gamma != 0.0
    static = np.empty((group_count + (block.query_count if pull else 0), code_len))
    groups_part = block.relation_t_dot(relaxed, out=static[:group_count])
    groups_part *= 1.0 + rho
    groups_part -= rho * relaxed.sum(axis=0)
    groups_part *= -code_len
    # the (1 - rho) term reads the relation columns of each block's groups.
    # With the group as the primary key (a tag fixes its row's group, so
    # the distinct rows stay the same), they are one range of columns of
    # the block's one cast; per-block casts, a few MB each and of varying
    # size, left the peak RSS varying from run to run. So each row is keyed
    # by its tag's rank in (group, tag) order, ``tag_order`` inverted.
    tag_order = None
    if pull:
        private = tags[block.query_indices]
        static[group_count:] = groups_part[private]
        static[group_count:] -= gamma * relaxed
        table_groups = np.concatenate((np.arange(group_count), private))
        tag_order = np.argsort(table_groups, kind="stable")
        rank = tag_order.argsort()
        tags = rank[tags]
        tags[block.query_indices] = rank[group_count:]
    if code_ids is None:
        code_ids = _code_ids(db_signs)
    reps, inverse = _unique_rows(code_ids, tags)
    tags = tags[reps]  # now per representative; this frees the n-row copy
    if tag_order is not None:
        tags = tag_order[tags]  # back to rows of the table
    # the sweep's block buffers are freed before the ids are renumbered
    work = _sweep_representatives(db_signs, reps, tags, relaxed, block, static)
    # mode="clip" writes straight into db_signs; the default mode buffers
    # a whole copy of it first
    np.take(work, inverse, axis=0, out=db_signs, mode="clip")
    # every row now holds one of the swept codes: number those
    np.take(_code_ids(work), inverse, out=code_ids, mode="clip")
    return db_signs


def _code_ids(codes):
    """Each row's code id, int32: the distinct rows of the +/-1 ``codes``
    numbered in the lexsort order of their packed words."""
    return _unique_rows(*_pack_bits(codes).T)[1].astype(np.int32)


def _init_db_codes(rng, n, code_len):
    """n x code_len random +/-1 int8 codes, drawn in sweep-sized row blocks.

    Consumes the same stream, and leaves the same generator state, as one
    ``rng.integers(0, 2, size=(n, code_len))`` call, with no n-row integer
    temporary.
    """
    db = np.empty((n, code_len), dtype=np.int8)
    rows = _block_rows(code_len)
    for start in range(0, n, rows):
        block = db[start : start + rows]
        block[...] = rng.integers(0, 2, size=block.shape)
        block *= 2
        block -= 1
    return db


def _batches(order, batch_size):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def train(
    features,
    labels: LabelMatrix,
    config: TrainConfig,
    query_features=None,
    query_labels=None,
    on_outer_end: Callable | None = None,
) -> TrainResult:
    """Train in ``config.mode``; returns the encoder, packed codes, and history.

    In the sampled mode a fresh query index set is drawn each outer
    iteration and its supervision rows are rebuilt from labels. With a
    separate query set the supervision is fixed, and the code-pull term
    vanishes because the block has no ``query_indices``. The symmetric
    baseline trains the encoder alone, one epoch per outer iteration, and
    its codes are ``encode_queries(model, features)``.
    The database codes V are trained as an n x code_len int8 array of
    +/-1 (module docstring).
    ``on_outer_end(outer, seconds, model, db_signs)`` fires after each
    outer iteration with those int8 codes; the symmetric baseline, which
    keeps no database codes, passes ``db_signs=None``.

    ``features`` is the n x d database matrix or a ``dataio.FeatureFile``
    of it. Given the file, the sampled mode reads only its m sampled rows,
    one gather ``features[omega]`` per outer iteration, and the
    separate-queries mode reads no database row; the symmetric baseline,
    which reads every row every epoch, reads the whole matrix first.
    """
    if not isinstance(features, dataio.FeatureFile):
        features = np.asarray(features, dtype=np.float64)
    elif config.mode == "symmetric_baseline":
        features = dataio.read_features(features.path)
    n, dim = features.shape
    if len(labels) != n:
        raise ValueError("labels must have one row per feature row")
    sampled = config.mode == "asymmetric_sampled"
    if sampled and config.query_count > n:
        raise ValueError("query_count exceeds database size")
    if config.mode == "asymmetric_separate_queries" and (
        query_features is None or query_labels is None
    ):
        raise ValueError(
            "asymmetric_separate_queries mode needs query_features and query_labels"
        )

    rng = np.random.default_rng(config.seed)
    model = init_encoder((dim, *config.hidden_dims, config.code_len), rng)
    if config.mode == "symmetric_baseline":
        return _train_symmetric(features, labels, config, rng, model, on_outer_end)
    db = _init_db_codes(rng, n, config.code_len)
    # each row's code id, V's distinct codes numbered in packed-word order,
    # which every sweep keys rows by and renumbers. The random codes are
    # ~all distinct, so the loss terms count rows by code only once a
    # sweep has collapsed them; before, they read rows.
    code_ids = _code_ids(db)
    opt = OptimizerState(config.learning_rate, config.optimizer)
    history: list[HistoryRecord] = []
    if not sampled:
        qfeat = np.asarray(query_features, dtype=np.float64)
        block = build_similarity(query_labels, labels, config.imbalance_weighting)
        # the loss reads the codes only through these terms, built once per
        # block and once per V-step
        stats = _group_stats(db, block)

    def snapshot() -> TrainResult:
        return TrainResult(model, CodeMatrix.from_signs(db), history)

    def record(outer, inner, phase, relaxed, seconds):
        value = objective(relaxed, stats, block, config.gamma)
        history.append(HistoryRecord(outer, inner, phase, value, seconds))

    for outer in range(1, config.outer_iters + 1):
        outer_start = time.perf_counter()
        if sampled:
            omega = sample_query_indices(n, config.query_count, rng)
            block = build_sampled_similarity(
                labels, omega, config.imbalance_weighting
            )
            qfeat = features[omega]
            stats = _group_stats(db, block, code_ids if outer > 1 else None)
        if outer == 1:
            record(1, 0, "init", forward(model, qfeat), 0.0)
        m = block.query_count
        for inner in range(1, config.inner_iters + 1):
            phase_start = time.perf_counter()
            order = rng.permutation(m)
            try:
                for batch in _batches(order, config.batch_size):
                    # unnamed: a kept callback would hold this block's cast
                    minibatch_step(model, opt, qfeat[batch], functools.partial(
                        _group_loss_and_grad, rows=batch, block=block,
                        stats=stats, gamma=config.gamma,
                    ))
                relaxed = forward(model, qfeat)
            except NonFiniteError as err:
                raise TrainingDiverged(str(err), snapshot()) from err
            record(outer, inner, "theta", relaxed, time.perf_counter() - phase_start)
            phase_start = time.perf_counter()
            v_step(db, relaxed, block, config.gamma, code_ids)
            seconds = time.perf_counter() - phase_start
            stats = _group_stats(db, block, code_ids)
            record(outer, inner, "v", relaxed, seconds)
        if on_outer_end is not None:
            on_outer_end(outer, time.perf_counter() - outer_start, model, db)
    return snapshot()


def _full_pair_weight(labels: LabelMatrix, weighted: bool) -> float:
    """rho of all ordered database pairs, counted only if ``weighted``."""
    n = len(labels)
    pos = 0
    if weighted:
        step = chunk_rows(n)
        for start in range(0, n, step):
            rows = range(start, min(start + step, n))
            pos += int(labels.subset(rows).shares_label(labels).sum())
    return pair_weight(pos, n * n - pos, weighted)


def _train_symmetric(features, labels, config, rng, model, on_outer_end):
    """Single-network contrast trainer: every epoch scans all database
    points and pays the full point-times-database pair cost.

    Each epoch freezes the network outputs for the whole database as
    targets, then steps the network minibatch-by-minibatch against them.
    ``model`` is the freshly initialized encoder and ``rng`` the generator
    that drew it; the codes are ``encode_queries`` of the trained model.
    """
    n = len(features)
    opt = OptimizerState(config.learning_rate, config.optimizer)
    rho = _full_pair_weight(labels, config.imbalance_weighting)
    history: list[HistoryRecord] = []
    for epoch in range(1, config.outer_iters + 1):
        epoch_start = time.perf_counter()
        try:
            targets = forward(model, features)
            order = rng.permutation(n)
            epoch_loss = 0.0
            for batch in _batches(order, config.batch_size):
                sign_rows = np.where(
                    labels.subset(batch).shares_label(labels), 1.0, -1.0
                )
                weight_rows = None
                if rho != 1.0:
                    weight_rows = np.where(sign_rows == 1.0, 1.0, rho)
                loss_and_grad = functools.partial(
                    _pair_loss_and_grad, db_signs=targets, sign_rows=sign_rows,
                    weight_rows=weight_rows, own_codes=None, gamma=0.0,
                )
                epoch_loss += minibatch_step(model, opt, features[batch], loss_and_grad)
        except NonFiniteError as err:
            # no codes: the caller encodes the last model itself
            raise TrainingDiverged(
                str(err), TrainResult(model, None, history)
            ) from err
        seconds = time.perf_counter() - epoch_start
        history.append(HistoryRecord(epoch, 1, "epoch", epoch_loss, seconds))
        if on_outer_end is not None:
            on_outer_end(epoch, seconds, model, None)
    return TrainResult(model, encode_queries(model, features), history)


@dataclass
class ProbeResult:
    mode: str
    sizes: list[int]
    seconds: list[float]
    slope: float


def complexity_probe(
    n_values,
    query_count: int,
    code_len: int,
    mode: str = "asymmetric_sampled",
    seed: int = 0,
) -> ProbeResult:
    """Measure per-outer-iteration wall-clock across database sizes.

    Each size trains on 10 synthetic 32-d clusters (noise 0.1) with one
    hidden layer of 64, one inner iteration and Adam at 1e-3, and times
    two outer iterations after one warm-up. Fits a straight line to
    log(seconds) against log(n); the returned slope is the growth exponent.
    """
    if mode not in PROBE_MODES:
        raise ValueError(f"probe mode must be one of {PROBE_MODES}, got {mode!r}")
    n_values = [int(n) for n in n_values]
    if len(set(n_values)) < 3:
        raise ValueError(
            f"need at least 3 distinct database sizes, got {n_values}"
        )
    if mode == "asymmetric_sampled" and query_count > min(n_values):
        raise ValueError("query_count exceeds database size")
    sizes, secs = [], []
    for n in n_values:
        feats, labels = dataio.gen_synthetic_clusters(10, -(-n // 10), 32, 0.1, seed)
        feats = feats[:n]
        labels = labels.subset(range(n))
        config = TrainConfig(
            code_len=code_len,
            query_count=query_count,
            outer_iters=3,
            inner_iters=1,
            batch_size=min(128, query_count),
            seed=seed,
            hidden_dims=(64,),
            optimizer="adam",
            mode=mode,
        )
        times: list[float] = []
        train(
            feats, labels, config,
            on_outer_end=lambda o, s, _m, _v: times.append(s),
        )
        sizes.append(n)
        secs.append(float(np.mean(times[1:])))  # after the warm-up
    slope = float(np.polyfit(np.log(sizes), np.log(secs), 1)[0])
    return ProbeResult(mode=mode, sizes=sizes, seconds=secs, slope=slope)

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
term vanishes and is skipped. P_g is the block's bool ``positive``.

Given R, the sweep separates over database rows: coef_j reads only row
j's own code, its group and its own pull term. The linear terms form one
table: the G rows of static and, when the pull is live (sampled queries,
gamma != 0), one row static[g(q_i)] - gamma * r_i per sampled query i.
Each database row's tag is the table row it reads, its group or its
query's private row. Rows with one (tag, code) get one new code, so a
sweep keys each row by its tag and packed code words, takes one
representative row per key from ``simgraph._unique_rows`` (the one
lexsort helper, which also forms the groups), runs over those rows, and
writes the result back to every row with one gather. Random initial
codes are ~all distinct and collapse onto a few codes per group during
the first sweep, so the key is taken afresh on every call; later sweeps
cost O(distinct rows * c^2), not O(n * c^2).

The objective and the encoder's gradient use the same groups. With V the
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
step of that code state read them.

A symmetric single-network trainer is included only as the scaling and
accuracy contrast; it pays a full pass over all database pairs per epoch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import dataio
from .encoder import (
    EncoderModel,
    GroupStats,
    NonFiniteError,
    OptimizerState,
    _apply_gradients,
    _group_loss_and_grad_z,
    _group_stats,
    forward,
    init_encoder,
    loss_and_param_grads,
    minibatch_step,
)
from .hashcore import CodeMatrix, _pack_bits
from .simgraph import (
    LabelMatrix,
    SimilarityBlock,
    _unique_rows,
    build_sampled_similarity,
    build_similarity,
    sample_query_indices,
)

MODES = ("asymmetric_sampled", "asymmetric_separate_queries", "symmetric_baseline")
# the two trainers complexity_probe can time
PROBE_MODES = ("asymmetric_sampled", "symmetric_baseline")

HISTORY_CSV_HEADER = "outer,inner,phase,objective,seconds"
IMBALANCE_CHUNK = 512  # database rows per shares_label call


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
        if not 1 <= self.batch_size <= self.query_count:
            raise ValueError("need 1 <= batch_size <= query_count")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("outer_iters and inner_iters must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)


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


def objective(relaxed, stats: GroupStats, block: SimilarityBlock, gamma):
    """Training objective for the current relaxed codes and database codes.

    ``stats`` is ``_group_stats`` of the database codes and the block, whose
    ``neg_weight`` weighs the dissimilar pairs. Pairwise squared residuals
    against code_len * sign targets, plus the pull of each sampled query's
    own database code toward its relaxed code (skipped when the query set
    is separate). Computed in label-group form (module docstring).
    """
    relaxed = np.asarray(relaxed, dtype=np.float64)
    return _group_loss_and_grad_z(relaxed, slice(None), block, stats, gamma)[0]


def _update_column(db, k, rho, gram, linear, shared) -> None:
    """Replace column k of the representative rows ``db`` with its exact
    minimizer; zero coefficient gives -1.

    ``linear`` is each row's static[tag, k] and ``shared`` each row's
    B_k[g(j)], None when rho = 1 (module docstring).
    """
    coef = rho * (db @ gram[:, k] - db[:, k] * gram[k, k])
    if shared is not None:
        row_dot = np.einsum("jl,jl->j", db, shared)
        coef += (1.0 - rho) * (row_dot - db[:, k] * shared[:, k])
    coef += linear
    db[:, k] = np.where(coef >= 0.0, -1.0, 1.0)


def v_step(
    db_signs,
    relaxed,
    block: SimilarityBlock,
    gamma,
    track_objective=None,
):
    """One full sweep over all code columns, each using the latest codes.

    Given the relaxed query codes the objective is a sum of independent
    per-row terms, so a row's new code depends only on its key: its code
    and its tag, the row of the linear-term table it reads (module
    docstring). The sweep runs over one representative row per distinct
    key and one gather writes the result back to all rows. The key is
    taken on every call: the first sweep from random codes starts with
    ~all rows distinct, and they collapse onto few keys only during that
    sweep. Dissimilar pairs weigh the block's ``neg_weight``.

    When ``track_objective`` is a list, appends one sub-list per sweep
    holding the fully recomputed objective before the first column and
    after every column update.
    """
    relaxed = np.asarray(relaxed, dtype=np.float64)
    rho = block.neg_weight
    gram = relaxed.T @ relaxed
    static = -db_signs.shape[1] * (np.where(block.positive, 1.0, -rho).T @ relaxed)
    tags = block.row_groups
    if block.query_indices is not None and gamma != 0.0:
        # a sampled row's pull term -gamma * r_i is its own: it reads a
        # private row of the table
        static = np.concatenate(
            (static, static[tags[block.query_indices]] - gamma * relaxed)
        )
        tags = tags.copy()
        tags[block.query_indices] = block.group_count + np.arange(block.query_count)
    reps, inverse = _unique_rows(*_pack_bits(db_signs > 0).T, tags)
    tags = tags[reps]  # now per representative; this frees the n-row copy
    work = db_signs[reps]
    group_pos = rep_groups = None
    if rho != 1.0:  # read only by the (1 - rho) term
        group_pos = block.positive.astype(np.float64)
        rep_groups = block.row_groups[reps]
    trace = None
    if track_objective is not None:
        stats = _group_stats(db_signs, block)
        trace = [objective(relaxed, stats, block, gamma)]
        track_objective.append(trace)
    for k in range(db_signs.shape[1]):
        shared = None
        if group_pos is not None:
            shared = (group_pos.T @ (relaxed * relaxed[:, k, None]))[rep_groups]
        _update_column(work, k, rho, gram, static[tags, k], shared)
        if trace is not None:
            db_signs[:, k] = work[inverse, k]
            stats = _group_stats(db_signs, block)
            trace.append(objective(relaxed, stats, block, gamma))
    # mode="clip" writes straight into db_signs; the default mode buffers
    # a whole copy of it first
    np.take(work, inverse, axis=0, out=db_signs, mode="clip")
    return db_signs


def _init_db_codes(rng, n, code_len):
    return (rng.integers(0, 2, size=(n, code_len)) * 2 - 1).astype(np.float64)


def _batches(order, batch_size):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def train(
    features,
    labels: LabelMatrix,
    config: TrainConfig,
    query_features=None,
    query_labels=None,
    track_objective=None,
    on_outer_end: Callable | None = None,
) -> TrainResult:
    """Alternating training; returns the encoder, packed codes, and history.

    In the sampled mode a fresh query index set is drawn each outer
    iteration and its supervision rows are rebuilt from labels. With a
    separate query set the supervision is fixed, and the code-pull term
    vanishes because the block has no ``query_indices``.
    ``on_outer_end(outer, seconds, model, db_signs)`` fires after each
    outer iteration.
    """
    features = np.asarray(features, dtype=np.float64)
    n, dim = features.shape
    if len(labels) != n:
        raise ValueError("labels must have one row per feature row")
    if config.mode == "symmetric_baseline":
        raise ValueError("use train_symmetric_baseline for the symmetric mode")

    rng = np.random.default_rng(config.seed)
    model = init_encoder((dim, *config.hidden_dims, config.code_len), rng)
    db = _init_db_codes(rng, n, config.code_len)
    opt = OptimizerState(config.learning_rate, config.optimizer)
    history: list[HistoryRecord] = []

    sampled = config.mode == "asymmetric_sampled"
    if sampled:
        if config.query_count > n:
            raise ValueError("query_count exceeds database size")
        block = None
        qfeat = None
    else:
        if query_features is None or query_labels is None:
            raise ValueError(
                "asymmetric_separate_queries mode needs query_features and "
                "query_labels"
            )
        qfeat = np.asarray(query_features, dtype=np.float64)
        block = build_similarity(query_labels, labels, config.imbalance_weighting)

    def snapshot() -> TrainResult:
        return TrainResult(model, CodeMatrix.from_signs(db), history)

    # the loss reads the codes only through these terms, built once per
    # block and once per V-step
    if not sampled:
        stats = _group_stats(db, block)
    for outer in range(1, config.outer_iters + 1):
        outer_start = time.perf_counter()
        if sampled:
            omega = sample_query_indices(n, config.query_count, rng)
            block = build_sampled_similarity(
                labels, omega, config.imbalance_weighting
            )
            qfeat = features[omega]
            stats = _group_stats(db, block)
        if outer == 1:
            start_obj = objective(forward(model, qfeat)[1], stats, block, config.gamma)
            history.append(HistoryRecord(1, 0, "init", start_obj, 0.0))
        m = block.query_count
        for inner in range(1, config.inner_iters + 1):
            phase_start = time.perf_counter()
            order = rng.permutation(m)
            try:
                for batch in _batches(order, config.batch_size):
                    minibatch_step(model, opt, qfeat, batch, stats, block, config.gamma)
                relaxed = forward(model, qfeat)[1]
            except NonFiniteError as err:
                raise TrainingDiverged(str(err), snapshot()) from err
            seconds = time.perf_counter() - phase_start
            history.append(
                HistoryRecord(
                    outer, inner, "theta",
                    objective(relaxed, stats, block, config.gamma), seconds,
                )
            )
            phase_start = time.perf_counter()
            v_step(db, relaxed, block, config.gamma, track_objective=track_objective)
            seconds = time.perf_counter() - phase_start
            stats = _group_stats(db, block)
            history.append(
                HistoryRecord(
                    outer, inner, "v",
                    objective(relaxed, stats, block, config.gamma), seconds,
                )
            )
        if on_outer_end is not None:
            on_outer_end(outer, time.perf_counter() - outer_start, model, db)
    return snapshot()


def _full_pair_imbalance(labels: LabelMatrix) -> float:
    """Positive/negative ratio over all ordered database pairs."""
    n = len(labels)
    pos = 0
    for start in range(0, n, IMBALANCE_CHUNK):
        rows = range(start, min(start + IMBALANCE_CHUNK, n))
        pos += int(labels.subset(rows).shares_label(labels).sum())
    neg = n * n - pos
    if pos == 0 or neg == 0:
        return 1.0
    return pos / neg


def train_symmetric_baseline(
    features,
    labels: LabelMatrix,
    config: TrainConfig,
    on_epoch_end: Callable | None = None,
):
    """Single-network contrast trainer: every epoch scans all database
    points and pays the full point-times-database pair cost.

    Each epoch freezes the network outputs for the whole database as
    targets, then steps the network minibatch-by-minibatch against them.
    Returns (model, history); database codes come from encode_queries
    afterwards.
    """
    features = np.asarray(features, dtype=np.float64)
    n, dim = features.shape
    if len(labels) != n:
        raise ValueError("labels must have one row per feature row")
    rng = np.random.default_rng(config.seed)
    model = init_encoder((dim, *config.hidden_dims, config.code_len), rng)
    opt = OptimizerState(config.learning_rate, config.optimizer)
    neg_weight = (
        _full_pair_imbalance(labels) if config.imbalance_weighting else None
    )
    history: list[HistoryRecord] = []
    for epoch in range(1, config.outer_iters + 1):
        epoch_start = time.perf_counter()
        try:
            targets = forward(model, features)[1]
            order = rng.permutation(n)
            epoch_loss = 0.0
            for batch in _batches(order, config.batch_size):
                sign_rows = np.where(
                    labels.subset(batch).shares_label(labels), 1.0, -1.0
                )
                weight_rows = None
                if neg_weight is not None:
                    weight_rows = np.where(sign_rows == 1.0, 1.0, neg_weight)
                loss, grad_w, grad_b = loss_and_param_grads(
                    model, features[batch], targets, sign_rows, weight_rows,
                    None, 0.0,
                )
                if not np.isfinite(loss):
                    raise NonFiniteError("batch loss is non-finite")
                _apply_gradients(model, opt, grad_w, grad_b)
                epoch_loss += loss
        except NonFiniteError as err:
            raise TrainingDiverged(
                str(err), TrainResult(model, None, history)
            ) from err
        seconds = time.perf_counter() - epoch_start
        history.append(HistoryRecord(epoch, 1, "epoch", epoch_loss, seconds))
        if on_epoch_end is not None:
            on_epoch_end(epoch, seconds, model)
    return model, history


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
    if len(n_values) < 3:
        raise ValueError("need at least 3 database sizes")
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
        )
        times: list[float] = []
        if mode == "symmetric_baseline":
            train_symmetric_baseline(
                feats, labels, config,
                on_epoch_end=lambda e, s, _m: times.append(s),
            )
        else:
            train(
                feats, labels, config,
                on_outer_end=lambda o, s, _m, _v: times.append(s),
            )
        sizes.append(n)
        secs.append(float(np.mean(times[1:])))  # after the warm-up
    slope = float(np.polyfit(np.log(sizes), np.log(secs), 1)[0])
    return ProbeResult(mode=mode, sizes=sizes, seconds=secs, slope=slope)

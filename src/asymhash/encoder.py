"""The differentiable hash function for queries.

A feed-forward network over precomputed feature vectors: tanh hidden
layers, a linear output of width code_len, and a final tanh producing the
relaxed code in (-1, 1). Training minimizes the squared gap between
relaxed-code/database-code inner products and code_len * sign targets,
plus an optional pull of each sampled query's database code toward its
relaxed code.

forward and encode_queries only read the model and may run concurrently;
minibatch_step mutates model and optimizer state and needs a single
writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hashcore import CodeMatrix, binarize

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteError(RuntimeError):
    """A loss, gradient, or parameter became NaN or infinite."""


@dataclass
class EncoderModel:
    """Affine layers with tanh hidden activations and a linear output."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def code_len(self) -> int:
        return self.layer_dims[-1]

    def params(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)


def init_encoder(layer_dims, rng_seed) -> EncoderModel:
    """Uniform +/- sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"layer_dims must be >= 2 positive sizes, got {dims}")
    rng = np.random.default_rng(rng_seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return EncoderModel(layer_dims=dims, weights=weights, biases=biases)


def _forward_cached(model: EncoderModel, features: np.ndarray):
    """Returns (raw outputs, relaxed codes, per-layer activations)."""
    acts = [features]
    out = features
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = out @ w + b
        if layer != last:
            out = np.tanh(out)
        acts.append(out)
    raw = acts[-1]
    return raw, np.tanh(raw), acts


def forward(model: EncoderModel, features):
    """Evaluate the network on a matrix of feature rows.

    Returns (raw, relaxed) where relaxed = tanh(raw) entrywise.
    """
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.feature_dim:
        raise ValueError(
            f"expected feature dim {model.feature_dim}, got shape {arr.shape}"
        )
    raw, relaxed, _ = _forward_cached(model, arr)
    if not np.isfinite(raw).all():
        raise NonFiniteError("encoder produced a non-finite output")
    return raw, relaxed


# A diverging run overflows here; the callers' isfinite checks turn that
# into NonFiniteError, so numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def _batch_loss_and_grad_z(relaxed, db_signs, sign_rows, weight_rows, own_codes, gamma):
    """Summed loss over a batch of query rows and its gradient wrt raw outputs."""
    code_len = db_signs.shape[1]
    resid = relaxed @ db_signs.T - code_len * sign_rows
    weighted = resid if weight_rows is None else weight_rows * resid
    loss = float((weighted * resid).sum())
    grad = weighted @ db_signs
    if own_codes is not None:
        diff = relaxed - own_codes
        loss += gamma * float((diff * diff).sum())
        grad = grad + gamma * diff
    return loss, 2.0 * grad * (1.0 - relaxed**2)


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


def _group_stats(db_signs, block) -> GroupStats:
    """Each query's linear term h_i from the per-group row sums u_g of the
    database codes, the rows of the groups of at most c rows and, for
    rho = ``block.neg_weight`` != 1, the Gram Q_g = V_g^T V_g of each
    larger group.

    A large group is gathered and summed on its own; the small groups are
    gathered together, with one mask over the rows in group order, and
    summed in one reduceat. Entries are +/-1 and P_g is 0/1, so every sum,
    Gram and P_g u is an exact integer in float64, the same bits for any
    subset of query rows.
    """
    rho = block.neg_weight
    code_len = db_signs.shape[1]
    is_large = block.group_sizes > code_len
    large = np.flatnonzero(is_large)
    sums = np.empty((block.group_count, code_len))
    grams = None if rho == 1.0 else np.empty((len(large), code_len, code_len))
    for at, g in enumerate(large):
        rows = block.group_rows[block.group_offsets[g] : block.group_offsets[g + 1]]
        codes = db_signs[rows]
        sums[g] = codes.sum(axis=0)
        if grams is not None:
            grams[at] = codes.T @ codes
    small = np.flatnonzero(~is_large)
    small_rows = block.group_rows[np.repeat(~is_large, block.group_sizes)]
    small_codes = db_signs[small_rows]
    if small.size:
        starts = np.cumsum(block.group_sizes[small]) - block.group_sizes[small]
        sums[small] = np.add.reduceat(small_codes, starts, axis=0)
    target = (1.0 + rho) * (block.positive.astype(np.float64) @ sums)
    target -= rho * sums.sum(axis=0)
    own = None
    if block.query_indices is not None:
        own = db_signs[block.query_indices]
    return GroupStats(
        db_signs.T @ db_signs, target, large, grams,
        small_codes, block.row_groups[small_rows], own,
    )


def _small_group_shared(relaxed, positive, db_count, stats: GroupStats):
    """Per row i, sum_j (r_i . v_j) v_j over the database rows j that share
    a label with it and lie in groups of at most c rows.

    A masked product over chunks of those rows, (P_g[:, g(j)] * (R V^T)) V
    with about ``db_count`` (row, database row) pairs per chunk, so no
    array grows with m * n. It is taken transposed, so that each chunk's
    mask is a row gather of P_g^T.
    """
    out = np.zeros_like(relaxed)
    codes, groups = stats.small_codes, stats.small_groups
    positive_t = np.ascontiguousarray(positive.T)
    step = max(1, db_count // len(relaxed))
    for start in range(0, len(codes), step):
        chunk = codes[start : start + step]
        mask = positive_t[groups[start : start + step]]
        out += ((chunk @ relaxed.T) * mask).T @ chunk
    return out


@np.errstate(over="ignore", invalid="ignore")
def _group_loss_and_grad_z(relaxed, rows, block, stats: GroupStats, gamma):
    """``_batch_loss_and_grad_z`` for w = rho + (1 - rho) * P, in group form.

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
    of the smaller groups. At rho = 1 only ``stats.target`` reads P_g.
    """
    code_len = relaxed.shape[1]
    rho = block.neg_weight
    target = stats.target[rows]
    quad = rho * (relaxed @ stats.gram)
    pairs = rho * float(block.db_count) * len(relaxed)
    if rho != 1.0:
        positive = block.positive[rows]
        # sum_g P_ig Q_g over the large groups, about n entries per chunk
        grams = stats.grams.reshape(len(stats.large), code_len * code_len)
        shared = _small_group_shared(relaxed, positive, block.db_count, stats)
        step = max(1, block.db_count // code_len**2)
        for start in range(0, len(relaxed), step):
            at = slice(start, start + step)
            summed = positive[at, stats.large] @ grams
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
    return loss, 2.0 * grad * (1.0 - relaxed**2)


@np.errstate(over="ignore", invalid="ignore")
def _backprop(model: EncoderModel, acts, grad_raw):
    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    delta = grad_raw
    for layer in reversed(range(len(model.weights))):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer:
            delta = (delta @ model.weights[layer].T) * (1.0 - acts[layer] ** 2)
    return grad_w, grad_b


def loss_and_param_grads(
    model, features, db_signs, sign_rows, weight_rows, own_codes, gamma
):
    """Batch loss plus its analytic gradient for every weight and bias."""
    arr = np.asarray(features, dtype=np.float64)
    _, relaxed, acts = _forward_cached(model, arr)
    loss, grad_raw = _batch_loss_and_grad_z(
        relaxed, db_signs, sign_rows, weight_rows, own_codes, gamma
    )
    grad_w, grad_b = _backprop(model, acts, grad_raw)
    return loss, grad_w, grad_b


@dataclass
class OptimizerState:
    """Plain gradient descent by default; method="adam" adds moments."""

    learning_rate: float
    method: str = "sgd"
    step: int = 0
    first_moments: list[np.ndarray] | None = field(default=None, repr=False)
    second_moments: list[np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        # lr 0 is allowed so degenerate no-update schedules stay expressible
        if not self.learning_rate >= 0:
            raise ValueError("learning rate must be >= 0")
        if self.method not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer method {self.method!r}")


def _apply_gradients(model, optimizer, grad_w, grad_b):
    grads = grad_w + grad_b
    params = model.params()
    with np.errstate(over="ignore"):  # overflow becomes NonFiniteError below
        if optimizer.method == "adam":
            if optimizer.first_moments is None:
                optimizer.first_moments = [np.zeros_like(p) for p in params]
                optimizer.second_moments = [np.zeros_like(p) for p in params]
            t = optimizer.step + 1
            scale1 = 1.0 - ADAM_BETA1**t
            scale2 = 1.0 - ADAM_BETA2**t
            updated = []
            for p, g, m1, m2 in zip(
                params, grads, optimizer.first_moments, optimizer.second_moments
            ):
                m1 *= ADAM_BETA1
                m1 += (1.0 - ADAM_BETA1) * g
                m2 *= ADAM_BETA2
                m2 += (1.0 - ADAM_BETA2) * g * g
                step = optimizer.learning_rate * (m1 / scale1) / (
                    np.sqrt(m2 / scale2) + ADAM_EPS
                )
                updated.append(p - step)
        else:
            updated = [
                p - optimizer.learning_rate * g for p, g in zip(params, grads)
            ]
    for new in updated:
        if not np.isfinite(new).all():
            raise NonFiniteError("parameter update produced non-finite values")
    n_w = len(model.weights)
    for layer in range(n_w):
        model.weights[layer][...] = updated[layer]
        model.biases[layer][...] = updated[n_w + layer]
    optimizer.step += 1


def minibatch_step(
    model, optimizer, query_features, batch, stats: GroupStats, block, gamma
):
    """One gradient step on the batch-summed loss; returns that loss.

    ``batch`` holds query-row positions into the block, and ``stats`` is
    ``_group_stats`` of the current database codes and the block. When the
    block carries query_indices, each position's own database code feeds
    the gamma pull term.
    """
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    features = np.asarray(query_features, dtype=np.float64)[batch]
    _, relaxed, acts = _forward_cached(model, features)
    loss, grad_raw = _group_loss_and_grad_z(relaxed, batch, block, stats, gamma)
    grad_w, grad_b = _backprop(model, acts, grad_raw)
    if not np.isfinite(loss):
        raise NonFiniteError("batch loss is non-finite")
    for g in grad_w + grad_b:
        if not np.isfinite(g).all():
            raise NonFiniteError("batch gradient is non-finite")
    _apply_gradients(model, optimizer, grad_w, grad_b)
    return loss


def encode_queries(model: EncoderModel, features) -> CodeMatrix:
    """sign(raw outputs) for every feature row, packed."""
    return CodeMatrix.from_signs(binarize(forward(model, features)[0]))

"""The differentiable hash function for queries.

A feed-forward network over precomputed feature vectors: tanh hidden
layers, a linear output of width code_len, and a final tanh producing the
relaxed code in (-1, 1). ``minibatch_step`` steps it along any loss of
the relaxed codes, given as a callback; the ADSH loss lives in ``solver``.
``loss_and_param_grads`` takes the direct pairwise loss over explicit
sign rows, for the symmetric baseline and the finite-difference check.

forward and encode_queries only read the model and may run concurrently;
minibatch_step mutates model and optimizer state and needs a single
writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def apply(self, model: EncoderModel, grad_w, grad_b) -> None:
        """One descent step of ``model`` along the given weight and bias
        gradients; NonFiniteError, with the parameters unchanged, if any
        updated parameter is NaN or infinite."""
        grads = grad_w + grad_b
        params = model.params()
        with np.errstate(over="ignore"):  # overflow becomes NonFiniteError below
            if self.method == "adam":
                if self.first_moments is None:
                    self.first_moments = [np.zeros_like(p) for p in params]
                    self.second_moments = [np.zeros_like(p) for p in params]
                t = self.step + 1
                scale1 = 1.0 - ADAM_BETA1**t
                scale2 = 1.0 - ADAM_BETA2**t
                updated = []
                for p, g, m1, m2 in zip(
                    params, grads, self.first_moments, self.second_moments
                ):
                    m1 *= ADAM_BETA1
                    m1 += (1.0 - ADAM_BETA1) * g
                    m2 *= ADAM_BETA2
                    m2 += (1.0 - ADAM_BETA2) * g * g
                    step = self.learning_rate * (m1 / scale1) / (
                        np.sqrt(m2 / scale2) + ADAM_EPS
                    )
                    updated.append(p - step)
            else:
                updated = [p - self.learning_rate * g for p, g in zip(params, grads)]
        for new in updated:
            if not np.isfinite(new).all():
                raise NonFiniteError("parameter update produced non-finite values")
        for param, new in zip(params, updated):
            param[...] = new
        self.step += 1


def minibatch_step(model, optimizer, features, loss_and_grad):
    """One gradient step on a batch of feature rows; returns its loss.

    ``loss_and_grad(relaxed)`` maps the batch's relaxed codes to the
    batch-summed loss and its gradient wrt the raw outputs.
    """
    features = np.asarray(features, dtype=np.float64)
    if len(features) == 0:
        raise ValueError("batch must be non-empty")
    _, relaxed, acts = _forward_cached(model, features)
    loss, grad_raw = loss_and_grad(relaxed)
    grad_w, grad_b = _backprop(model, acts, grad_raw)
    if not np.isfinite(loss):
        raise NonFiniteError("batch loss is non-finite")
    for g in grad_w + grad_b:
        if not np.isfinite(g).all():
            raise NonFiniteError("batch gradient is non-finite")
    optimizer.apply(model, grad_w, grad_b)
    return loss


def encode_queries(model: EncoderModel, features) -> CodeMatrix:
    """sign(raw outputs) for every feature row, packed."""
    return CodeMatrix.from_signs(binarize(forward(model, features)[0]))

"""The differentiable hash function for queries.

A feed-forward network over precomputed feature vectors: tanh hidden
layers, a linear output of width code_len, and a final tanh producing the
relaxed code in (-1, 1); no other module applies that tanh or its
derivative. The network holds no loss: ``param_grads`` backpropagates any
loss of the relaxed codes, a callback giving its gradient wrt them, and
``minibatch_step`` steps along it. Both trainers, and every ADSH loss
form, live in ``solver`` and step through ``minibatch_step``.

forward and encode_queries only read the model and may run concurrently;
minibatch_step mutates model and optimizer state and needs a single
writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hashcore import CodeMatrix, binarize, words_per_row

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
    """Returns (relaxed codes, activations); acts[-1] is the raw output."""
    acts = [features]
    for w, b in zip(model.weights, model.biases):
        raw = acts[-1] @ w + b
        acts.append(np.tanh(raw))
    relaxed, acts[-1] = acts[-1], raw
    return relaxed, acts


def forward(model: EncoderModel, features):
    """The relaxed codes tanh(raw outputs) of a matrix of feature rows."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.feature_dim:
        raise ValueError(
            f"expected feature dim {model.feature_dim}, got shape {arr.shape}"
        )
    relaxed, acts = _forward_cached(model, arr)
    if not np.isfinite(acts[-1]).all():
        raise NonFiniteError("encoder produced a non-finite output")
    return relaxed


# a diverging run gives inf * 0 here, which minibatch_step's checks reject
@np.errstate(over="ignore", invalid="ignore")
def _backprop(model: EncoderModel, acts, relaxed, grad_relaxed):
    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    delta = grad_relaxed * (1.0 - relaxed**2)
    for layer in reversed(range(len(model.weights))):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer:
            delta = (delta @ model.weights[layer].T) * (1.0 - acts[layer] ** 2)
    return grad_w, grad_b


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


def param_grads(model, features, loss_and_grad):
    """A batch's loss and its gradient for every weight and bias.

    ``loss_and_grad(relaxed)`` maps the batch's relaxed codes to the
    batch-summed loss and its gradient wrt those codes. Returns
    (loss, weight gradients, bias gradients).
    """
    features = np.asarray(features, dtype=np.float64)
    if len(features) == 0:
        raise ValueError("batch must be non-empty")
    relaxed, acts = _forward_cached(model, features)
    loss, grad_relaxed = loss_and_grad(relaxed)
    grad_w, grad_b = _backprop(model, acts, relaxed, grad_relaxed)
    return loss, grad_w, grad_b


def minibatch_step(model, optimizer, features, loss_and_grad):
    """One gradient step on a batch of feature rows; returns its loss.

    ``loss_and_grad`` is as for ``param_grads``. NonFiniteError, with the
    model unchanged, if the loss or a gradient is NaN or infinite.
    """
    loss, grad_w, grad_b = param_grads(model, features, loss_and_grad)
    if not np.isfinite(loss):
        raise NonFiniteError("batch loss is non-finite")
    for g in grad_w + grad_b:
        if not np.isfinite(g).all():
            raise NonFiniteError("batch gradient is non-finite")
    optimizer.apply(model, grad_w, grad_b)
    return loss


def encode_queries(model: EncoderModel, features) -> CodeMatrix:
    """sign(relaxed codes) = sign(raw outputs) of every feature row, packed.

    ``features`` is a matrix or a ``dataio.FeatureFile``; either is encoded
    in the fixed row chunks of ``dataio.feature_chunks``, so the widest
    layer's activations are held for one chunk at a time. A raw output's
    float sums can depend on its chunk's shape (BLAS picks its kernel by
    it), so other chunks can change a code only where a raw output is
    within rounding of 0.
    """
    # dataio imports this module for the model format
    from .dataio import FeatureFile, feature_chunks

    if not isinstance(features, FeatureFile):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != model.feature_dim:
            raise ValueError(
                f"expected feature dim {model.feature_dim}, got shape {features.shape}"
            )
    words = np.empty((len(features), words_per_row(model.code_len)), np.uint64)
    for start, rows in feature_chunks(features):
        codes = CodeMatrix.from_signs(binarize(forward(model, rows)))
        words[start : start + codes.rows] = codes.words
    return CodeMatrix(words, len(features), model.code_len)

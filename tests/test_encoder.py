import copy
from functools import partial

import numpy as np
import pytest

from asymhash import oracle
from asymhash.encoder import (
    EncoderModel,
    NonFiniteError,
    OptimizerState,
    encode_queries,
    forward,
    init_encoder,
    minibatch_step,
    param_grads,
)
from asymhash.hashcore import binarize
from asymhash.simgraph import SimilarityBlock
from asymhash.solver import (
    _group_loss_and_grad,
    _group_stats,
    _pair_loss_and_grad,
)


def zero_model(dims):
    dims = tuple(dims)
    return EncoderModel(
        layer_dims=dims,
        weights=[
            np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])
        ],
        biases=[np.zeros(b) for b in dims[1:]],
    )


def random_instance(rng, n, m, c, d, hidden=4, gamma=1.0, weighted=False):
    model = init_encoder((d, hidden, c), rng)
    feats = rng.normal(0, 1, (m, d))
    signs = (rng.integers(0, 2, (m, n)) * 2 - 1).astype(np.float64)
    db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64)
    omega = rng.choice(n, m, replace=False).astype(np.int64)
    weights = np.where(signs == 1, 1.0, 0.4) if weighted else None
    return model, feats, signs, db, omega, weights, gamma


class TestForward:
    def test_zero_parameters_give_zero_outputs(self):
        model = zero_model((3, 4, 2))
        relaxed = forward(model, np.array([[1.0, -2.0, 0.5]]))
        assert np.array_equal(relaxed, np.zeros((1, 2)))

    def test_identity_layer_applies_tanh(self):
        model = zero_model((2, 2))
        model.weights[0][...] = np.eye(2)
        relaxed = forward(model, np.array([[2.0, -2.0]]))
        assert relaxed[0] == pytest.approx([0.9640275800758169, -0.9640275800758169])

    def test_outputs_stay_inside_open_interval(self):
        rng = np.random.default_rng(0)
        model = init_encoder((5, 16, 8), rng)
        relaxed = forward(model, rng.normal(0, 10, (20, 5)))
        assert np.abs(relaxed).max() < 1.0

    def test_rejects_dimension_mismatch(self):
        model = zero_model((3, 2))
        with pytest.raises(ValueError, match="feature dim"):
            forward(model, np.zeros((1, 4)))

    def test_rejects_a_single_vector(self):
        model = zero_model((3, 2))
        with pytest.raises(ValueError, match="feature dim"):
            forward(model, np.zeros(3))
        with pytest.raises(ValueError, match="feature dim"):
            encode_queries(model, np.zeros(3))

    def test_rejects_non_finite_output(self):
        model = zero_model((2, 2))
        model.weights[0][0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            forward(model, np.array([[1.0, 1.0]]))


def grad_one_row(relaxed, db_signs, sign_row, own_code, gamma):
    """The batch loss gradient wrt relaxed codes for a batch of one row."""
    own = None if own_code is None else np.asarray(own_code)[None, :]
    _, grad = _pair_loss_and_grad(
        np.asarray(relaxed)[None, :], db_signs, np.asarray(sign_row)[None, :],
        None, own, gamma,
    )
    return grad[0]


class TestLossGradZ:
    def test_hand_case(self):
        grad = grad_one_row(
            relaxed=np.zeros(2),
            db_signs=np.array([[1.0, 1.0]]),
            sign_row=np.array([1.0]),
            own_code=None,
            gamma=0.0,
        )
        assert grad == pytest.approx([-4.0, -4.0])

    def test_stationary_point(self):
        # sum term cancels (inner product 0 between the two target rows) and
        # the pull term vanishes when the code equals the relaxed output
        relaxed = np.array([0.5, -0.5])
        db = np.array([[1.0, 1.0], [1.0, 1.0]])
        grad = grad_one_row(
            relaxed,
            db,
            sign_row=np.array([1.0, -1.0]),
            own_code=relaxed.copy(),
            gamma=7.0,
        )
        assert grad == pytest.approx([0.0, 0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            model, feats, signs, db, omega, weights, gamma = random_instance(
                rng, n=5, m=3, c=3, d=4, weighted=True
            )
            own = db[omega]
            _, grad_w, grad_b = param_grads(model, feats, partial(
                _pair_loss_and_grad, db_signs=db, sign_rows=signs,
                weight_rows=weights, own_codes=own, gamma=gamma,
            ))

            def closure():
                relaxed = forward(model, feats)
                resid = relaxed @ db.T - db.shape[1] * signs
                value = (weights * resid * resid).sum()
                diff = relaxed - own
                return value + gamma * (diff * diff).sum()

            fd_w, fd_b = oracle.finite_difference_model_grad(model, closure)
            for got, want in zip(grad_w + grad_b, fd_w + fd_b):
                assert oracle.relative_error(got, want) < 1e-5


class TestParamGrads:
    @staticmethod
    def output_bias_grad(raw, loss_and_grad):
        """The loss gradient wrt the raw output of a one-layer network whose
        output is its bias ``raw``."""
        model = zero_model((1, len(raw)))
        model.biases[0][...] = raw
        _, _, grad_b = param_grads(model, np.zeros((1, 1)), loss_and_grad)
        return grad_b[0]

    def test_saturation_damps_gradient(self):
        # the encoder applies tanh' = 1 - u^2 to the relaxed-code gradient
        loss_and_grad = partial(
            _pair_loss_and_grad, db_signs=np.array([[1.0, 1.0]]),
            sign_rows=np.array([[1.0]]), weight_rows=None, own_codes=None,
            gamma=0.0,
        )
        near_one = np.arctanh(1 - 1e-9)
        saturated = self.output_bias_grad([near_one, -near_one], loss_and_grad)
        mid = self.output_bias_grad(np.arctanh([0.5, -0.5]), loss_and_grad)
        assert np.abs(saturated).max() < 1e-7
        assert mid == pytest.approx([-3.0, -3.0])

    def test_infinite_gradient_on_a_saturated_output_raises(self):
        # tanh(40) is 1.0 exactly, so the backward pass takes inf * 0
        model = zero_model((1, 1))
        model.biases[0][...] = 40.0

        def infinite(relaxed):
            return 0.0, np.full_like(relaxed, np.inf)

        _, _, grad_b = param_grads(model, np.zeros((1, 1)), infinite)
        assert np.isnan(grad_b[0]).all()
        with pytest.raises(NonFiniteError, match="gradient"):
            minibatch_step(model, OptimizerState(1.0), np.zeros((1, 1)), infinite)


class TestMinibatchStep:
    def make_block(self, signs, omega):
        return SimilarityBlock(
            signs=signs.astype(np.int8), neg_weight=1.0, query_indices=omega
        )

    def step(self, model, opt, feats, batch, db, block, gamma):
        # unweighted: the block's rho is 1
        batch = np.asarray(batch, dtype=np.int64)
        loss_and_grad = partial(
            _group_loss_and_grad, rows=batch, block=block,
            stats=_group_stats(db, block), gamma=gamma,
        )
        return minibatch_step(model, opt, feats[batch], loss_and_grad)

    def test_zero_learning_rate_keeps_model(self):
        rng = np.random.default_rng(2)
        model, feats, signs, db, omega, _, gamma = random_instance(
            rng, n=6, m=3, c=2, d=4
        )
        before = copy.deepcopy(model)
        opt = OptimizerState(learning_rate=0.0)
        self.step(
            model, opt, feats, [0, 1, 2], db, self.make_block(signs, omega), gamma
        )
        for got, want in zip(model.params(), before.params()):
            assert np.array_equal(got, want)

    def test_plain_descent_update_rule(self):
        model = zero_model((1, 1))
        model.weights[0][0, 0] = 3.0
        opt = OptimizerState(learning_rate=0.1)
        opt.apply(model, [np.array([[2.0]])], [np.array([0.5])])
        assert model.weights[0][0, 0] == pytest.approx(3.0 - 0.1 * 2.0)
        assert model.biases[0][0] == pytest.approx(-0.1 * 0.5)

    def test_loss_decreases_over_fifty_steps(self):
        rng = np.random.default_rng(3)
        model, feats, signs, db, omega, _, gamma = random_instance(
            rng, n=8, m=4, c=4, d=5
        )
        block = self.make_block(signs, omega)
        opt = OptimizerState(learning_rate=1e-3, method="adam")
        batch = np.arange(4)
        first = self.step(model, opt, feats, batch, db, block, gamma)
        last = first
        for _ in range(49):
            last = self.step(model, opt, feats, batch, db, block, gamma)
        assert last < first

    def test_rejects_empty_batch(self):
        rng = np.random.default_rng(4)
        model, feats, signs, db, omega, _, gamma = random_instance(
            rng, n=4, m=2, c=2, d=3
        )
        with pytest.raises(ValueError, match="non-empty"):
            self.step(
                model,
                OptimizerState(1e-3),
                feats,
                [],
                db,
                self.make_block(signs, omega),
                gamma,
            )

    def test_overflowing_update_raises(self):
        rng = np.random.default_rng(5)
        model, feats, signs, db, omega, _, gamma = random_instance(
            rng, n=4, m=2, c=2, d=3
        )
        opt = OptimizerState(learning_rate=1e308)
        with pytest.raises(NonFiniteError):
            self.step(
                model, opt, feats, [0, 1], db,
                self.make_block(signs, omega), gamma,
            )


class TestAdam:
    def test_moments_shrink_update_scale(self):
        model = zero_model((1, 1))
        model.weights[0][0, 0] = 1.0
        opt = OptimizerState(learning_rate=0.1, method="adam")
        opt.apply(model, [np.array([[4.0]])], [np.array([0.0])])
        # first adam step moves by ~lr regardless of gradient magnitude
        assert model.weights[0][0, 0] == pytest.approx(0.9, abs=1e-6)


class TestEncodeQueries:
    def test_sign_of_raw_outputs(self):
        model = zero_model((2, 2))
        model.weights[0][...] = np.eye(2)
        codes = encode_queries(model, np.array([[0.3, -0.2]]))
        assert codes.to_signs().tolist() == [[1, -1]]

    def test_zero_raw_output_maps_to_plus_one(self):
        model = zero_model((2, 1))
        codes = encode_queries(model, np.array([[0.5, 0.5]]))
        assert codes.to_signs().tolist() == [[1]]

    def test_consistent_with_stored_relaxed_outputs(self):
        rng = np.random.default_rng(6)
        model = init_encoder((4, 8, 3), rng)
        feats = rng.normal(0, 1, (10, 4))
        relaxed = forward(model, feats)
        codes = encode_queries(model, feats)
        assert np.array_equal(codes.to_signs(), binarize(relaxed))

    def test_independent_of_row_order(self):
        rng = np.random.default_rng(7)
        model = init_encoder((4, 8, 3), rng)
        feats = rng.normal(0, 1, (10, 4))
        perm = rng.permutation(10)
        direct = encode_queries(model, feats).to_signs()
        permuted = encode_queries(model, feats[perm]).to_signs()
        assert np.array_equal(direct[perm], permuted)


class TestInit:
    def test_bounds_follow_fan_in_out(self):
        model = init_encoder((100, 50), rng_seed=0)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(model.weights[0]).max() <= bound
        assert np.array_equal(model.biases[0], np.zeros(50))

    def test_deterministic_for_seed(self):
        a = init_encoder((5, 4, 3), rng_seed=11)
        b = init_encoder((5, 4, 3), rng_seed=11)
        for x, y in zip(a.params(), b.params()):
            assert np.array_equal(x, y)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_encoder((5,), rng_seed=0)
        with pytest.raises(ValueError):
            init_encoder((5, 0, 3), rng_seed=0)

from dataclasses import replace

import numpy as np
import pytest

from asymhash import oracle
from asymhash.encoder import _group_stats
from asymhash.hashcore import binarize
from asymhash.simgraph import SimilarityBlock
from asymhash.solver import objective, v_step


def tiny(rng, n, m, c, gamma=1.0, weighted=False, with_indices=True):
    signs = (rng.integers(0, 2, (m, n)) * 2 - 1).astype(np.float64)
    return oracle.TinyInstance(
        relaxed=rng.uniform(-0.9, 0.9, (m, c)),
        signs=signs,
        weights=np.where(signs == 1, 1.0, 0.3) if weighted else None,
        gamma=gamma,
        db_signs=(rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64),
        query_indices=(
            rng.choice(n, m, replace=False).astype(np.int64)
            if with_indices
            else None
        ),
    )


class TestNaiveObjective:
    def test_zero_loss_instance(self):
        inst = oracle.TinyInstance(
            relaxed=np.array([[1.0, 1.0]]),
            signs=np.array([[1.0]]),
            weights=None,
            gamma=3.0,
            db_signs=np.array([[1.0, 1.0]]),
            query_indices=np.array([0]),
        )
        assert oracle.naive_objective(inst) == pytest.approx(0.0)

    def test_hand_computed_value(self):
        inst = oracle.TinyInstance(
            relaxed=np.array([[0.5, 0.5]]),
            signs=np.array([[1.0]]),
            weights=None,
            gamma=1.0,
            db_signs=np.array([[1.0, 1.0]]),
            query_indices=np.array([0]),
        )
        assert oracle.naive_objective(inst) == pytest.approx(1.5)

    def test_agrees_with_vectorized_objective(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            inst = tiny(rng, n=7, m=4, c=4, gamma=5.0, weighted=True)
            block = SimilarityBlock(
                signs=inst.signs.astype(np.int8),
                neg_weight=0.3,
                query_indices=inst.query_indices,
            )
            stats = _group_stats(inst.db_signs, block)
            fast = objective(inst.relaxed, stats, block, inst.gamma)
            slow = oracle.naive_objective(inst)
            assert fast == pytest.approx(slow, rel=1e-9)


class TestExhaustiveColumnMin:
    def test_single_point_enumerates_both_signs(self):
        rng = np.random.default_rng(1)
        inst = tiny(rng, n=1, m=1, c=2)
        col, best = oracle.exhaustive_column_min(inst, 0)
        candidates = []
        for value in (1.0, -1.0):
            probe = tiny(rng, n=1, m=1, c=2)
            probe.relaxed[...] = inst.relaxed
            probe.signs[...] = inst.signs
            probe.db_signs[...] = inst.db_signs
            probe.query_indices[...] = inst.query_indices
            probe.db_signs[0, 0] = value
            candidates.append(oracle.naive_objective(probe))
        assert best == pytest.approx(min(candidates))
        assert col[0] in (-1, 1)

    def test_matches_solver_column_update(self):
        # column 1 of a sweep starts from the new column 0 and the old rest
        rng = np.random.default_rng(2)
        inst = tiny(rng, n=6, m=3, c=3, gamma=2.0)
        block = SimilarityBlock(
            signs=inst.signs.astype(np.int8),
            neg_weight=1.0,
            query_indices=inst.query_indices,
        )
        old = inst.db_signs
        new = v_step(old.copy(), inst.relaxed, block, inst.gamma)
        before = np.hstack([new[:, :1], old[:, 1:]])
        after = np.hstack([new[:, :2], old[:, 2:]])
        _, best = oracle.exhaustive_column_min(replace(inst, db_signs=before), 1)
        refit = replace(inst, db_signs=after)
        assert oracle.naive_objective(refit) == pytest.approx(best, abs=1e-9)

    def test_huge_gamma_pins_sampled_rows_to_relaxed_signs(self):
        rng = np.random.default_rng(3)
        inst = tiny(rng, n=5, m=3, c=2, gamma=1e6)
        col, _ = oracle.exhaustive_column_min(inst, 0)
        expected = binarize(inst.relaxed[:, 0])
        assert np.array_equal(col[inst.query_indices], expected)

    def test_rejects_oversized_instances(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="too large"):
            tiny(rng, n=13, m=2, c=2)

    def test_rejects_bad_column(self):
        rng = np.random.default_rng(5)
        inst = tiny(rng, n=3, m=2, c=2)
        with pytest.raises(ValueError, match="out of range"):
            oracle.exhaustive_column_min(inst, 2)


class TestFiniteDifferences:
    def test_quadratic_toy_loss(self):
        theta = np.array([3.0])
        grads = oracle.finite_difference_grad(
            [theta], lambda: float(theta[0] ** 2), step=1e-5
        )
        assert grads[0][0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_loss(self):
        theta = np.array([1.0, -2.0])
        grads = oracle.finite_difference_grad([theta], lambda: 42.0)
        assert np.allclose(grads[0], 0.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            oracle.finite_difference_grad([np.zeros(1)], lambda: 0.0, step=0.0)

    def test_rejects_non_finite_loss(self):
        theta = np.array([0.0])
        with pytest.raises(ValueError, match="non-finite"):
            oracle.finite_difference_grad(
                [theta], lambda: float("inf"), step=1e-5
            )


def test_relative_error_uses_unit_floor():
    assert oracle.relative_error(np.array([1e-9]), np.array([0.0])) == 1e-9
    assert oracle.relative_error(np.array([200.0]), np.array([100.0])) == pytest.approx(0.5)

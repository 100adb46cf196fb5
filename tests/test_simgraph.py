import numpy as np
import pytest

from asymhash.simgraph import (
    LabelMatrix,
    SimilarityBlock,
    build_sampled_similarity,
    build_similarity,
    sample_query_indices,
)


class TestLabelMatrix:
    def test_rejects_empty_row(self):
        with pytest.raises(ValueError, match="empty"):
            LabelMatrix([{0}, set()])

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="negative"):
            LabelMatrix([{-1}])

    def test_mask_and_set_paths_agree(self):
        # ids >= 64 force the set-based fallback; shift a small instance up
        small = LabelMatrix([{0, 3}, {3, 5}, {7}])
        large = LabelMatrix([{100, 103}, {103, 105}, {107}])
        assert small._masks is not None
        assert large._masks is None
        assert np.array_equal(
            small.shares_label(small), large.shares_label(large)
        )

    def test_subset_preserves_rows(self):
        labels = LabelMatrix.from_ids([4, 2, 9])
        assert labels.subset([2, 0]).label_sets == (
            frozenset({9}),
            frozenset({4}),
        )


class TestBuildSimilarity:
    def test_singleton_intersection(self):
        block = build_similarity(
            LabelMatrix([{0}]), LabelMatrix([{0}, {1}])
        )
        assert block.signs.tolist() == [[1, -1]]

    def test_any_shared_label_is_similar(self):
        block = build_similarity(LabelMatrix([{1, 3}]), LabelMatrix([{3, 5}]))
        assert block.signs[0, 0] == 1

    def test_imbalance_ratio_from_counts(self):
        # 2 similar + 6 dissimilar database points -> ratio 1/3
        db = LabelMatrix.from_ids([0, 0, 1, 1, 1, 1, 1, 1])
        block = build_similarity(LabelMatrix([{0}]), db)
        assert block.neg_weight == pytest.approx(2 / 6)

    def test_all_positive_falls_back_to_one(self):
        block = build_similarity(LabelMatrix([{0}]), LabelMatrix([{0}, {0}]))
        assert block.neg_weight == 1.0

    def test_role_swap_transposes_signs(self):
        rng = np.random.default_rng(0)
        a = LabelMatrix.from_ids(rng.integers(0, 4, size=6))
        b = LabelMatrix.from_ids(rng.integers(0, 4, size=9))
        forward = build_similarity(a, b).signs
        backward = build_similarity(b, a).signs
        assert np.array_equal(forward, backward.T)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_similarity(LabelMatrix([]), LabelMatrix([{0}]))


class TestSampledBlock:
    def test_query_rows_match_their_database_rows(self):
        labels = LabelMatrix.from_ids([0, 0, 1, 2, 1])
        omega = np.array([2, 0])
        block = build_sampled_similarity(labels, omega)
        assert np.array_equal(block.query_indices, omega)
        full = build_similarity(labels, labels).signs
        assert np.array_equal(block.signs, full[omega])

    def test_rejects_duplicate_indices(self):
        labels = LabelMatrix.from_ids([0, 1, 2])
        with pytest.raises(ValueError, match="distinct"):
            build_sampled_similarity(labels, [1, 1])


class TestSampleQueryIndices:
    def test_exhaustive_sample_is_permutation(self):
        omega = sample_query_indices(5, 5, rng_seed=0)
        assert sorted(omega.tolist()) == [0, 1, 2, 3, 4]

    def test_singleton_in_range(self):
        omega = sample_query_indices(1000, 1, rng_seed=1)
        assert omega.shape == (1,) and 0 <= omega[0] < 1000

    def test_deterministic_for_fixed_seed(self):
        assert np.array_equal(
            sample_query_indices(100, 10, rng_seed=7),
            sample_query_indices(100, 10, rng_seed=7),
        )

    def test_rejects_oversample(self):
        with pytest.raises(ValueError):
            sample_query_indices(3, 4, rng_seed=0)


class TestPairWeight:
    def test_weighted_negative_mass_equals_positive_mass(self):
        rng = np.random.default_rng(3)
        db = LabelMatrix.from_ids(rng.integers(0, 3, size=40))
        q = LabelMatrix.from_ids(rng.integers(0, 3, size=5))
        block = build_similarity(q, db)
        weights = block.weights()
        neg_mass = weights[block.signs == -1].sum()
        pos_count = (block.signs == 1).sum()
        assert neg_mass == pytest.approx(pos_count)


class TestSimilarityBlockValidation:
    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            SimilarityBlock(signs=np.array([[0, 1]]), neg_weight=1.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            SimilarityBlock(signs=np.array([[1, -1]]), neg_weight=0.0)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="range"):
            SimilarityBlock(
                signs=np.array([[1, -1]]),
                neg_weight=1.0,
                query_indices=np.array([5]),
            )

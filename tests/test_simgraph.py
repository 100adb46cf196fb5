import numpy as np
import pytest

from asymhash import oracle
from asymhash.simgraph import (
    LabelMatrix,
    SimilarityBlock,
    _unique_rows,
    build_sampled_similarity,
    build_similarity,
    sample_query_indices,
)


def row_sets(labels):
    """Each row's sorted ids as a tuple."""
    bounds = labels.offsets.tolist()
    return [tuple(labels.ids[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


class TestLabelMatrix:
    def test_rejects_empty_row(self):
        with pytest.raises(ValueError, match="empty"):
            LabelMatrix([{0}, set()])

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="negative"):
            LabelMatrix([{-1}])

    def test_shares_label_matches_oracle(self):
        rng = np.random.default_rng(5)
        pools = {
            "below 64": np.arange(64),
            "straddling 64": np.arange(56, 72),
            "64 and up": np.arange(64, 200),
            "near 2^32 - 1": 2**32 - 1 - np.arange(12),
        }

        def rows(pool, count):
            # 1-4 ids per row, drawn with replacement so rows repeat ids
            return [
                [int(x) for x in rng.choice(pool, int(rng.integers(1, 5)))]
                for _ in range(count)
            ]

        cases = [(rows(p, 30), rows(p, 40)) for p in pools.values()]
        # self and other from different id sets, overlapping or not
        cases.append((rows(pools["below 64"], 20), rows(pools["straddling 64"], 25)))
        cases.append((rows(pools["64 and up"], 20), rows(pools["near 2^32 - 1"], 9)))
        mixed = rows(np.concatenate(list(pools.values())), 60)
        cases.append((mixed, mixed))
        for a_rows, b_rows in cases:
            a, b = LabelMatrix(a_rows), LabelMatrix(b_rows)
            want = oracle.shares_label(a_rows, b_rows)
            got = a.shares_label(b)
            assert got.dtype == bool and np.array_equal(got, want)
            assert np.array_equal(b.shares_label(a), want.T)
            # subset chunks against the full matrix, as eval walks queries
            for start in range(0, len(a), 7):
                chunk = a.subset(range(start, min(start + 7, len(a))))
                assert np.array_equal(chunk.shares_label(b), want[start : start + 7])

    def test_rows_are_sorted_without_repeats(self):
        labels = LabelMatrix([[5, 3, 5, 3], np.array([9]), {2, 0}])
        assert labels.ids.tolist() == [3, 5, 9, 0, 2]
        assert labels.offsets.tolist() == [0, 2, 3, 5]
        with pytest.raises(ValueError, match="read-only"):
            labels.ids[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            labels.offsets[0] = 1

    def test_subset_preserves_rows(self):
        labels = LabelMatrix.from_ids([4, 2, 9])
        assert row_sets(labels.subset([2, 0])) == [(9,), (4,)]

    def test_subset_indexes_like_a_sequence(self):
        labels = LabelMatrix([{1}, {2, 3}, {4}])
        assert row_sets(labels.subset([-1])) == [(4,)]
        assert row_sets(labels.subset([-3, 1, 1])) == [(1,), (2, 3), (2, 3)]
        assert len(labels.subset([])) == 0
        for bad in ([3], [-4]):
            with pytest.raises(IndexError):
                labels.subset(bad)


    def test_distinct_matches_a_dict_over_tuples(self):
        rng = np.random.default_rng(21)
        top = 2**32 - 1
        cases = [
            [[3], [1, 2], [2, 1], [3], [top, 0], [1, 2, top - 1], [0, top],
             [7], [1, 2, top - 1], [2, 1, 1]],
            [[5, top]],
            [rng.choice(6, int(rng.integers(1, 4)), replace=False)
             for _ in range(300)],
        ]
        for rows in cases:
            index: dict = {}
            want = [index.setdefault(tuple(sorted(set(r))), len(index)) for r in rows]
            sets, row_set = LabelMatrix(rows).distinct()
            assert len(sets) == len(index)
            # the same partition of the rows, and each row's own set
            assert len(set(zip(want, row_set.tolist()))) == len(index)
            own = row_sets(sets)
            for row, at in zip(rows, row_set):
                assert own[at] == tuple(sorted(set(int(i) for i in row)))


class TestUniqueRows:
    @pytest.mark.parametrize("rows", [400, 1, 50])
    def test_matches_a_dict_over_row_tuples(self, rows):
        # words at and above 2^63 that differ only in their low bits, which
        # a float64 key would merge, next to int64 tags; 50 rows are all equal
        rng = np.random.default_rng(26)
        choices = 1 if rows == 50 else 3
        top = np.uint64(2**64 - 1)
        keys = (
            np.uint64(2**63) + rng.integers(0, choices, rows).astype(np.uint64),
            top - rng.integers(0, choices, rows).astype(np.uint64),
            rng.integers(0, choices, rows),
        )
        first_of: dict = {}
        for row, key in enumerate(zip(*(k.tolist() for k in keys))):
            first_of.setdefault(key, row)
        first, inverse = _unique_rows(*keys)
        assert len(first) == len(first_of)
        assert sorted(first.tolist()) == sorted(first_of.values())
        # each row maps to the first row of its own key
        want = [first_of[key] for key in zip(*(k.tolist() for k in keys))]
        assert first[inverse].tolist() == want


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

    @pytest.mark.parametrize("sampled", [False, True])
    def test_unweighted_build_weighs_every_pair_one(self, sampled):
        # the builders decide rho once: 1 when unweighted, with the same
        # relation and groups as the weighted build
        rng = np.random.default_rng(4)
        db = LabelMatrix(
            [rng.choice(70, int(rng.integers(1, 3)), replace=False) for _ in range(60)]
        )
        if sampled:
            omega = rng.choice(60, 12, replace=False)
            weighted = build_sampled_similarity(db, omega)
            unweighted = build_sampled_similarity(db, omega, weighted=False)
        else:
            queries = db.subset(rng.choice(60, 12))
            weighted = build_similarity(queries, db)
            unweighted = build_similarity(queries, db, weighted=False)
        assert weighted.neg_weight != 1.0
        assert unweighted.neg_weight == 1.0
        assert (unweighted.weights() == 1.0).all()
        for name in ("positive", "row_groups", "positive_counts"):
            assert np.array_equal(getattr(unweighted, name), getattr(weighted, name))


class TestSimilarityBlockValidation:
    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            SimilarityBlock(signs=np.array([[0, 1]]), neg_weight=1.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            SimilarityBlock(signs=np.array([[1, -1]]), neg_weight=0.0)

    def test_rejects_empty_signs(self):
        with pytest.raises(ValueError, match="non-empty"):
            SimilarityBlock(signs=np.zeros((0, 3), dtype=np.int8), neg_weight=1.0)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="range"):
            SimilarityBlock(
                signs=np.array([[1, -1]]),
                neg_weight=1.0,
                query_indices=np.array([5]),
            )


def labels_with_offset(rng, n, offset):
    """1-3 label ids of 8 per row, shifted by ``offset``, so ids reach past
    64 when the offset does."""
    return LabelMatrix(
        [offset + rng.choice(8, int(rng.integers(1, 4)), replace=False)
         for _ in range(n)]
    )


class TestGroupedBlock:
    @pytest.mark.parametrize("offset", [0, 60, 100])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_expanded_signs_equal_shares_label(self, sampled, offset):
        rng = np.random.default_rng(21)
        db = labels_with_offset(rng, 300, offset)
        if sampled:
            omega = rng.choice(300, 40, replace=False)
            block = build_sampled_similarity(db, omega)
            queries = db.subset(omega)
        else:
            queries = labels_with_offset(rng, 40, offset)
            block = build_similarity(queries, db)
        want = np.where(queries.shares_label(db), 1, -1)
        assert block.signs.dtype == np.int8
        assert np.array_equal(block.signs, want)
        # one group per distinct sign column, sized by its row count
        columns = np.unique(want, axis=1)
        assert block.group_count == columns.shape[1]
        assert np.array_equal(block.positive[:, block.row_groups], want == 1)
        assert block.group_sizes.sum() == 300
        pos = int((want == 1).sum())
        assert block.neg_weight == pos / (want.size - pos)

    def test_hand_built_block_merges_repeated_columns(self):
        rng = np.random.default_rng(22)
        pool = rng.integers(0, 2, (5, 4)) * 2 - 1
        pool[:, 0] = 1  # at least two distinct columns
        pool[:, 1] = -1
        signs = pool[:, rng.integers(0, 4, 30)]
        block = SimilarityBlock(signs=signs, neg_weight=0.5)
        assert block.group_count == np.unique(signs, axis=1).shape[1]
        assert np.array_equal(block.signs, signs)
        assert block.neg_weight == 0.5
        assert np.array_equal(
            block.weights(), np.where(signs == 1, 1.0, 0.5)
        )

    def test_label_built_and_hand_built_groups_agree(self):
        rng = np.random.default_rng(23)
        db = labels_with_offset(rng, 200, 70)
        omega = rng.choice(200, 30, replace=False)
        built = build_sampled_similarity(db, omega)
        hand = SimilarityBlock(
            signs=built.signs, neg_weight=built.neg_weight, query_indices=omega
        )
        assert np.array_equal(built.positive, hand.positive)
        assert np.array_equal(built.row_groups, hand.row_groups)

    def test_holds_one_query_by_group_array(self):
        # the relation is stored once, as bool; every other array is sized
        # by the rows, the groups or the queries, never by their product
        rng = np.random.default_rng(24)
        db = LabelMatrix(
            [rng.choice(40, int(rng.integers(1, 4)), replace=False) for _ in range(400)]
        )
        block = build_sampled_similarity(db, rng.choice(400, 50, replace=False))
        m, n, groups = block.query_count, block.db_count, block.group_count
        assert m * groups > 10 * (n + groups + m)
        assert block.positive.shape == (m, groups)
        assert block.positive.dtype == bool
        assert not block.positive.flags.writeable
        others = [
            value for name, value in vars(block).items()
            if isinstance(value, np.ndarray) and name != "positive"
        ]
        assert len(others) == 6
        assert all(arr.size <= n + groups + m for arr in others)

    def test_label_sets_are_compared_once_per_distinct_set(self, monkeypatch):
        labels = LabelMatrix.from_ids(np.arange(1000) % 7)
        assert labels.distinct() is labels.distinct()
        assert len(labels.distinct()[0]) == 7
        calls = []
        original = LabelMatrix.shares_label

        def counting(self, other):
            calls.append((len(self), len(other)))
            return original(self, other)

        monkeypatch.setattr(LabelMatrix, "shares_label", counting)
        build_sampled_similarity(labels, np.arange(50))
        build_similarity(LabelMatrix.from_ids([1, 2]), labels)
        assert calls == [(50, 7), (2, 7)]

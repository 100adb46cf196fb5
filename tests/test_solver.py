import copy
import tracemalloc
from functools import partial

import numpy as np
import pytest

from asymhash import hashcore, oracle, solver
from asymhash.dataio import gen_synthetic_clusters, split
from asymhash.encoder import (
    OptimizerState,
    _backprop,
    _forward_cached,
    encode_queries,
    forward,
    init_encoder,
    minibatch_step,
)
from asymhash.hashcore import _pack_bits
from asymhash.simgraph import (
    LabelMatrix,
    SimilarityBlock,
    _unique_rows,
    build_sampled_similarity,
    build_similarity,
    sample_query_indices,
)
from asymhash.solver import (
    MODES,
    TrainConfig,
    TrainingDiverged,
    _group_loss_and_grad,
    _group_stats,
    _pair_loss_and_grad,
    complexity_probe,
    history_to_csv,
    objective,
    train,
    v_step,
)


def random_block(rng, n, m, with_indices=True, weighted=False):
    signs = (rng.integers(0, 2, (m, n)) * 2 - 1).astype(np.int8)
    pos = int((signs == 1).sum())
    neg = signs.size - pos
    rho = pos / neg if weighted and pos and neg else 1.0
    omega = (
        rng.choice(n, m, replace=False).astype(np.int64) if with_indices else None
    )
    return SimilarityBlock(signs=signs, neg_weight=rho, query_indices=omega)


def random_setup(rng, n, m, c, with_indices=True, weighted=False):
    relaxed = rng.uniform(-0.95, 0.95, (m, c))
    db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64)
    block = random_block(rng, n, m, with_indices, weighted)
    return relaxed, db, block


def objective_of(relaxed, db, block, gamma):
    return objective(relaxed, _group_stats(db, block), block, gamma)


def score_every_column(monkeypatch):
    """Wrap ``solver.v_step`` so that each sweep appends, to the returned
    list, the objective before its first column and after each column.

    A column update writes only its own column, so after column k the
    codes are the sweep's in columns 0..k and the starting codes in the
    rest.
    """
    traces = []
    sweep = solver.v_step

    def scored(db_signs, relaxed, block, gamma):
        before = db_signs.copy()
        sweep(db_signs, relaxed, block, gamma)
        states = (
            np.hstack((db_signs[:, :k], before[:, k:]))
            for k in range(db_signs.shape[1] + 1)
        )
        traces.append([objective_of(relaxed, v, block, gamma) for v in states])
        return db_signs

    monkeypatch.setattr(solver, "v_step", scored)
    return traces


def as_tiny(relaxed, db, block, gamma):
    return oracle.TinyInstance(
        relaxed=relaxed,
        signs=block.signs.astype(np.float64),
        weights=block.weights(),
        gamma=gamma,
        db_signs=db,
        query_indices=block.query_indices,
    )


class TestObjective:
    def test_exact_fit_is_zero(self):
        relaxed = np.array([[1.0, 1.0]])
        db = np.array([[1.0, 1.0]])
        block = SimilarityBlock(
            signs=np.array([[1]], dtype=np.int8),
            neg_weight=1.0,
            query_indices=np.array([0]),
        )
        assert objective_of(relaxed, db, block, gamma=5.0) == pytest.approx(0.0)

    def test_hand_computed_value(self):
        relaxed = np.array([[0.5, 0.5]])
        db = np.array([[1.0, 1.0]])
        block = SimilarityBlock(
            signs=np.array([[1]], dtype=np.int8),
            neg_weight=1.0,
            query_indices=np.array([0]),
        )
        assert objective_of(relaxed, db, block, gamma=1.0) == pytest.approx(1.5)

    def test_linear_in_gamma(self):
        rng = np.random.default_rng(0)
        relaxed, db, block = random_setup(rng, 6, 3, 4)
        low = objective_of(relaxed, db, block, gamma=1.0)
        high = objective_of(relaxed, db, block, gamma=2.0)
        pull = ((db[block.query_indices] - relaxed) ** 2).sum()
        assert high - low == pytest.approx(pull)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_naive_triple_loop(self, weighted):
        rng = np.random.default_rng(1)
        for _ in range(10):
            relaxed, db, block = random_setup(rng, 7, 3, 3, weighted=weighted)
            fast = objective_of(relaxed, db, block, gamma=3.0)
            slow = oracle.naive_objective(as_tiny(relaxed, db, block, 3.0))
            assert fast == pytest.approx(slow, rel=1e-9)


    @pytest.mark.parametrize("weighted", [False, True])
    def test_long_codes_on_the_one_path(self, weighted):
        # c = 128 puts c * sign outside int8, and every group is small
        rng = np.random.default_rng(4)
        relaxed, db, block = random_setup(rng, 10, 4, 128, weighted=weighted)
        assert block.neg_weight != 1.0 or not weighted
        rows = np.arange(4)
        want = direct_loss_and_grad(relaxed, db, block, rows, 2.0)[0]
        got = objective_of(relaxed, db, block, gamma=2.0)
        assert got == pytest.approx(want, rel=1e-12)


class TestVStepColumn:
    """Each column update of a v_step sweep. Column k starts from the new
    columns < k and the old columns >= k, and leaves the new columns <= k
    and the old columns > k."""

    def test_aligns_with_all_positive_query(self):
        relaxed = np.array([[1.0]])
        db = np.array([[-1.0], [-1.0], [1.0]])
        block = SimilarityBlock(
            signs=np.array([[1, 1, 1]], dtype=np.int8), neg_weight=1.0
        )
        v_step(db, relaxed, block, gamma=0.0)
        assert db[:, 0].tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 200.0])
    def test_attains_exhaustive_minimum(self, weighted, gamma):
        rng = np.random.default_rng(2)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, min(n, 4) + 1))
            c = int(rng.integers(1, 5))
            relaxed, old, block = random_setup(rng, n, m, c, weighted=weighted)
            new = v_step(old.copy(), relaxed, block, gamma)
            for k in range(c):
                before = np.hstack([new[:, :k], old[:, k:]])
                after = np.hstack([new[:, : k + 1], old[:, k + 1 :]])
                _, best = oracle.exhaustive_column_min(
                    as_tiny(relaxed, before, block, gamma), k
                )
                got = oracle.naive_objective(as_tiny(relaxed, after, block, gamma))
                assert got == pytest.approx(best, abs=1e-9)

    def test_zero_coefficient_gives_minus_one(self):
        # with zero relaxed outputs and gamma 0 every coefficient is zero
        relaxed = np.zeros((1, 2))
        db = np.ones((3, 2))
        block = SimilarityBlock(
            signs=np.array([[1, 1, 1]], dtype=np.int8), neg_weight=1.0
        )
        v_step(db, relaxed, block, gamma=0.0)
        assert (db == -1.0).all()


class TestVStep:
    def test_objective_never_increases_per_column(self, monkeypatch):
        rng = np.random.default_rng(5)
        relaxed, db, block = random_setup(rng, 30, 6, 8, weighted=True)
        traces = score_every_column(monkeypatch)
        solver.v_step(db, relaxed, block, gamma=10.0)
        values = traces[0]
        assert len(values) == 9
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-9

    def test_reaches_fixed_point_on_tiny_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            relaxed, db, block = random_setup(rng, 8, 3, 3)
            changes = []
            previous = db.copy()
            for _ in range(8 * 3):  # at most code_len * n sweeps
                v_step(db, relaxed, block, gamma=1.0)
                changes.append(int((db != previous).sum()))
                previous = db.copy()
                if changes[-1] == 0:
                    break
            assert changes[-1] == 0

    def test_second_sweep_improves_no_more_than_first(self):
        rng = np.random.default_rng(7)
        relaxed, db, block = random_setup(rng, 20, 4, 6)
        j0 = objective_of(relaxed, db, block, 1.0)
        v_step(db, relaxed, block, 1.0)
        j1 = objective_of(relaxed, db, block, 1.0)
        v_step(db, relaxed, block, 1.0)
        j2 = objective_of(relaxed, db, block, 1.0)
        assert j0 - j1 >= (j1 - j2) - 1e-9

    def test_matches_entrywise_reference_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            weighted = trial % 2 == 0
            relaxed, db, block = random_setup(rng, 15, 4, 5, weighted=weighted)
            want = oracle.entrywise_v_step(
                relaxed, block.signs, block.weights(), 50.0, db,
                block.query_indices,
            )
            signs = db.astype(np.int8)
            v_step(db, relaxed, block, 50.0)
            v_step(signs, relaxed, block, 50.0)
            assert np.array_equal(db, want)
            assert signs.dtype == np.int8
            assert np.array_equal(signs, want)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sweeps_only_distinct_rows(self, weighted, monkeypatch):
        # small query codes near one code per class, each bit +1 in half
        # the classes: the first sweep from random codes collapses the rows
        # onto few codes, and the second sweeps exactly one row per
        # distinct (tag, code) key that the first one left
        _, labels = gen_synthetic_clusters(10, 300, 2, 0.1, seed=15)
        rng = np.random.default_rng(15)
        n, code_len = len(labels), 16
        omega = sample_query_indices(n, 100, rng)
        block = build_sampled_similarity(labels, omega, weighted)
        class_codes = np.array(
            [rng.permutation([1] * 5 + [-1] * 5) for _ in range(code_len)]
        ).T
        relaxed = 0.1 * class_codes[labels.ids[omega]]  # one label id per row
        relaxed += rng.uniform(-0.02, 0.02, relaxed.shape)
        db = (rng.integers(0, 2, (n, code_len)) * 2 - 1).astype(np.float64)
        swept = []
        update = solver._update_column

        def recording(work, k, *args):
            swept.append((k, len(work)))
            update(work, k, *args)

        monkeypatch.setattr(solver, "_update_column", recording)
        v_step(db, relaxed, block, 200.0)
        # gamma != 0: each sampled row reads its own row of the table
        tags = block.row_groups.copy()
        tags[omega] = block.group_count + np.arange(len(omega))
        keys = {(tag, *row) for tag, row in zip(tags.tolist(), db.tolist())}
        swept.clear()
        v_step(db, relaxed, block, 200.0)
        # a sweep may split the rows into blocks: count each column's rows
        # over all of them
        rows_per_column = np.bincount(
            [k for k, _ in swept], weights=[rows for _, rows in swept]
        )
        assert rows_per_column.tolist() == [len(keys)] * code_len
        assert len(keys) < n / 10

    def test_memory_is_one_code_array_on_distinct_rows(self):
        # every row distinct at rho = 1: the representatives are a whole copy
        # of the codes, so no other n x c array may be held beside them
        _, labels = gen_synthetic_clusters(10, 2000, 2, 0.1, seed=16)
        rng = np.random.default_rng(16)
        n, code_len = len(labels), 64
        omega = sample_query_indices(n, 200, rng)
        block = build_sampled_similarity(labels, omega, weighted=False)
        relaxed = rng.uniform(-0.95, 0.95, (200, code_len))
        db = (rng.integers(0, 2, (n, code_len)) * 2 - 1).astype(np.float64)
        assert len(np.unique(db, axis=0)) == n
        tracemalloc.start()
        try:
            v_step(db, relaxed, block, 200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * db.nbytes

    def test_int8_memory_is_a_few_code_arrays_on_distinct_rows(self):
        # training's int8 codes: the representatives are an int8 copy, and
        # float64 rows exist only in the one sweep block buffer
        _, labels = gen_synthetic_clusters(10, 2000, 2, 0.1, seed=16)
        rng = np.random.default_rng(16)
        n, code_len = len(labels), 64
        omega = sample_query_indices(n, 200, rng)
        block = build_sampled_similarity(labels, omega, weighted=False)
        relaxed = rng.uniform(-0.95, 0.95, (200, code_len))
        db = (rng.integers(0, 2, (n, code_len)) * 2 - 1).astype(np.int8)
        assert len(np.unique(db, axis=0)) == n
        want = db.astype(np.float64)
        tracemalloc.start()
        try:
            v_step(db, relaxed, block, 200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * db.nbytes + solver.SWEEP_BLOCK_BYTES
        v_step(want, relaxed, block, 200.0)
        assert np.array_equal(db, want)


def representatives(block, db):
    """v_step's representative rows at gamma != 0, in its order, and their
    tags: a sampled query's row reads its own row of the table."""
    tags = block.row_groups.copy()
    tags[block.query_indices] = block.group_count + np.arange(block.query_count)
    reps, _ = _unique_rows(*_pack_bits(db > 0).T, tags, block.row_groups)
    return reps, tags[reps]


def sweep_block_rows(monkeypatch, rows, code_len):
    """Make every V-step sweep block hold ``rows`` rows of ``code_len`` bits."""
    monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", rows * 8 * code_len)


class TestVStepBlocks:
    """A sweep runs every column over one block of representative rows
    before the next block. Each row's new code reads only its own row, so
    blocks of any size give the codes of the entrywise reference."""

    CODE_LEN = 10
    RHO_ONE = ("rho_one", "private_tags_last")

    def block_and_codes(self, case, rng):
        if case == "multi_label":
            labels = multi_label_set(rng, 300)
        else:
            _, labels = gen_synthetic_clusters(10, 30, 2, 0.1, seed=18)
        n = len(labels)
        omega = sample_query_indices(n, 40, rng)
        block = build_sampled_similarity(labels, omega, case not in self.RHO_ONE)
        db = (rng.integers(0, 2, (n, self.CODE_LEN)) * 2 - 1).astype(np.float64)
        if case.startswith("private_tags"):
            # one code per group: the private-tag rows of the sampled
            # queries are the only rows apart from their group's
            db = db[block.row_groups]
        return block, db

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize(
        "case",
        ["rho_one", "multi_label", "private_tags", "private_tags_last", "gamma_zero"],
    )
    def test_matches_entrywise_reference_bit_for_bit(self, case, rows, monkeypatch):
        sweep_block_rows(monkeypatch, rows, self.CODE_LEN)
        rng = np.random.default_rng(18)
        block, db = self.block_and_codes(case, rng)
        assert (block.neg_weight == 1.0) == (case in self.RHO_ONE)
        if case == "multi_label":
            assert block.group_count > 100
        gamma = 0.0 if case == "gamma_zero" else 200.0
        relaxed = rng.uniform(-0.95, 0.95, (block.query_count, self.CODE_LEN))
        if case.startswith("private_tags"):
            reps, tags = representatives(block, db)
            private = tags >= block.group_count
            assert private.sum() == block.query_count
            # v_step's order at any rho (private_tags_last is rho = 1): by
            # group, then tag. Each query's row sits next to its group's
            # row, so blocks mix private and shared tags, and the private
            # tags do not fill the last blocks.
            assert not private[-block.query_count :].all()
            assert (np.diff(block.row_groups[reps]) >= 0).all()
            assert len(reps) > 2 * rows
        weights = block.weights()
        signs = db.astype(np.int8)  # training's codes, swept beside float64
        for _ in range(2):
            want = oracle.entrywise_v_step(
                relaxed, block.signs, weights, gamma, db, block.query_indices
            )
            v_step(db, relaxed, block, gamma)
            v_step(signs, relaxed, block, gamma)
            assert np.array_equal(db, want)
            assert np.array_equal(signs, want)

    @pytest.mark.parametrize("groups", [29, 40, 57, 150])
    def test_group_cap_ends_the_blocks(self, groups, monkeypatch):
        # room for the pair products of ``groups`` groups, and so for
        # (c + 1) / 2 * groups rows. The group cap is those groups but at
        # least 128, so below 128 it is wider than the budget. A block ends
        # where one more representative would pass the row cap or span
        # more groups than the cap, and nowhere else.
        pairs = self.CODE_LEN * (self.CODE_LEN + 1) // 2
        monkeypatch.setattr(solver, "SWEEP_BLOCK_BYTES", groups * 8 * pairs)
        row_cap = solver._block_rows(self.CODE_LEN)
        group_cap = max(groups, 128)
        rng = np.random.default_rng(19)
        block, db = self.block_and_codes("multi_label", rng)
        db = db[block.row_groups]
        relaxed = rng.uniform(-0.95, 0.95, (block.query_count, self.CODE_LEN))
        blocks, spans = [], []
        update = solver._update_column

        def recording(work, k, *args):
            if k == 0:
                blocks.append(len(work))
            update(work, k, *args)

        monkeypatch.setattr(solver, "_update_column", recording)
        signs = db.astype(np.int8)
        for _ in range(2):
            want = oracle.entrywise_v_step(
                relaxed, block.signs, block.weights(), 200.0, db,
                block.query_indices,
            )
            rep_groups = block.row_groups[representatives(block, db)[0]]
            blocks.clear()
            v_step(db, relaxed, block, 200.0)
            ends = np.cumsum(blocks)
            assert ends[-1] == len(rep_groups)
            for start, stop in zip(ends - blocks, ends):
                span = rep_groups[stop - 1] - rep_groups[start] + 1
                assert stop - start <= row_cap and span <= group_cap
                if stop < len(rep_groups):
                    wider = rep_groups[stop] - rep_groups[start] + 1
                    assert stop - start == row_cap or wider > group_cap
                spans.append(span)
            v_step(signs, relaxed, block, 200.0)
            assert np.array_equal(db, want)
            assert np.array_equal(signs, want)
        assert len(spans) > 2 and max(spans) == group_cap


class TestPairProducts:
    """The (1 - rho) term's B_k = P_g^T (R * r_k) of every column k, read
    from one product of the pair columns r_ik * r_il (k <= l), the one
    path of every weighted V-step."""

    @pytest.mark.parametrize(
        "c, m", [(3, 40), (16, 200), (24, 150), (33, 100), (64, 200), (70, 200)]
    )
    def test_every_entry_is_the_per_column_product_to_rounding(self, c, m):
        # the same sums, but BLAS may take them in another order for another
        # output width: an entry can differ from the per-column product's in
        # its last bits, so only a near-tie coefficient could differ
        rng = np.random.default_rng(43)
        labels = multi_label_set(rng, 1000)
        block = build_sampled_similarity(labels, sample_query_indices(1000, m, rng))
        assert block.neg_weight != 1.0 and block.group_count > 300
        relaxed = rng.uniform(-0.95, 0.95, (m, c))
        pairs, pair_of = solver._pair_products(relaxed)
        assert pairs.shape == (m, c * (c + 1) // 2)
        assert np.array_equal(pair_of, pair_of.T)
        assert sorted(np.unique(pair_of)) == list(range(pairs.shape[1]))
        for groups in (slice(None), slice(0, 7), slice(101, 302), slice(299, 300)):
            products = block.relation_t_dot(pairs, groups)
            for k in range(c):
                want = block.relation_t_dot(relaxed * relaxed[:, k, None], groups)
                assert_close_at_scale(products[:, pair_of[k]], want, 1e-14)

    @pytest.mark.parametrize(
        "c, m", [(16, 481), (16, 482), (16, 1000), (64, 31), (64, 32), (64, 200)]
    )
    def test_pair_columns_are_built_once_per_weighted_call(self, c, m, monkeypatch):
        # on both sides of the m at which the pair columns outgrow
        # SWEEP_BLOCK_BYTES (481 at c = 16, 31 at c = 64) and well past it:
        # each weighted call builds them once, an unweighted call never, and
        # both give the reference codes
        rng = np.random.default_rng(47)
        labels = multi_label_set(rng, 1200)
        omega = sample_query_indices(1200, m, rng)
        relaxed = rng.uniform(-0.95, 0.95, (m, c))
        start = (rng.integers(0, 2, (len(labels), c)) * 2 - 1).astype(np.int8)
        built = []
        pair_products = solver._pair_products

        def counting(relaxed):
            built.append(len(relaxed))
            return pair_products(relaxed)

        monkeypatch.setattr(solver, "_pair_products", counting)
        for weighted in (True, False):
            block = build_sampled_similarity(labels, omega, weighted)
            assert (block.neg_weight != 1.0) == weighted
            want = oracle.entrywise_v_step(
                relaxed, block.signs, block.weights(), 200.0, start,
                block.query_indices,
            )
            built.clear()
            db = start.copy()
            v_step(db, relaxed, block, 200.0)
            assert built == ([m] if weighted else [])
            assert np.array_equal(db, want)

    def test_sweep_holds_the_pair_products_of_a_few_groups_at_a_time(self):
        # ~1.6 representatives per group: one 4,096-row sweep block at
        # c = 16 spans all ~1,900 groups, whose pair products would take
        # 2.1 MB; the group cap holds 481 groups' at a time
        rng = np.random.default_rng(44)
        labels = multi_label_set(rng, 3000)
        n, c, m = len(labels), 16, 200
        block = build_sampled_similarity(labels, sample_query_indices(n, m, rng))
        assert block.neg_weight != 1.0 and block.group_count > 1500
        assert m * c * (c + 1) // 2 * 8 <= solver.SWEEP_BLOCK_BYTES
        relaxed = rng.uniform(-0.95, 0.95, (m, c))
        db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.int8)
        want = db.astype(np.float64)
        block.relation_t_dot(relaxed)  # the block's own float64 cast, kept
        tracemalloc.start()
        try:
            v_step(db, relaxed, block, 200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = (block.group_count + m) * c * 8  # the linear terms, built once
        # the pair columns, one block's product and its row buffers each fit
        # in SWEEP_BLOCK_BYTES
        assert peak <= table + 4 * solver.SWEEP_BLOCK_BYTES + 8 * db.nbytes
        v_step(want, relaxed, block, 200.0)
        assert np.array_equal(db, want)

    @pytest.mark.parametrize("c, m, n", [(16, 1000, 3000), (64, 1000, 3000), (64, 200, 20000)])
    def test_weighted_call_holds_the_declared_peak(self, c, m, n):
        # v_step's docstring bounds the peak by the pair columns, one table,
        # one block's products under the group cap (481 groups at c = 16,
        # 128 at c = 64), the swept rows, a few SWEEP_BLOCK_BYTES and a few
        # n-entry index arrays. m = 1000 is the default --omega; at 20k
        # rows and m = 200 the table and the n-row arrays weigh most
        rng = np.random.default_rng(48)
        labels = multi_label_set(rng, n)
        block = build_sampled_similarity(labels, sample_query_indices(n, m, rng))
        assert block.neg_weight != 1.0 and block.group_count > n / 3
        relaxed = rng.uniform(-0.95, 0.95, (m, c))
        db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.int8)
        block.relation_t_dot(relaxed)  # the block's own float64 cast, kept
        tracemalloc.start()
        try:
            v_step(db, relaxed, block, 200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = c * (c + 1) // 2
        group_cap = max(solver._block_rows(pairs), 128)
        assert group_cap == {16: 481, 64: 128}[c]
        bound = (
            8 * m * pairs  # the pair columns
            + 8 * (block.group_count + m) * c  # the table
            + 8 * group_cap * pairs  # one block's products
            + db.nbytes  # the swept rows
            + 4 * solver.SWEEP_BLOCK_BYTES  # block rows and column reads
            + 8 * 8 * n  # the sweep key and the write-back index
        )
        assert peak <= bound
        # the pair columns are built whole, once
        assert peak > 8 * m * pairs

    def test_linear_term_table_is_one_allocation(self, monkeypatch):
        # up to the sweep key the call holds one (G + m) x c table, filled in
        # place, beside the sign mask and the pull term's m x c product: no
        # G x c array beside it
        rng = np.random.default_rng(49)
        labels = multi_label_set(rng, 3000)
        n, c, m = len(labels), 64, 200
        block = build_sampled_similarity(labels, sample_query_indices(n, m, rng))
        relaxed = rng.uniform(-0.95, 0.95, (m, c))
        db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.int8)
        want = db.astype(np.float64)
        block.relation_t_dot(relaxed)  # the block's own float64 cast, kept
        at_key = []
        unique_rows = solver._unique_rows

        def recording(*keys):
            at_key.append(tracemalloc.get_traced_memory()[1])
            return unique_rows(*keys)

        monkeypatch.setattr(solver, "_unique_rows", recording)
        tracemalloc.start()
        try:
            v_step(db, relaxed, block, 200.0)
        finally:
            tracemalloc.stop()
        table = 8 * (block.group_count + m) * c
        assert 8 * block.group_count * c > db.nbytes + 8 * m * c + 4 * 8 * n
        assert at_key[0] <= table + db.nbytes + 8 * m * c + 4 * 8 * n
        v_step(want, relaxed, block, 200.0)
        assert np.array_equal(db, want)

@pytest.mark.parametrize(
    "n, code_len, rows",
    [(50000, 64, 4096), (20000, 16, 4096), (1001, 17, 100), (5000, 1, 4096),
     (3000, 63, 7)],
)
def test_init_codes_in_blocks_draw_one_stream(n, code_len, rows, monkeypatch):
    # the blocks draw the stream of one whole-array call and leave the
    # generator where that call leaves it
    sweep_block_rows(monkeypatch, rows, code_len)
    rng = np.random.default_rng(20)
    whole = np.random.default_rng(20)
    got = solver._init_db_codes(rng, n, code_len)
    want = (whole.integers(0, 2, size=(n, code_len)) * 2 - 1).astype(np.int8)
    assert got.dtype == np.int8
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == whole.bit_generator.state
    assert rng.integers(0, 1 << 62) == whole.integers(0, 1 << 62)


def multi_label_set(rng, n, num_ids=80):
    """1-3 label ids of ``num_ids`` per row, so ids reach past 64."""
    return LabelMatrix(
        [rng.choice(num_ids, int(rng.integers(1, 4)), replace=False) for _ in range(n)]
    )


class TestVStepOnLabelBlocks:
    """Sampled blocks built from labels, as in training: many rows share a
    label-set group, and the multi-label set has hundreds of groups. The
    ``shared_keys`` cases and ``gamma_zero`` start from codes that are
    constant within each group, so sampled rows share a group and a code
    with unsampled rows; only their own pull term sets them apart."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "dataset",
        [
            "clusters", "multi_label", "shared_keys", "multi_label_shared_keys",
            "gamma_zero", "separate", "c64", "c70",
        ],
    )
    def test_matches_entrywise_reference_bit_for_bit(self, dataset, weighted):
        rng = np.random.default_rng(14)
        multi_label = dataset.startswith("multi_label")
        if multi_label:
            labels = multi_label_set(rng, 1500)
            features = rng.normal(size=(1500, 16))
        else:
            features, labels = gen_synthetic_clusters(10, 150, 16, 0.1, seed=14)
        n = len(labels)
        omega = sample_query_indices(n, 120, rng)
        if dataset == "separate":
            block = build_similarity(labels.subset(omega), labels, weighted)
        else:
            block = build_sampled_similarity(labels, omega, weighted)
        groups = np.unique(block.signs, axis=1).shape[1]
        if multi_label:
            assert groups >= 300
        else:
            assert groups == 10
        code_len = {"c64": 64, "c70": 70}.get(dataset, 24)
        gamma = 0.0 if dataset == "gamma_zero" else 200.0
        model = init_encoder((16, 32, code_len), rng)
        relaxed = forward(model, features[omega])
        db = (rng.integers(0, 2, (n, code_len)) * 2 - 1).astype(np.float64)
        if dataset.endswith("shared_keys") or dataset == "gamma_zero":
            db = db[block.row_groups]  # row g's code for all of group g
        elif code_len >= 64:
            # rows of a group differ only in their last 6 bits, which for
            # c = 70 are all of the second code word
            db[:, :-6] = db[block.row_groups, :-6]
        weights = block.weights()
        signs = db.astype(np.int8)  # training's codes, swept beside float64
        for _ in range(2):
            want = oracle.entrywise_v_step(
                relaxed, block.signs, weights, gamma, db, block.query_indices
            )
            v_step(db, relaxed, block, gamma)
            v_step(signs, relaxed, block, gamma)
            assert np.array_equal(db, want)
            assert np.array_equal(signs, want)

    def test_default_block_sweeps_at_its_imbalance_weight(self):
        # a label-built block is weighted by default, and v_step sweeps at
        # its neg_weight with no flag of its own
        _, labels = gen_synthetic_clusters(10, 150, 2, 0.1, seed=17)
        rng = np.random.default_rng(17)
        n, code_len = len(labels), 12
        block = build_sampled_similarity(labels, sample_query_indices(n, 80, rng))
        assert block.neg_weight != 1.0
        relaxed = rng.uniform(-0.95, 0.95, (80, code_len))
        db = (rng.integers(0, 2, (n, code_len)) * 2 - 1).astype(np.float64)
        want = oracle.entrywise_v_step(
            relaxed, block.signs, block.weights(), 200.0, db, block.query_indices
        )
        v_step(db, relaxed, block, 200.0)
        assert np.array_equal(db, want)


def repeated_column_block(rng, n, m, pool_size, sampled, weighted):
    """Hand-built block whose n sign columns repeat ``pool_size`` columns."""
    pool = rng.integers(0, 2, (m, pool_size)) * 2 - 1
    signs = pool[:, rng.integers(0, pool_size, n)]
    pos = int((signs == 1).sum())
    rho = pos / (signs.size - pos) if weighted and 0 < pos < signs.size else 1.0
    omega = rng.choice(n, m, replace=False) if sampled else None
    return SimilarityBlock(signs=signs, neg_weight=rho, query_indices=omega)


def sized_group_block(rng, sizes, m, sampled, weighted):
    """Hand-built block whose groups have the given row counts, their rows
    shuffled across the database; about 10% of the signs are positive."""
    pool = np.where(rng.random((m, len(sizes))) < 0.1, 1, -1)
    signs = pool[:, rng.permutation(np.repeat(np.arange(len(sizes)), sizes))]
    pos = int((signs == 1).sum())
    omega = rng.choice(signs.shape[1], m, replace=False) if sampled else None
    rho = pos / (signs.size - pos) if weighted and pos else 1.0
    block = SimilarityBlock(signs, rho, omega)
    assert sorted(block.group_sizes) == sorted(sizes)  # the pool's columns differ
    return block


def chunk_splits_a_group(block, code_len, rows):
    """Whether a chunk of the small-group product over ``rows`` query rows
    (db_count // rows database rows of the groups of at most c rows, group
    by group) ends inside a group."""
    sizes = block.group_sizes[block.group_sizes <= code_len]
    step = max(1, block.db_count // rows)
    ends = np.arange(step, sizes.sum(), step)
    return not np.isin(ends, np.cumsum(sizes)).all()


def label_block(rng, labels, m, sampled, weighted):
    n = len(labels)
    if sampled:
        omega = rng.choice(n, m, replace=False)
        return build_sampled_similarity(labels, omega, weighted)
    queries = labels.subset(rng.choice(n, m))
    return build_similarity(queries, labels, weighted)


def direct_loss_and_grad(relaxed, db, block, rows, gamma):
    """The m x n reference: expanded signs and weights of the block's rows."""
    weights = block.weights()[rows]
    own = None
    if block.query_indices is not None:
        own = db[block.query_indices[rows]]
    return _pair_loss_and_grad(
        relaxed, db, block.signs[rows].astype(np.float64), weights, own, gamma
    )


def assert_groups_on_both_sides(block, code_len):
    """Groups of more than c rows take their Gram, smaller ones their
    positive pairs: the block must exercise both."""
    assert (block.group_sizes > code_len).any()
    assert (block.group_sizes <= code_len).any()


def assert_close_at_scale(got, want, rel):
    """Entrywise |got - want| <= rel * max |want|: the direct form sums n
    terms per entry, so its own rounding is relative to the array's scale,
    not to each (possibly cancelled) entry."""
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestGroupForm:
    """The label-group objective and theta gradient against the direct
    m x n forms, with groups on both sides of the n_g <= c rule."""

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_objective_matches_naive_triple_loop(self, weighted, sampled):
        rng = np.random.default_rng(31)
        sides = {"gram": 0, "pairs": 0}
        for trial in range(40):
            n = int(rng.integers(6, 13))
            m = int(rng.integers(1, 6))
            c = int(rng.integers(1, 7))
            if trial % 2:
                block = repeated_column_block(
                    rng, n, m, int(rng.integers(1, 4)), sampled, weighted
                )
            else:
                labels = LabelMatrix(
                    [rng.choice(70, int(rng.integers(1, 3)), replace=False)
                     for _ in range(n)]
                )
                block = label_block(rng, labels, m, sampled, weighted)
            relaxed = rng.uniform(-0.95, 0.95, (m, c))
            db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64)
            fast = objective_of(relaxed, db, block, 3.0)
            slow = oracle.naive_objective(as_tiny(relaxed, db, block, 3.0))
            assert type(fast) is float
            assert fast == pytest.approx(slow, rel=1e-9)
            sides["gram"] += bool((block.group_sizes > c).any())
            sides["pairs"] += bool((block.group_sizes <= c).any())
        assert sides["gram"] >= 10 and sides["pairs"] >= 10

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "kind",
        [
            "clusters", "multi_label", "repeated",
            "all_small", "exactly_c", "split_chunk",
        ],
    )
    def test_matches_direct_form(self, kind, weighted, sampled):
        rng = np.random.default_rng(32)
        n, m, c = 1500, 120, 16
        if kind == "clusters":
            labels = gen_synthetic_clusters(10, 150, 4, 0.1, seed=32)[1]
            block = label_block(rng, labels, m, sampled, weighted)
        elif kind == "multi_label":
            block = label_block(rng, multi_label_set(rng, n), m, sampled, weighted)
        elif kind == "repeated":
            block = repeated_column_block(rng, n, m, 30, sampled, weighted)
        elif kind == "all_small":  # every database row its own group
            block = sized_group_block(rng, [1] * n, m, sampled, weighted)
        elif kind == "exactly_c":
            sizes = [c - 1, c, c + 1] * 30 + [2] * 30
            block = sized_group_block(rng, sizes, m, sampled, weighted)
        else:
            # 7-row groups and 1498 rows: chunks of 1498 // 50 = 29 and
            # 1498 // 120 = 12 rows end inside groups
            block = sized_group_block(rng, [7] * 214, m, sampled, weighted)
        n = block.db_count
        if kind == "multi_label":
            assert_groups_on_both_sides(block, c)
        elif kind == "all_small":
            assert (block.group_sizes == 1).all()
        elif kind == "exactly_c":
            assert_groups_on_both_sides(block, c)
            assert (block.group_sizes == c).sum() == 30
        elif kind == "split_chunk":
            assert chunk_splits_a_group(block, c, 50)
            assert chunk_splits_a_group(block, c, m)
        relaxed = rng.uniform(-0.95, 0.95, (m, c))
        db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64)
        rows = rng.permutation(m)[:50]
        loss, grad = _group_loss_and_grad(
            relaxed[rows], rows, block, _group_stats(db, block), 200.0
        )
        want_loss, want_grad = direct_loss_and_grad(
            relaxed[rows], db, block, rows, 200.0
        )
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert_close_at_scale(grad, want_grad, 1e-12)
        full = np.arange(m)
        want = direct_loss_and_grad(relaxed, db, block, full, 200.0)[0]
        got = objective_of(relaxed, db, block, 200.0)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind", ["clusters", "multi_label"])
    def test_int8_codes_give_the_same_terms(self, kind, weighted, sampled, monkeypatch):
        # training holds V as int8; every sum and Gram of +/-1 codes is an
        # integer, exact in float64, so every field keeps its bits and its
        # dtype. Blocks of 7 rows make each Gram a sum of many blocks.
        rng = np.random.default_rng(39)
        c = 16
        sweep_block_rows(monkeypatch, 7, c)
        if kind == "clusters":
            labels = gen_synthetic_clusters(10, 150, 4, 0.1, seed=39)[1]
        else:
            labels = multi_label_set(rng, 1500)
        block = label_block(rng, labels, 120, sampled, weighted)
        assert (block.neg_weight != 1.0) == weighted
        if kind == "multi_label":
            assert_groups_on_both_sides(block, c)
        db = (rng.integers(0, 2, (block.db_count, c)) * 2 - 1).astype(np.float64)
        want = _group_stats(db, block)
        got = _group_stats(db.astype(np.int8), block)
        assert np.array_equal(want.gram, db.T @ db)
        assert (want.own is None) == (not sampled)
        for field, value, expected in zip(want._fields, got, want):
            if expected is None:
                assert value is None, field
            else:
                assert value.dtype == expected.dtype, field
                assert value.shape == expected.shape, field
                assert value.tobytes() == expected.tobytes(), field

    def test_group_sums_per_column_equal_per_group(self):
        # groups of more than c rows are summed one at a time, the rest in
        # one reduceat; both give the per-row sums behind each query's
        # linear term, and rho != 1 keeps the Gram V_g^T V_g of each large
        # group
        rng = np.random.default_rng(36)
        block = label_block(rng, multi_label_set(rng, 1500), 120, True, False)
        db = (rng.integers(0, 2, (1500, 8)) * 2 - 1).astype(np.float64)
        assert_groups_on_both_sides(block, 8)
        halved = SimilarityBlock(block.signs, 0.5, block.query_indices)
        assert np.array_equal(halved.row_groups, block.row_groups)
        unweighted = _group_stats(db, block)
        weighted = _group_stats(db, halved)
        sums = np.zeros((block.group_count, 8))
        for row, group in zip(db, block.row_groups):
            sums[group] += row
        for rho, stats in ((1.0, unweighted), (0.5, weighted)):
            want = (1.0 + rho) * (block.positive.astype(np.float64) @ sums)
            want -= rho * sums.sum(axis=0)
            assert np.array_equal(stats.target, want)
        assert np.array_equal(unweighted.gram, weighted.gram)
        assert unweighted.grams is None
        assert np.array_equal(weighted.large, np.flatnonzero(block.group_sizes > 8))
        for g, gram in zip(weighted.large, weighted.grams):
            codes = db[block.row_groups == g]
            assert np.array_equal(gram, codes.T @ codes)

    @pytest.mark.parametrize("dtype", [np.float64, np.int8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_large_groups_sum_over_many_row_blocks(self, weighted, dtype, monkeypatch):
        # a large group's rows, shuffled across the database, go through
        # blocks of 7 rows: its Gram and its sum add up over 3 to 8 blocks,
        # and V^T V is every group's Gram summed. Each entry is an exact
        # integer, so every term equals its reference.
        rng = np.random.default_rng(41)
        c = 8
        sweep_block_rows(monkeypatch, 7, c)
        block = sized_group_block(rng, [50, 23, 17, 8, 5, 3], 40, True, weighted)
        assert (block.neg_weight != 1.0) == weighted
        db = (rng.integers(0, 2, (block.db_count, c)) * 2 - 1).astype(dtype)
        stats = _group_stats(db, block)
        wide = db.astype(np.float64)
        assert np.array_equal(stats.gram, wide.T @ wide)
        sums = np.zeros((block.group_count, c))
        for row, group in zip(wide, block.row_groups):
            sums[group] += row
        rho = block.neg_weight
        want = (1.0 + rho) * (block.positive.astype(np.float64) @ sums)
        want -= rho * sums.sum(axis=0)
        assert np.array_equal(stats.target, want)
        assert np.array_equal(stats.large, np.flatnonzero(block.group_sizes > c))
        assert (block.group_sizes[stats.large] > 2 * 7).all()  # 3+ blocks each
        if not weighted:
            assert stats.grams is None
            return
        assert len(stats.grams) == 3
        for g, gram in zip(stats.large, stats.grams):
            codes = wide[block.row_groups == g]
            assert np.array_equal(gram, codes.T @ codes)

    def test_memory_is_a_few_row_blocks_whatever_the_group_size(self):
        # each group of 20,000 rows at c = 64 is 10 MiB as float64; one call
        # holds float64 rows of a large group one SWEEP_BLOCK_BYTES block at
        # a time, beside its outputs
        rng = np.random.default_rng(42)
        c, per = 64, 20000
        labels = LabelMatrix.from_ids(np.repeat(np.arange(3), per))
        omega = sample_query_indices(3 * per, 200, rng)
        block = build_sampled_similarity(labels, omega, weighted=True)
        assert block.neg_weight != 1.0
        assert (block.group_sizes >= per).all()
        db = (rng.integers(0, 2, (3 * per, c)) * 2 - 1).astype(np.int8)
        tracemalloc.start()
        try:
            stats = _group_stats(db, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(field.nbytes for field in stats if field is not None)
        assert peak <= 3 * solver.SWEEP_BLOCK_BYTES + outputs

    def test_unweighted_call_holds_no_gram_per_large_group(self):
        # 300 groups of 70 rows at c = 64: a c x c Gram per group would be
        # 9.8 MB, which rho = 1 never reads; its blocks add to one V^T V
        rng = np.random.default_rng(46)
        c, groups = 64, 300
        block = sized_group_block(rng, [70] * groups, 80, True, False)
        assert block.neg_weight == 1.0
        db = (rng.integers(0, 2, (block.db_count, c)) * 2 - 1).astype(np.int8)
        block.relation_dot(np.zeros((groups, c)))  # the block's own cast, kept
        tracemalloc.start()
        try:
            stats = _group_stats(db, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stats.large) == groups and stats.grams is None
        wide = db.astype(np.float64)
        assert np.array_equal(stats.gram, wide.T @ wide)
        outputs = sum(field.nbytes for field in stats if field is not None)
        sums = groups * c * 8
        bound = 3 * solver.SWEEP_BLOCK_BYTES + outputs + sums
        assert bound < groups * c * c * 8 / 2
        assert peak <= bound

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("kind", ["clusters", "multi_label"])
    def test_minibatch_step_matches_direct_step(self, kind, weighted):
        rng = np.random.default_rng(33)
        if kind == "clusters":
            features, labels = gen_synthetic_clusters(10, 150, 8, 0.1, seed=33)
        else:
            labels = multi_label_set(rng, 1500)
            features = rng.normal(size=(1500, 8))
        n, c = len(labels), 24
        omega = rng.choice(n, 100, replace=False)
        block = build_sampled_similarity(labels, omega, weighted)
        model = init_encoder((8, 16, c), rng)
        db = (rng.integers(0, 2, (n, c)) * 2 - 1).astype(np.float64)
        batch = rng.permutation(100)[:40]
        stepped = copy.deepcopy(model)
        loss = minibatch_step(
            stepped, OptimizerState(1.0), features[omega][batch],
            partial(
                _group_loss_and_grad, rows=batch, block=block,
                stats=_group_stats(db, block), gamma=50.0,
            ),
        )
        relaxed, acts = _forward_cached(model, features[omega][batch])
        want_loss, grad = direct_loss_and_grad(relaxed, db, block, batch, 50.0)
        grad_w, grad_b = _backprop(model, acts, relaxed, grad)
        direct = copy.deepcopy(model)
        OptimizerState(1.0).apply(direct, grad_w, grad_b)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for got, want, start in zip(
            stepped.params(), direct.params(), model.params()
        ):
            assert_close_at_scale(got - start, want - start, 1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dataset", ["clusters", "multi_label"])
    @pytest.mark.parametrize("mode", MODES[:2])
    def test_train_never_calls_the_expanded_signs(
        self, mode, dataset, weighted, monkeypatch
    ):
        # every label structure takes the group form: no expanded signs or
        # weights, and no call to the direct m x n loss
        rng = np.random.default_rng(34)
        if dataset == "clusters":
            features, labels = gen_synthetic_clusters(6, 40, 8, 0.1, seed=34)
        else:
            labels = multi_label_set(rng, 240)
            features = rng.normal(size=(240, 8))
        parts = split(len(labels), 30, 0, seed=34)
        db_labels = labels.subset(parts.db_indices)
        block = build_similarity(labels.subset(parts.query_indices), db_labels)
        if dataset == "multi_label":
            assert_groups_on_both_sides(block, 8)

        def expanded(*_):
            raise AssertionError("train called the m x n expansion")

        monkeypatch.setattr(SimilarityBlock, "signs", property(expanded))
        monkeypatch.setattr(SimilarityBlock, "weights", expanded)
        monkeypatch.setattr(solver, "_pair_loss_and_grad", expanded)
        config = TrainConfig(
            code_len=8, query_count=30, outer_iters=2, inner_iters=2,
            batch_size=16, seed=34, mode=mode, hidden_dims=(8,),
            imbalance_weighting=weighted,
        )
        result = train(
            features[parts.db_indices], db_labels, config,
            query_features=features[parts.query_indices],
            query_labels=labels.subset(parts.query_indices),
        )
        assert result.codes.rows == len(parts.db_indices)


@pytest.mark.parametrize("dataset", ["clusters", "multi_label"])
def test_train_memory_does_not_grow_with_query_count(dataset):
    # Weighted training, one outer iteration. At m = 800 it may hold more
    # per-query arrays than at m = 100 (m x c codes and activations, m x G
    # group relations), but nothing m x n. clusters: n = 20k rows in 10
    # label groups. multi_label: n = 4k rows in ~2.5k groups, most of
    # them no larger than c, so both sides of the loss run.
    if dataset == "clusters":
        features, labels = gen_synthetic_clusters(10, 2000, 8, 0.1, seed=35)
    else:
        rng = np.random.default_rng(35)
        labels = multi_label_set(rng, 4000)
        features = rng.normal(size=(4000, 8))
    code_len = 16
    groups = len(labels.distinct()[0])  # no block has more groups

    def peak_bytes(m):
        config = TrainConfig(
            code_len=code_len, query_count=m, outer_iters=1, inner_iters=1,
            batch_size=100, seed=35, optimizer="adam", hidden_dims=(16,),
        )
        tracemalloc.start()
        try:
            train(features, labels, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a dozen float64 arrays of m x c and three of m x G (features and
    # hidden are no wider than c here)
    def per_query_bytes(m):
        return m * 8 * (12 * code_len + 3 * groups)

    small, large = peak_bytes(100), peak_bytes(800)
    assert large <= 1.1 * small + per_query_bytes(800)


def test_train_holds_less_than_one_float64_code_array():
    # An all-distinct 64-bit start: V is int8, and the sweep and the loss
    # terms cast only row blocks of it to float64, so no n x c float64
    # array is made
    features, labels = gen_synthetic_clusters(10, 2000, 8, 0.1, seed=3)
    n, code_len = len(labels), 64
    config = TrainConfig(
        code_len=code_len, query_count=100, outer_iters=1, inner_iters=1,
        batch_size=50, hidden_dims=(16,), imbalance_weighting=False,
    )
    tracemalloc.start()
    try:
        train(features, labels, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * code_len


def test_objective_holds_no_query_by_code_squared_array():
    # Weighted, c = 64, 10 label groups of 400 rows, all larger than c: the
    # large groups' summed Grams come in chunks of rows, never as one
    # m x c x c float64 array, which would be as large as 64 m x c arrays
    _, labels = gen_synthetic_clusters(10, 400, 2, 0.1, seed=38)
    rng = np.random.default_rng(38)
    n, m, code_len = len(labels), 500, 64
    block = build_sampled_similarity(labels, sample_query_indices(n, m, rng))
    db = (rng.integers(0, 2, (n, code_len)) * 2 - 1).astype(np.float64)
    stats = _group_stats(db, block)
    assert len(stats.large) == block.group_count == 10
    relaxed = rng.uniform(-0.95, 0.95, (m, code_len))
    tracemalloc.start()
    try:
        objective(relaxed, stats, block, 200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * relaxed.nbytes  # the loss's own m x c arrays


def test_train_builds_the_loss_terms_once_per_code_state(monkeypatch):
    # Weighted multi-label training at 2 x 2. The terms are built once per
    # block and once per V-step, and every objective and minibatch step
    # reads those of the codes and block it runs on, never stale ones.
    rng = np.random.default_rng(37)
    labels = multi_label_set(rng, 600)
    features = rng.normal(size=(600, 8))
    tout, tin, code_len = 2, 2, 8
    codes = []  # train's database codes, which v_step updates in place
    init_codes = solver._init_db_codes

    def kept(*args):
        codes.append(init_codes(*args))
        return codes[0]

    monkeypatch.setattr(solver, "_init_db_codes", kept)
    group_stats = solver._group_stats
    built = []

    def counted(*args):
        built.append(args[1])
        return group_stats(*args)

    monkeypatch.setattr(solver, "_group_stats", counted)
    loss_and_grad = solver._group_loss_and_grad
    states = []

    def checked(relaxed, rows, block, stats, gamma):
        assert block is built[-1]
        assert_groups_on_both_sides(block, code_len)
        want = group_stats(codes[0], block)
        for field, got, expected in zip(stats._fields, stats, want):
            if expected is None:
                assert got is None, field
            else:
                assert np.array_equal(got, expected), field
        states.append(stats.target.tobytes())
        return loss_and_grad(relaxed, rows, block, stats, gamma)

    monkeypatch.setattr(solver, "_group_loss_and_grad", checked)
    config = TrainConfig(
        code_len=code_len, query_count=40, outer_iters=tout, inner_iters=tin,
        batch_size=16, seed=37, hidden_dims=(8,),
    )
    train(features, labels, config)
    assert len(built) == tout * (1 + tin)
    # 1 + 2 * tout * tin objectives and tout * tin * 3 minibatch steps
    assert len(states) == 1 + 2 * tout * tin + tout * tin * 3
    assert len(set(states)) == tout * (1 + tin)  # every V-step moved a code


@pytest.fixture(scope="module")
def small_clustered():
    features, labels = gen_synthetic_clusters(6, 40, 8, 0.1, seed=10)
    return features, labels


class TestTrain:
    def small_config(self, **overrides):
        base = dict(
            code_len=8,
            gamma=200.0,
            query_count=48,
            outer_iters=2,
            inner_iters=2,
            batch_size=16,
            learning_rate=1e-3,
            seed=3,
            optimizer="adam",
            hidden_dims=(16,),
        )
        base.update(overrides)
        return TrainConfig(**base)

    def test_degenerate_schedule_keeps_model_and_runs_one_sweep(
        self, small_clustered
    ):
        features, labels = small_clustered
        config = self.small_config(
            outer_iters=1, inner_iters=1, learning_rate=0.0, optimizer="sgd"
        )
        result = train(features, labels, config)

        # replay the rng stream train() consumes: model init, code init,
        # query sampling, then the (unused at lr 0) batch shuffle
        n = features.shape[0]
        rng = np.random.default_rng(config.seed)
        model = init_encoder((8, 16, 8), rng)
        db = (rng.integers(0, 2, (n, 8)) * 2 - 1).astype(np.float64)
        omega = sample_query_indices(n, config.query_count, rng)
        rng.permutation(config.query_count)
        for got, want in zip(result.model.params(), model.params()):
            assert np.array_equal(got, want)
        block = build_sampled_similarity(labels, omega)
        relaxed = forward(model, features[omega])
        v_step(db, relaxed, block, config.gamma)
        assert np.array_equal(result.codes.to_signs(), db.astype(np.int8))

    def test_same_seed_reproduces_codes_and_history(self, small_clustered):
        features, labels = small_clustered
        first = train(features, labels, self.small_config())
        second = train(features, labels, self.small_config())
        assert first.codes == second.codes
        for a, b in zip(first.history, second.history):
            assert (a.outer, a.inner, a.phase, a.objective) == (
                b.outer, b.inner, b.phase, b.objective,
            )

    def test_objective_drops_but_hits_dissimilarity_floor(self, small_clustered):
        # With more than two mutually dissimilar clusters the -code_len
        # inner-product targets cannot all be met (pairwise inner products
        # of K sign vectors are bounded below by -code_len/(K-1)), so the
        # objective converges to a structural floor well above zero rather
        # than vanishing. Training must still cut it roughly in half.
        features, labels = small_clustered
        config = self.small_config(outer_iters=6, inner_iters=3)
        result = train(features, labels, config)
        initial = result.history[0].objective
        final = result.history[-1].objective
        assert result.history[0].phase == "init"
        assert final < 0.5 * initial

    def test_history_phases_and_csv(self, small_clustered):
        features, labels = small_clustered
        result = train(features, labels, self.small_config())
        phases = [(r.outer, r.inner, r.phase) for r in result.history]
        assert phases[0] == (1, 0, "init")
        assert phases[1] == (1, 1, "theta")
        assert phases[2] == (1, 1, "v")
        assert len(phases) == 1 + 2 * 2 * 2
        text = history_to_csv(result.history)
        assert text.startswith("outer,inner,phase,objective,seconds\n")
        assert len(text.strip().splitlines()) == len(result.history) + 1

    def test_separate_query_mode_fixes_queries(self, small_clustered):
        features, labels = small_clustered
        parts = split(len(labels), 30, 0, seed=1)
        config = self.small_config(
            mode="asymmetric_separate_queries", query_count=30, batch_size=16
        )
        result = train(
            features[parts.db_indices],
            labels.subset(parts.db_indices),
            config,
            query_features=features[parts.query_indices],
            query_labels=labels.subset(parts.query_indices),
        )
        assert result.codes.rows == len(parts.db_indices)

    def test_separate_query_mode_requires_queries(self, small_clustered):
        features, labels = small_clustered
        config = self.small_config(mode="asymmetric_separate_queries")
        with pytest.raises(ValueError, match="query_features"):
            train(features, labels, config)

    def test_divergence_raises_with_partial_state(self, small_clustered):
        features, labels = small_clustered
        config = self.small_config(
            learning_rate=1e308, optimizer="sgd", outer_iters=1, inner_iters=1
        )
        with pytest.raises(TrainingDiverged) as info:
            train(features, labels, config)
        partial = info.value.partial
        assert partial.codes.rows == features.shape[0]

    def test_symmetric_mode_encodes_the_database(self, small_clustered):
        features, labels = small_clustered
        config = self.small_config(mode="symmetric_baseline")
        seen = []
        model, codes, history = train(
            features, labels, config,
            on_outer_end=lambda *args: seen.append(args),
        )
        assert codes == encode_queries(model, features)
        assert [(r.outer, r.inner, r.phase) for r in history] == [
            (epoch, 1, "epoch") for epoch in range(1, config.outer_iters + 1)
        ]
        assert [(o, m, v) for o, _s, m, v in seen] == [
            (epoch, model, None) for epoch in range(1, config.outer_iters + 1)
        ]


class TestSymmetricBaseline:
    def test_produces_valid_codes_for_all_points(self):
        features, labels = gen_synthetic_clusters(5, 40, 8, 0.1, seed=11)
        config = TrainConfig(
            code_len=8,
            query_count=200,
            outer_iters=2,
            inner_iters=1,
            batch_size=64,
            learning_rate=1e-3,
            seed=0,
            optimizer="adam",
            hidden_dims=(16,),
            mode="symmetric_baseline",
        )
        model, codes, history = train(features, labels, config)
        assert codes.rows == 200
        assert set(np.unique(codes.to_signs())) <= {-1, 1}
        assert len(history) == 2

    def test_same_seed_same_history(self):
        features, labels = gen_synthetic_clusters(4, 30, 6, 0.1, seed=12)
        config = TrainConfig(
            code_len=6,
            query_count=120,
            outer_iters=2,
            inner_iters=1,
            batch_size=32,
            learning_rate=1e-3,
            seed=5,
            optimizer="adam",
            hidden_dims=(8,),
            mode="symmetric_baseline",
        )
        first = train(features, labels, config).history
        second = train(features, labels, config).history
        assert [r.objective for r in first] == [r.objective for r in second]

    def test_divergence_raises(self):
        features, labels = gen_synthetic_clusters(3, 20, 4, 0.1, seed=13)
        config = TrainConfig(
            code_len=4,
            query_count=60,
            outer_iters=1,
            inner_iters=1,
            batch_size=30,
            learning_rate=1e308,
            seed=0,
            optimizer="sgd",
            hidden_dims=(4,),
            mode="symmetric_baseline",
        )
        with pytest.raises(TrainingDiverged):
            train(features, labels, config)

    @pytest.mark.parametrize("rows_per_chunk", [1, 3, 10])
    def test_pair_weight_counts_every_pair_once(self, monkeypatch, rows_per_chunk):
        # rho of all ordered database pairs, over chunks of the pair budget
        rng = np.random.default_rng(rows_per_chunk)
        sets = [set(rng.choice(6, int(rng.integers(1, 3)), replace=False).tolist())
                for _ in range(10)]
        pos = int(oracle.shares_label(sets, sets).sum())
        monkeypatch.setattr(hashcore, "CHUNK_PAIRS", rows_per_chunk * len(sets))
        labels = LabelMatrix(sets)
        assert solver._full_pair_weight(labels, True) == pos / (100 - pos)
        assert solver._full_pair_weight(labels, False) == 1.0


class TestTrainConfig:
    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(code_len=8, query_count=10, batch_size=20)

    @pytest.mark.parametrize(
        "mode", ["symmetric_baseline", "asymmetric_separate_queries"]
    )
    def test_batch_bounded_by_query_count_in_sampled_mode_only(self, mode):
        # only the sampled mode batches query_count rows
        config = TrainConfig(code_len=8, query_count=10, batch_size=20, mode=mode)
        assert config.batch_size == 20
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(code_len=8, batch_size=0, mode=mode)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(code_len=8, mode="bogus")

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            TrainConfig(code_len=8, gamma=-1.0)

    def test_rejects_negative_seed(self):
        # numpy's generators take no negative seed; say which field it is
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(code_len=8, seed=-1)

    @pytest.mark.parametrize("field", ["gamma", "learning_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rates(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(code_len=8, **{field: value})


class TestComplexityProbe:
    def test_probe_reports_positive_times_and_slope(self):
        result = complexity_probe([400, 800, 1600], query_count=50, code_len=8)
        assert result.sizes == [400, 800, 1600]
        assert all(s > 0 for s in result.seconds)
        assert np.isfinite(result.slope)

    def test_rejects_too_few_sizes(self, monkeypatch):
        # repeated sizes fit no slope: they are rejected before any training
        monkeypatch.setattr(solver, "train", None)
        for sizes in ([100, 200], [100, 100, 100], [100, 200, 100]):
            with pytest.raises(ValueError, match="3"):
                complexity_probe(sizes, query_count=10, code_len=4)

    def test_rejects_unknown_mode_before_training(self, monkeypatch):
        monkeypatch.setattr(solver, "train", None)
        with pytest.raises(ValueError, match="symetric_baseline"):
            complexity_probe(
                [100, 200, 400], query_count=10, code_len=4, mode="symetric_baseline"
            )

    def test_theta_epoch_cost_grows_with_query_count(self):
        # one outer iteration; theta phase seconds should grow roughly
        # linearly in the sampled query count (8x here, assert loosely)
        features, labels = gen_synthetic_clusters(10, 400, 16, 0.1, seed=13)
        times = {}
        for m in (64, 512):
            config = TrainConfig(
                code_len=16,
                query_count=m,
                outer_iters=2,
                inner_iters=2,
                batch_size=64,
                learning_rate=1e-3,
                seed=0,
                optimizer="adam",
                hidden_dims=(64,),
            )
            result = train(features, labels, config)
            theta = [r.seconds for r in result.history if r.phase == "theta"]
            times[m] = float(np.mean(theta))
        assert times[512] > 2.0 * times[64]

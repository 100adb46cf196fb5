import tracemalloc

import numpy as np
import pytest

from asymhash import evaluate
from asymhash.evaluate import (
    mean_average_precision,
    precision_recall_by_radius,
    rank_by_hamming,
    relevance_from_labels,
    retrieval_metrics,
    topk_precision_curve,
)
from asymhash.hashcore import CodeMatrix, pairwise_hamming
from asymhash.oracle import hamming_distance
from asymhash.simgraph import LabelMatrix


def random_codes(rng, rows, code_len):
    return CodeMatrix.from_signs(rng.integers(0, 2, (rows, code_len)) * 2 - 1)


def naive_ranking(queries, database):
    out = []
    for i in range(queries.rows):
        dist = [
            (hamming_distance(queries.words[i], database.words[j]), j)
            for j in range(database.rows)
        ]
        out.append([j for _, j in sorted(dist)])
    return np.array(out)


def naive_average_precision(ranked_rel, total_rel, cutoff):
    hits = 0
    precision_sum = 0.0
    for rank, rel in enumerate(ranked_rel[:cutoff], start=1):
        if rel:
            hits += 1
            precision_sum += hits / rank
    denom = min(total_rel, cutoff)
    return precision_sum / denom if denom else 0.0


class TestRanking:
    def test_exact_match_ranks_first(self):
        db = CodeMatrix.from_signs([[1, 1, 1], [1, -1, 1], [-1, -1, -1]])
        query = CodeMatrix.from_signs([[1, -1, 1]])
        assert rank_by_hamming(query, db)[0, 0] == 1

    def test_ties_break_by_database_index(self):
        db = CodeMatrix.from_signs([[1, -1], [-1, 1], [1, 1]])
        query = CodeMatrix.from_signs([[1, 1]])
        # rows 0 and 1 are both at distance 1; row 2 at distance 0
        assert rank_by_hamming(query, db)[0].tolist() == [2, 0, 1]

    def test_matches_naive_sort(self):
        rng = np.random.default_rng(0)
        queries = random_codes(rng, 6, 10)
        database = random_codes(rng, 25, 10)
        assert np.array_equal(
            rank_by_hamming(queries, database), naive_ranking(queries, database)
        )

    def test_rejects_code_len_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rank_by_hamming(
                CodeMatrix.from_signs([[1, 1]]), CodeMatrix.from_signs([[1]])
            )


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        ranking = np.array([[0, 1, 2, 3]])
        relevance = np.array([[True, True, False, False]])
        assert mean_average_precision(ranking, relevance) == pytest.approx(1.0)

    def test_alternating_relevance_case(self):
        ranking = np.array([[0, 1, 2]])
        relevance = np.array([[True, False, True]])
        assert mean_average_precision(ranking, relevance) == pytest.approx(5 / 6)

    def test_zero_relevant_counts_as_zero(self):
        ranking = np.array([[0, 1], [0, 1]])
        relevance = np.array([[False, False], [True, False]])
        assert mean_average_precision(ranking, relevance) == pytest.approx(0.5)

    def test_cutoff_normalizes_by_min(self):
        # 3 relevant, cutoff 2, both top slots relevant -> AP 1.0
        ranking = np.array([[0, 1, 2, 3]])
        relevance = np.array([[True, True, True, False]])
        assert mean_average_precision(
            ranking, relevance, cutoff=2
        ) == pytest.approx(1.0)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            mean_average_precision(
                np.array([[0]]), np.array([[True]]), cutoff=0
            )

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(1, 6))
            ranking = np.stack([rng.permutation(n) for _ in range(m)])
            relevance = rng.random((m, n)) < 0.3
            cutoff = int(rng.integers(1, n + 1))
            expected = float(
                np.mean(
                    [
                        naive_average_precision(
                            relevance[i, ranking[i]].tolist(),
                            int(relevance[i].sum()),
                            cutoff,
                        )
                        for i in range(m)
                    ]
                )
            )
            got = mean_average_precision(ranking, relevance, cutoff)
            assert got == pytest.approx(expected, abs=1e-12)


class TestTopKCurve:
    def test_all_relevant_prefix(self):
        ranking = np.array([[0, 1, 2]])
        relevance = np.array([[True, True, True]])
        assert topk_precision_curve(ranking, relevance, 3).tolist() == [
            1.0, 1.0, 1.0,
        ]

    def test_half_relevant(self):
        ranking = np.array([[0, 1]])
        relevance = np.array([[True, False]])
        assert topk_precision_curve(ranking, relevance, 2).tolist() == [1.0, 0.5]

    def test_rejects_k_beyond_database(self):
        with pytest.raises(ValueError, match="k_max"):
            topk_precision_curve(np.array([[0]]), np.array([[True]]), 2)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        ranking = np.stack([rng.permutation(12) for _ in range(4)])
        relevance = rng.random((4, 12)) < 0.4
        curve = topk_precision_curve(ranking, relevance, 12)
        for k in range(1, 13):
            expected = np.mean(
                [
                    relevance[i, ranking[i, :k]].sum() / k
                    for i in range(4)
                ]
            )
            assert curve[k - 1] == pytest.approx(expected, abs=1e-12)


class TestPrecisionRecallByRadius:
    def test_full_radius_has_total_recall(self):
        rng = np.random.default_rng(3)
        queries = random_codes(rng, 4, 6)
        database = random_codes(rng, 15, 6)
        relevance = rng.random((4, 15)) < 0.5
        _, recall = precision_recall_by_radius(queries, database, relevance)
        assert recall[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(4, 14), (15, 4), (4, 15, 1)])
    def test_rejects_mis_shaped_relevance(self, shape):
        rng = np.random.default_rng(3)
        queries = random_codes(rng, 4, 6)
        database = random_codes(rng, 15, 6)
        with pytest.raises(ValueError, match=r"\(4, 15\) query/database pair grid"):
            precision_recall_by_radius(queries, database, np.ones(shape, dtype=bool))

    def test_zero_radius_exact_neighbor(self):
        database = CodeMatrix.from_signs([[1, 1], [1, -1]])
        queries = CodeMatrix.from_signs([[1, 1]])
        relevance = np.array([[True, False]])
        precision, recall = precision_recall_by_radius(queries, database, relevance)
        assert precision[0] == pytest.approx(1.0)
        assert recall[0] == pytest.approx(1.0)

    def test_recall_is_monotone(self):
        rng = np.random.default_rng(4)
        queries = random_codes(rng, 5, 8)
        database = random_codes(rng, 20, 8)
        relevance = rng.random((5, 20)) < 0.3
        precision, recall = precision_recall_by_radius(queries, database, relevance)
        assert np.all(np.diff(recall) >= -1e-12)
        assert np.all((0.0 <= precision) & (precision <= 1.0))
        assert np.all((0.0 <= recall) & (recall <= 1.0))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(5)
        queries = random_codes(rng, 3, 5)
        database = random_codes(rng, 12, 5)
        relevance = rng.random((3, 12)) < 0.4
        precision, recall = precision_recall_by_radius(queries, database, relevance)
        for radius in range(6):
            precisions, recalls = [], []
            for i in range(3):
                retrieved = [
                    j
                    for j in range(12)
                    if hamming_distance(queries.words[i], database.words[j]) <= radius
                ]
                hit = sum(1 for j in retrieved if relevance[i, j])
                n_rel = int(relevance[i].sum())
                precisions.append(hit / len(retrieved) if retrieved else 1.0)
                recalls.append(hit / n_rel if n_rel else 1.0)
            assert precision[radius] == pytest.approx(np.mean(precisions), abs=1e-12)
            assert recall[radius] == pytest.approx(np.mean(recalls), abs=1e-12)


def test_metrics_ignore_order_within_equal_relevance_tie_groups():
    # swapping two database rows that are equidistant and equally relevant
    # must not change MAP or precision@k
    rng = np.random.default_rng(6)
    signs = rng.integers(0, 2, (10, 8)) * 2 - 1
    signs[4] = signs[7]  # rows 4 and 7 tie at every distance
    query = CodeMatrix.from_signs((rng.integers(0, 2, (3, 8)) * 2 - 1))
    relevance = rng.random((3, 10)) < 0.4
    relevance[:, 7] = relevance[:, 4]

    swapped = signs.copy()
    swapped[[4, 7]] = swapped[[7, 4]]
    swapped_rel = relevance.copy()
    swapped_rel[:, [4, 7]] = swapped_rel[:, [7, 4]]

    base_rank = rank_by_hamming(query, CodeMatrix.from_signs(signs))
    swap_rank = rank_by_hamming(query, CodeMatrix.from_signs(swapped))
    assert mean_average_precision(base_rank, relevance) == pytest.approx(
        mean_average_precision(swap_rank, swapped_rel), abs=1e-15
    )
    assert topk_precision_curve(base_rank, relevance, 10) == pytest.approx(
        topk_precision_curve(swap_rank, swapped_rel, 10), abs=1e-15
    )


def test_relevance_from_labels_matches_similarity_rule():
    q = LabelMatrix([{0, 2}, {5}])
    d = LabelMatrix([{2}, {1}, {5, 0}])
    assert relevance_from_labels(q, d).tolist() == [
        [True, False, True],
        [False, False, True],
    ]


def random_labels(rng, rows, ids):
    return LabelMatrix.from_ids(rng.integers(0, ids, rows))


class TestRetrievalMetrics:
    DB_ROWS = 40
    STEP = 3  # queries per chunk under the patched pair budget

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(evaluate, "CHUNK_PAIRS", self.STEP * self.DB_ROWS)

    @pytest.mark.parametrize("q", [1, STEP, STEP + 1, 3 * STEP + 2])
    @pytest.mark.parametrize("code_len", [1, 64, 65])
    @pytest.mark.parametrize("cutoff", [None, 7, 1000])
    def test_equals_per_metric_functions(self, q, code_len, cutoff):
        rng = np.random.default_rng([q, code_len, cutoff or 0])
        n = self.DB_ROWS
        queries = random_codes(rng, q, code_len)
        database = random_codes(rng, n, code_len)
        # database ids 0..3, query ids 0..5: ids 4 and 5 have no relevant rows
        query_labels = random_labels(rng, q, 6)
        db_labels = random_labels(rng, n, 4)
        got = retrieval_metrics(queries, database, query_labels, db_labels, cutoff, n)

        ranking = rank_by_hamming(queries, database)
        relevance = relevance_from_labels(query_labels, db_labels)
        assert got.map == mean_average_precision(ranking, relevance)
        assert got.cutoff_map == mean_average_precision(ranking, relevance, cutoff)
        assert np.array_equal(
            got.topk_precision, topk_precision_curve(ranking, relevance, n)
        )
        precision, recall = precision_recall_by_radius(queries, database, relevance)
        assert np.array_equal(got.precision, precision)
        assert np.array_equal(got.recall, recall)

    @pytest.mark.parametrize(
        "cutoff, k_max, match",
        [
            (0, 5, "cutoff"),
            (-3, 5, "cutoff"),
            (None, 0, "k_max"),
            (None, 41, "k_max"),
            (None, 5, "one query"),  # no query rows: a mean over nothing
        ],
    )
    def test_bad_arguments_fail_before_any_chunk(
        self, monkeypatch, cutoff, k_max, match
    ):
        def must_not_run(*_args, **_kwargs):
            raise AssertionError("a chunk ran before the arguments were checked")

        monkeypatch.setattr(evaluate, "pairwise_hamming", must_not_run)
        monkeypatch.setattr(evaluate, "relevance_from_labels", must_not_run)
        rng = np.random.default_rng(7)
        q = 0 if match == "one query" else 5
        with pytest.raises(ValueError, match=match):
            retrieval_metrics(
                random_codes(rng, q, 8),
                random_codes(rng, self.DB_ROWS, 8),
                random_labels(rng, q, 3),
                random_labels(rng, self.DB_ROWS, 3),
                cutoff,
                k_max,
            )


def test_radius_histograms_match_threshold_passes():
    # the lookup curve once took one pass over the distances per radius;
    # the histogram form must reproduce those floats exactly
    rng = np.random.default_rng(9)
    queries = random_codes(rng, 30, 12)
    database = random_codes(rng, 200, 12)
    relevance = rng.random((30, 200)) < 0.2
    relevance[3] = False
    dist = np.array(
        [[hamming_distance(queries.words[i], database.words[j]) for j in range(200)]
         for i in range(30)]
    )
    n_rel = relevance.sum(axis=1)
    expected_p, expected_r = [], []
    for radius in range(13):
        retrieved = dist <= radius
        n_ret = retrieved.sum(axis=1)
        n_hit = (retrieved & relevance).sum(axis=1)
        expected_p.append(np.where(n_ret > 0, n_hit / np.maximum(n_ret, 1), 1.0).mean())
        expected_r.append(np.where(n_rel > 0, n_hit / np.maximum(n_rel, 1), 1.0).mean())
    precision, recall = precision_recall_by_radius(queries, database, relevance)
    assert precision.tolist() == expected_p
    assert recall.tolist() == expected_r


def test_streamed_memory_does_not_grow_with_query_count():
    rng = np.random.default_rng(10)
    n, code_len, k_max = 20_000, 16, 100
    database = random_codes(rng, n, code_len)
    db_labels = random_labels(rng, n, 10)

    def peak_bytes(q):
        queries = random_codes(rng, q, code_len)
        query_labels = random_labels(rng, q, 10)
        tracemalloc.start()
        try:
            retrieval_metrics(queries, database, query_labels, db_labels, 5000, k_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # two per-query AP arrays and two per-query radius count rows
    def results_bytes(q):
        return q * 8 * (2 + 2 * (code_len + 1))

    small, large = peak_bytes(64), peak_bytes(1024)
    assert large <= 1.1 * small + results_bytes(1024)


def dense_reference(query_codes, db_codes, relevance, cutoff, k_max):
    """The dense formulas evaluation used before it worked on narrow
    distances and relevant ranks, kept literally: int64 distances, a float64
    cumsum/divide precision at every rank, where/sum AP, and int64-key
    radius histograms. The fast path must match them to the last bit."""
    xored = query_codes.words[:, None, :] ^ db_codes.words[None, :, :]
    dist = np.bitwise_count(xored).sum(axis=2, dtype=np.int64)
    q, n = dist.shape
    ranked_rel = np.take_along_axis(
        relevance, np.argsort(dist, axis=1, kind="stable"), axis=1
    )
    hits = np.cumsum(ranked_rel, axis=1, dtype=np.float64)
    precision = hits / np.arange(1, n + 1, dtype=np.float64)

    def mean_ap(limit):
        gained = np.where(ranked_rel[:, :limit], precision[:, :limit], 0.0)
        denom = np.minimum(ranked_rel.sum(axis=1), limit)
        ap = np.where(denom > 0, gained.sum(axis=1) / np.maximum(denom, 1), 0.0)
        return float(ap.mean())

    topk = np.zeros(k_max)
    for row in precision[:, :k_max]:
        topk += row

    bins = query_codes.code_len + 1
    keys = dist + np.arange(q)[:, None] * bins
    retrieved = np.bincount(keys.ravel(), minlength=q * bins)
    retrieved = retrieved.reshape(q, bins).cumsum(axis=1)
    within = np.bincount(keys[relevance], minlength=q * bins)
    within = within.reshape(q, bins).cumsum(axis=1)
    n_rel = within[:, -1]
    precisions, recalls = [], []
    for n_ret, n_hit in zip(retrieved.T, within.T):
        precisions.append(np.where(n_ret > 0, n_hit / np.maximum(n_ret, 1), 1.0).mean())
        recalls.append(np.where(n_rel > 0, n_hit / np.maximum(n_rel, 1), 1.0).mean())
    return (
        mean_ap(n),
        mean_ap(n if cutoff is None else min(cutoff, n)),
        topk / q,
        np.array(precisions),
        np.array(recalls),
    )


class TestDenseReference:
    DB_ROWS = 300  # past numpy's 128-wide pairwise-summation blocks
    QUERIES = 8

    @pytest.mark.parametrize("code_len", [1, 16, 64, 65, 255, 256, 300])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("cutoff", [None, 7, 1000])
    def test_bit_identical(self, monkeypatch, code_len, ties, cutoff):
        rng = np.random.default_rng([code_len, ties, cutoff or 0])
        n, q = self.DB_ROWS, self.QUERIES
        queries = random_codes(rng, q, code_len)
        database = random_codes(rng, n, code_len)
        if ties:  # every database row takes one of 3 codes
            signs = random_codes(rng, 3, code_len).to_signs()
            database = CodeMatrix.from_signs(signs[rng.integers(0, 3, n)])
        self.check(monkeypatch, rng, queries, database, cutoff)

    @pytest.mark.parametrize("case", ["one-code", "last-word", "all-distinct"])
    @pytest.mark.parametrize("cutoff", [None, 7])
    def test_code_multiplicity(self, monkeypatch, case, cutoff):
        # the radius histograms run over the distinct database codes, each
        # weighted by the rows holding it
        rng = np.random.default_rng([len(case), cutoff or 0])
        n = self.DB_ROWS
        code_len = 300 if case == "last-word" else 64
        if case == "one-code":
            codes, rows = random_codes(rng, 1, 64).to_signs(), np.zeros(n, int)
        elif case == "last-word":
            # 3 codes that agree on words 0..3 and differ in word 4 alone
            codes = np.repeat(random_codes(rng, 1, 300).to_signs(), 3, axis=0)
            codes[:, 256:] = random_codes(rng, 3, 44).to_signs()
            rows = rng.integers(0, 3, n)
        else:
            codes, rows = random_codes(rng, n, 64).to_signs(), np.arange(n)
        database = CodeMatrix.from_signs(codes[rows])
        held = {tuple(row) for row in database.words.tolist()}
        assert len(held) == len(codes)
        assert len({words[0] for words in held}) == (n if case == "all-distinct" else 1)
        queries = random_codes(rng, self.QUERIES, code_len)
        self.check(monkeypatch, rng, queries, database, cutoff)

    def check(self, monkeypatch, rng, queries, database, cutoff):
        """retrieval_metrics over chunks of 3 queries and the per-metric
        functions both equal dense_reference, bit for bit."""
        monkeypatch.setattr(evaluate, "CHUNK_PAIRS", 3 * self.DB_ROWS)
        n, q = self.DB_ROWS, self.QUERIES
        # database rows: one id of 0..3 and the shared id 9; query 0 has
        # the shared id (all relevant), query 1 an unused id (none relevant)
        db_labels = LabelMatrix([{int(i), 9} for i in rng.integers(0, 4, n)])
        query_ids = [{9}, {7}] + [{int(i)} for i in rng.integers(0, 4, q - 2)]
        query_labels = LabelMatrix(query_ids)
        relevance = relevance_from_labels(query_labels, db_labels)
        assert relevance[0].all() and not relevance[1].any()

        expected = dense_reference(queries, database, relevance, cutoff, n)
        got = retrieval_metrics(queries, database, query_labels, db_labels, cutoff, n)
        assert got.map == expected[0]
        assert got.cutoff_map == expected[1]
        assert np.array_equal(got.topk_precision, expected[2])
        assert np.array_equal(got.precision, expected[3])
        assert np.array_equal(got.recall, expected[4])

        ranking = rank_by_hamming(queries, database)
        assert mean_average_precision(ranking, relevance) == expected[0]
        assert mean_average_precision(ranking, relevance, cutoff) == expected[1]
        assert np.array_equal(
            topk_precision_curve(ranking, relevance, n), expected[2]
        )
        precision, recall = precision_recall_by_radius(queries, database, relevance)
        assert np.array_equal(precision, expected[3])
        assert np.array_equal(recall, expected[4])


def prefix_share(dist_row, relevant_row, k_max):
    """The share of the row at distance <= max(farthest relevant row, the
    k_max-th nearest row): the ranking prefix retrieval_metrics needs."""
    far = max(dist_row[relevant_row].max(initial=0), np.sort(dist_row)[k_max - 1])
    return (dist_row <= far).mean()


class TestPrefixRanking:
    """retrieval_metrics ranks each query only up to the prefix that holds
    its relevant rows and its first k_max rows. TestDenseReference uses
    k_max = n, where every prefix is the whole row; these clustered cases
    take short prefixes and must still match dense_reference and the
    per-metric functions bit for bit."""

    CODE_LEN = 16
    SIZES = (50, 50, 50, 50, 50, 5)  # database rows per class
    K_MAX = 20

    def instance(self):
        rng = np.random.default_rng(16)
        centres = random_codes(rng, len(self.SIZES), self.CODE_LEN).to_signs()
        classes = np.repeat(np.arange(len(self.SIZES)), self.SIZES)
        signs = centres[classes].copy()
        # about half the rows have one bit flipped: distances 0 and 1 from
        # their centre, so ranks tie within each distance
        flipped = np.flatnonzero(rng.random(len(classes)) < 0.5)
        signs[flipped, rng.integers(0, self.CODE_LEN, len(flipped))] *= -1
        # ten class-1 rows sit at distance 1 from centre 0, tying with class
        # 0's farthest relevant rows
        moved = np.flatnonzero(classes == 1)[:10]
        signs[moved] = centres[0]
        signs[moved, rng.integers(0, self.CODE_LEN, len(moved))] *= -1
        database = CodeMatrix.from_signs(signs)
        # every database row also has id 9, which only query 3 holds
        db_labels = LabelMatrix([{int(c), 9} for c in classes])
        queries = CodeMatrix.from_signs(centres[[0, 5, 2, 1, 4]])
        query_labels = LabelMatrix([{0}, {5}, {7}, {9}, {4}])
        return queries, database, query_labels, db_labels

    def test_cases_take_the_prefix_they_name(self):
        queries, database, query_labels, db_labels = self.instance()
        dist = pairwise_hamming(queries, database).astype(np.int64)
        relevance = relevance_from_labels(query_labels, db_labels)
        share = [
            prefix_share(row, rel, self.K_MAX) for row, rel in zip(dist, relevance)
        ]
        # query 0: relevant and irrelevant rows tie at the prefix's end
        far = dist[0][relevance[0]].max()
        assert (~relevance[0] & (dist[0] == far)).any() and share[0] < 0.5
        # query 1: k_max reaches past its 5 relevant rows
        assert relevance[1].sum() < self.K_MAX and share[1] < 0.5
        # query 2: no relevant rows, so the prefix is the top k (and ties)
        assert not relevance[2].any() and share[2] < 0.5
        # query 3: every row is relevant, so it ranks the whole row
        assert relevance[3].all() and share[3] == 1.0
        assert share[4] < 0.5

    @pytest.mark.parametrize("queries_per_chunk", [1, 2, 5])
    @pytest.mark.parametrize("k_max", [1, K_MAX])
    @pytest.mark.parametrize("cutoff", [None, 7, 1000])
    def test_bit_identical(self, monkeypatch, queries_per_chunk, k_max, cutoff):
        # at 5 queries per chunk one chunk holds short prefixes and the
        # whole-row query 3
        queries, database, query_labels, db_labels = self.instance()
        n = database.rows
        monkeypatch.setattr(evaluate, "CHUNK_PAIRS", queries_per_chunk * n)
        relevance = relevance_from_labels(query_labels, db_labels)
        expected = dense_reference(queries, database, relevance, cutoff, k_max)
        got = retrieval_metrics(
            queries, database, query_labels, db_labels, cutoff, k_max
        )
        assert got.map == expected[0]
        assert got.cutoff_map == expected[1]
        assert np.array_equal(got.topk_precision, expected[2])
        assert np.array_equal(got.precision, expected[3])
        assert np.array_equal(got.recall, expected[4])

        ranking = rank_by_hamming(queries, database)
        assert mean_average_precision(ranking, relevance) == expected[0]
        assert mean_average_precision(ranking, relevance, cutoff) == expected[1]
        assert np.array_equal(
            topk_precision_curve(ranking, relevance, k_max), expected[2]
        )


@pytest.mark.parametrize(
    "code_len, classes, codes",
    [
        (64, 10, None),
        (300, 10, None),
        (64, 1, None),
        (300, 1, None),
        (64, 10, 50),
        (300, 1, 50),
    ],
    ids=[
        "64",
        "300",
        "64-one-class",
        "300-one-class",
        "64-50-codes",
        "300-one-class-50-codes",
    ],
)
def test_chunk_working_set_is_bounded_per_pair(code_len, classes, codes):
    # the peak sits in pairwise_hamming's xor temporaries while the reused
    # ranked-relevance and precision buffers are held: ~20-22 bytes per
    # pair of a chunk for any word count (the dense passes took ~35, and 71
    # at 300 bits). With one label class every pair is relevant, which the
    # relevance and the relevant ranks must not add to (they once took ~44).
    # Random rows are all distinct codes, the most the radius histograms'
    # per-code rows and weights can hold; trained databases hold few codes
    rng = np.random.default_rng(12)
    n = 20_000
    step = evaluate.CHUNK_PAIRS // n
    q = 2 * step + 3  # two full chunks and a short one
    if codes is None:
        database = random_codes(rng, n, code_len)
    else:
        signs = random_codes(rng, codes, code_len).to_signs()
        database = CodeMatrix.from_signs(signs[rng.integers(0, codes, n)])
    queries = random_codes(rng, q, code_len)
    db_labels = random_labels(rng, n, classes)
    query_labels = random_labels(rng, q, classes)
    tracemalloc.start()
    try:
        retrieval_metrics(queries, database, query_labels, db_labels, 5000, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23 * step * n

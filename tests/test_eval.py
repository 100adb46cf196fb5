import tracemalloc

import numpy as np
import pytest

from asymhash import evaluate, hashcore
from asymhash.evaluate import relevance_from_labels, retrieval_metrics
from asymhash.hashcore import CodeMatrix, pairwise_hamming
from asymhash.oracle import hamming_distance
from asymhash.simgraph import LabelMatrix


def random_codes(rng, rows, code_len):
    return CodeMatrix.from_signs(rng.integers(0, 2, (rows, code_len)) * 2 - 1)


def labels_for(relevance):
    """Query and database labels whose "shares a label" relation is
    ``relevance``: each relevant (query, row) pair has one private id, and
    each row of either side one more, so that no label row is empty."""
    q, n = relevance.shape
    pair_ids = np.arange(q * n).reshape(q, n)
    own_id = q * n  # the first private row id
    query_rows = [[*pair_ids[i][relevance[i]], own_id + i] for i in range(q)]
    db_rows = [[*pair_ids[:, j][relevance[:, j]], own_id + q + j] for j in range(n)]
    return LabelMatrix(query_rows), LabelMatrix(db_rows)


def metrics(queries, database, relevance, cutoff=None, k_max=None):
    """retrieval_metrics over a relevance matrix; k_max defaults to n."""
    relevance = np.array(relevance, dtype=bool)
    return retrieval_metrics(
        queries, database, *labels_for(relevance), cutoff, k_max or database.rows
    )


def ranked(relevance, cutoff=None, k_max=None):
    """metrics for queries whose stable ranking is the database order:
    database row j sits at Hamming distance j from every query."""
    q, n = np.shape(relevance)
    code_len = max(n - 1, 1)
    database = CodeMatrix.from_signs(
        np.where(np.arange(code_len) < np.arange(n)[:, None], -1, 1)
    )
    queries = CodeMatrix.from_signs(np.ones((q, code_len)))
    return metrics(queries, database, relevance, cutoff, k_max)


def rank_of(query, database, row):
    """The 0-based rank of database ``row`` in the stable ranking of the one
    query: with ``row`` its only relevant row, AP is 1 / (rank + 1)."""
    relevance = np.arange(database.rows) == row
    return round(1 / metrics(query, database, relevance[None]).map) - 1


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
        assert rank_of(query, db, 1) == 0

    def test_ties_break_by_database_index(self):
        db = CodeMatrix.from_signs([[1, -1], [-1, 1], [1, 1]])
        query = CodeMatrix.from_signs([[1, 1]])
        # rows 0 and 1 are both at distance 1; row 2 at distance 0
        assert [rank_of(query, db, j) for j in range(3)] == [1, 2, 0]

    def test_matches_naive_sort(self):
        rng = np.random.default_rng(0)
        queries = random_codes(rng, 6, 10)
        database = random_codes(rng, 25, 10)
        for i, order in enumerate(naive_ranking(queries, database)):
            query = CodeMatrix(queries.words[i : i + 1], 1, queries.code_len)
            ranks = [rank_of(query, database, j) for j in range(database.rows)]
            assert np.array_equal(np.argsort(ranks), order)

    def test_rejects_code_len_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics(
                CodeMatrix.from_signs([[1, 1]]), CodeMatrix.from_signs([[1]]), [[True]]
            )


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        relevance = [[True, True, False, False]]
        assert ranked(relevance).map == pytest.approx(1.0)

    def test_alternating_relevance_case(self):
        assert ranked([[True, False, True]]).map == pytest.approx(5 / 6)

    def test_zero_relevant_counts_as_zero(self):
        relevance = [[False, False], [True, False]]
        assert ranked(relevance).map == pytest.approx(0.5)

    def test_cutoff_normalizes_by_min(self):
        # 3 relevant, cutoff 2, both top slots relevant -> AP 1.0
        relevance = [[True, True, True, False]]
        assert ranked(relevance, cutoff=2).cutoff_map == pytest.approx(1.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(1, 6))
            queries = random_codes(rng, m, 6)
            database = random_codes(rng, n, 6)
            ranking = naive_ranking(queries, database)
            relevance = rng.random((m, n)) < 0.3
            cutoff = int(rng.integers(1, n + 1))
            got = metrics(queries, database, relevance, cutoff)
            for limit, value in ((n, got.map), (cutoff, got.cutoff_map)):
                expected = np.mean(
                    [
                        naive_average_precision(
                            relevance[i, ranking[i]].tolist(),
                            int(relevance[i].sum()),
                            limit,
                        )
                        for i in range(m)
                    ]
                )
                assert value == pytest.approx(expected, abs=1e-12)


class TestTopKCurve:
    def test_all_relevant_prefix(self):
        assert ranked([[True, True, True]]).topk_precision.tolist() == [
            1.0, 1.0, 1.0,
        ]

    def test_half_relevant(self):
        assert ranked([[True, False]]).topk_precision.tolist() == [1.0, 0.5]

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        queries = random_codes(rng, 4, 5)
        database = random_codes(rng, 12, 5)
        ranking = naive_ranking(queries, database)
        relevance = rng.random((4, 12)) < 0.4
        curve = metrics(queries, database, relevance).topk_precision
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
        assert metrics(queries, database, relevance).recall[-1] == pytest.approx(1.0)

    def test_zero_radius_exact_neighbor(self):
        database = CodeMatrix.from_signs([[1, 1], [1, -1]])
        queries = CodeMatrix.from_signs([[1, 1]])
        got = metrics(queries, database, [[True, False]])
        assert got.precision[0] == pytest.approx(1.0)
        assert got.recall[0] == pytest.approx(1.0)

    def test_recall_is_monotone(self):
        rng = np.random.default_rng(4)
        queries = random_codes(rng, 5, 8)
        database = random_codes(rng, 20, 8)
        relevance = rng.random((5, 20)) < 0.3
        got = metrics(queries, database, relevance)
        precision, recall = got.precision, got.recall
        assert np.all(np.diff(recall) >= -1e-12)
        assert np.all((0.0 <= precision) & (precision <= 1.0))
        assert np.all((0.0 <= recall) & (recall <= 1.0))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(5)
        queries = random_codes(rng, 3, 5)
        database = random_codes(rng, 12, 5)
        relevance = rng.random((3, 12)) < 0.4
        got = metrics(queries, database, relevance)
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
            assert got.precision[radius] == pytest.approx(np.mean(precisions), abs=1e-12)
            assert got.recall[radius] == pytest.approx(np.mean(recalls), abs=1e-12)


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

    base = metrics(query, CodeMatrix.from_signs(signs), relevance)
    swap = metrics(query, CodeMatrix.from_signs(swapped), swapped_rel)
    assert base.map == pytest.approx(swap.map, abs=1e-15)
    assert base.topk_precision == pytest.approx(swap.topk_precision, abs=1e-15)


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
        monkeypatch.setattr(hashcore, "CHUNK_PAIRS", self.STEP * self.DB_ROWS)

    @pytest.mark.parametrize("q", [1, STEP, STEP + 1, 3 * STEP + 2])
    @pytest.mark.parametrize("code_len", [1, 64, 65])
    @pytest.mark.parametrize("cutoff", [None, 7, 1000])
    def test_equals_per_metric_functions(self, q, code_len, cutoff):
        # at every chunk boundary, each metric equals its dense formula in
        # dense_reference, bit for bit
        rng = np.random.default_rng([q, code_len, cutoff or 0])
        n = self.DB_ROWS
        queries = random_codes(rng, q, code_len)
        database = random_codes(rng, n, code_len)
        # database ids 0..3, query ids 0..5: ids 4 and 5 have no relevant rows
        query_labels = random_labels(rng, q, 6)
        db_labels = random_labels(rng, n, 4)
        got = retrieval_metrics(queries, database, query_labels, db_labels, cutoff, n)

        relevance = relevance_from_labels(query_labels, db_labels)
        expected = dense_reference(queries, database, relevance, cutoff, n)
        assert got.map == expected[0]
        assert got.cutoff_map == expected[1]
        assert np.array_equal(got.topk_precision, expected[2])
        assert np.array_equal(got.precision, expected[3])
        assert np.array_equal(got.recall, expected[4])

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
    got = metrics(queries, database, relevance)
    assert got.precision.tolist() == expected_p
    assert got.recall.tolist() == expected_r


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
        """retrieval_metrics over chunks of 3 queries equals
        dense_reference, bit for bit."""
        monkeypatch.setattr(hashcore, "CHUNK_PAIRS", 3 * self.DB_ROWS)
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


def prefix_share(dist_row, relevant_row, k_max):
    """The share of the row at distance <= max(farthest relevant row, the
    k_max-th nearest row): the ranking prefix retrieval_metrics needs."""
    far = max(dist_row[relevant_row].max(initial=0), np.sort(dist_row)[k_max - 1])
    return (dist_row <= far).mean()


class TestPrefixRanking:
    """retrieval_metrics ranks each query only up to the prefix that holds
    its relevant rows and its first k_max rows. TestDenseReference uses
    k_max = n, where every prefix is the whole row; these clustered cases
    take short prefixes and must still match dense_reference bit for
    bit."""

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
        monkeypatch.setattr(hashcore, "CHUNK_PAIRS", queries_per_chunk * n)
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
    # the peak sits in pairwise_hamming's xor temporaries: ~11-13 bytes per
    # pair of a chunk for any word count (chunk-wide ranked-relevance and
    # precision buffers took ~20-22, the dense passes ~35, and 71 at 300
    # bits). With one label class every pair is relevant, which the
    # relevance and the relevant ranks must not add to (they once took ~44).
    # Random rows are all distinct codes, the most the radius histograms'
    # per-code rows and weights can hold; trained databases hold few codes
    rng = np.random.default_rng(12)
    n = 20_000
    step = hashcore.CHUNK_PAIRS // n
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
    assert peak <= 14 * step * n

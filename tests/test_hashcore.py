import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymhash import hashcore
from asymhash.hashcore import (
    CodeMatrix,
    binarize,
    pairwise_hamming,
    words_per_row,
)
from asymhash.oracle import hamming_distance


def random_signs(rng, length):
    return (rng.integers(0, 2, size=length) * 2 - 1).astype(np.int8)


def naive_hamming(a, b):
    return int(sum(1 for x, y in zip(a, b) if x != y))


def words(signs):
    """The packed words of one code row."""
    return CodeMatrix.from_signs([signs]).words[0]


class TestPacking:
    def test_all_ones_packs_to_low_bits(self):
        matrix = CodeMatrix.from_signs([[1, 1, 1, 1]])
        assert matrix.words.tolist() == [[0b1111]]
        assert matrix.code_len == 4

    def test_all_minus_packs_to_zero(self):
        matrix = CodeMatrix.from_signs([[-1, -1, -1, -1]])
        assert matrix.words.tolist() == [[0]]

    def test_length_64_round_trips(self):
        rng = np.random.default_rng(0)
        signs = random_signs(rng, 64)
        matrix = CodeMatrix.from_signs(signs[None, :])
        # oracle: set bit b exactly when sign b is +1
        expected = 0
        for b, s in enumerate(signs):
            if s == 1:
                expected |= 1 << b
        assert int(matrix.words[0, 0]) == expected
        assert np.array_equal(matrix.to_signs()[0], signs)

    @pytest.mark.parametrize("code_len", [16, 64, 130])
    def test_packs_in_row_blocks_without_a_whole_mask(self, code_len):
        # the words are those of one packbits over the whole +1 mask, but no
        # n x code_len mask is made beside the codes: one block's masks at
        # most, about CHUNK_PAIRS entries each
        rng = np.random.default_rng(code_len)
        signs = random_signs(rng, (240_000, code_len))
        signs[-1, -1] = 1  # the last block's last bit
        whole = np.zeros((len(signs), words_per_row(code_len)), dtype="<u8")
        whole.view(np.uint8)[:, : (code_len + 7) // 8] = np.packbits(
            signs == 1, axis=1, bitorder="little"
        )
        for pack in (CodeMatrix.from_signs, hashcore._pack_bits):
            tracemalloc.start()
            try:
                got = pack(signs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            got = getattr(got, "words", got)
            assert np.array_equal(got, whole)
            assert peak <= got.nbytes + 3 * hashcore.CHUNK_PAIRS
            assert 3 * hashcore.CHUNK_PAIRS < signs.size / 2

    def test_zero_rows_round_trip(self):
        # read_codes returns such a matrix for a code file with no rows
        matrix = CodeMatrix.from_signs(np.ones((0, 70), dtype=np.int8))
        assert matrix.words.shape == (0, 2)
        signs = matrix.to_signs()
        assert signs.shape == (0, 70) and signs.dtype == np.int8

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            CodeMatrix.from_signs([[1, 0, -1]])

    @pytest.mark.parametrize("row", [0, 4, 5, 9])
    def test_reports_the_first_bad_entry_in_row_order(self, monkeypatch, row):
        # rows checked 5 at a time: a bad entry in the second block is
        # found there, and the first in row-major order is the one named
        monkeypatch.setattr(hashcore, "CHUNK_PAIRS", 5 * 4)
        signs = np.ones((12, 4), dtype=np.int8)
        signs[row, 2] = 3
        signs[row + 1, 0] = 7
        signs[11, 1] = 9
        with pytest.raises(ValueError, match=r"-1 or \+1, found np.int8\(3\)$"):
            CodeMatrix.from_signs(signs)

    def test_holds_no_whole_mask_beside_the_plus_mask(self):
        # training's 20k x 64 int8 codes: the one n x c bool mask it packs
        # and, beside it, one mask of CHUNK_PAIRS entries for the check and
        # then the packed words
        signs = random_signs(np.random.default_rng(8), 20000 * 64).reshape(20000, 64)
        tracemalloc.start()
        try:
            matrix = CodeMatrix.from_signs(signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(matrix.to_signs(), signs)
        assert peak <= signs.size + hashcore.CHUNK_PAIRS + 2 * matrix.words.nbytes

    def test_rejects_a_single_row_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            CodeMatrix.from_signs([1, -1, 1])

    @given(st.integers(min_value=1, max_value=512), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_length(self, code_len, seed):
        rng = np.random.default_rng(seed)
        signs = random_signs(rng, code_len)
        matrix = CodeMatrix.from_signs(signs[None, :])
        assert np.array_equal(matrix.to_signs()[0], signs)
        again = CodeMatrix.from_signs(matrix.to_signs())
        assert np.array_equal(again.words, matrix.words)

    def test_pad_bits_are_zero(self):
        matrix = CodeMatrix.from_signs(np.ones((3, 12), dtype=np.int8))
        assert matrix.words.shape == (3, 1)
        assert (matrix.words >> np.uint64(12)).max() == 0

    def test_every_length_up_to_512_round_trips(self):
        rng = np.random.default_rng(8)
        for code_len in range(1, 513):
            signs = random_signs(rng, code_len)
            matrix = CodeMatrix.from_signs(signs[None, :])
            assert np.array_equal(matrix.to_signs()[0], signs)

    def test_rejects_dirty_pad_bits(self):
        words = np.array([[1 << 13]], dtype=np.uint64)
        with pytest.raises(ValueError, match="pad bits"):
            CodeMatrix(words, rows=1, code_len=12)

    def test_storage_is_immutable(self):
        matrix = CodeMatrix.from_signs([[1, -1]])
        with pytest.raises(ValueError):
            matrix.words[0, 0] = 5


class TestHamming:
    """The per-pair reference in oracle.py that pairwise_hamming and the
    ranking tests are checked against."""

    def test_identical_codes(self):
        u = words([1, 1, 1, 1])
        assert hamming_distance(u, u) == 0

    def test_full_flip(self):
        assert hamming_distance(words([1, -1]), words([-1, 1])) == 2

    def test_matches_bit_loop_at_128(self):
        rng = np.random.default_rng(1)
        a, b = random_signs(rng, 128), random_signs(rng, 128)
        assert hamming_distance(words(a), words(b)) == naive_hamming(a, b)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hamming_distance(words([1] * 64), words([1] * 65))

    @given(st.integers(0, 2**32 - 1), st.integers(min_value=1, max_value=130))
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, seed, code_len):
        rng = np.random.default_rng(seed)
        rows = [words(random_signs(rng, code_len)) for _ in range(3)]
        u, v, w = rows
        assert hamming_distance(u, u) == 0
        assert hamming_distance(u, v) == hamming_distance(v, u)
        assert (
            hamming_distance(u, w)
            <= hamming_distance(u, v) + hamming_distance(v, w)
        )
        assert 0 <= hamming_distance(u, v) <= code_len


class TestPairwise:
    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(2)
        q = CodeMatrix.from_signs(rng.integers(0, 2, (5, 77)) * 2 - 1)
        d = CodeMatrix.from_signs(rng.integers(0, 2, (9, 77)) * 2 - 1)
        dist = pairwise_hamming(q, d)
        for i in range(5):
            for j in range(9):
                assert dist[i, j] == hamming_distance(q.words[i], d.words[j])

    @pytest.mark.parametrize(
        "code_len, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16)]
    )
    def test_dtype_is_the_narrowest_that_holds_code_len(self, code_len, dtype):
        rng = np.random.default_rng(code_len)
        q = CodeMatrix.from_signs(rng.integers(0, 2, (2, code_len)) * 2 - 1)
        assert pairwise_hamming(q, q).dtype == dtype

    @pytest.mark.parametrize("code_len", [129, 255, 256])
    def test_matches_oracle_across_words(self, code_len, monkeypatch):
        rng = np.random.default_rng(code_len)
        q_signs = rng.integers(0, 2, (4, code_len)) * 2 - 1
        d_signs = rng.integers(0, 2, (6, code_len)) * 2 - 1
        # the ends of the range: query 0 against itself and its negation
        q = CodeMatrix.from_signs(q_signs)
        d = CodeMatrix.from_signs(np.vstack([d_signs, q_signs[:1], -q_signs[:1]]))
        expected = [[hamming_distance(a, b) for b in d.words] for a in q.words]
        monkeypatch.setattr(hashcore, "CHUNK_PAIRS", 3 * d.rows)
        dist = pairwise_hamming(q, d)
        assert dist.tolist() == expected
        assert dist[0, -2] == 0 and dist[0, -1] == code_len

    def test_chunking_is_invisible(self, monkeypatch):
        rng = np.random.default_rng(3)
        q = CodeMatrix.from_signs(rng.integers(0, 2, (10, 33)) * 2 - 1)
        d = CodeMatrix.from_signs(rng.integers(0, 2, (7, 33)) * 2 - 1)
        whole = pairwise_hamming(q, d)
        monkeypatch.setattr(hashcore, "CHUNK_PAIRS", 3 * d.rows)
        assert np.array_equal(pairwise_hamming(q, d), whole)

    def test_empty_database(self):
        q = CodeMatrix.from_signs(np.ones((3, 70), dtype=np.int8))
        d = CodeMatrix.from_signs(np.ones((0, 70), dtype=np.int8))
        assert pairwise_hamming(q, d).shape == (3, 0)

    @pytest.mark.parametrize(
        "q, n, code_len",
        [(64, 1 << 16, 16), (64, 1 << 16, 130), (8, 1 << 20, 16)],
        ids=["below-budget", "below-budget-3-words", "above-budget"],
    )
    def test_workspace_is_bounded_by_the_pair_budget(self, q, n, code_len):
        # beside the output, one query row's uint64 xor and uint8 popcount:
        # 9 * n bytes, within the bound of a block of chunk_rows(n) rows
        rng = np.random.default_rng(n + code_len)

        def codes(rows):
            shape = (rows, words_per_row(code_len))
            words = rng.integers(0, 2**64, shape, dtype=np.uint64)
            words[:, -1] &= ~hashcore._pad_mask(code_len)
            return CodeMatrix(words, rows, code_len)

        queries, database = codes(q), codes(n)
        tracemalloc.start()
        try:
            out = pairwise_hamming(queries, database)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == q * n
        assert peak <= out.nbytes + 1.1 * 9 * max(hashcore.CHUNK_PAIRS, n)


class TestBinarize:
    def test_componentwise_sign(self):
        assert binarize([0.3, -0.2]).tolist() == [1, -1]

    def test_zero_maps_to_plus_one(self):
        assert binarize([0.0]).tolist() == [1]

    def test_tanh_preserves_binarization(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(0, 3, size=64)
        # signed zeros and the smallest magnitudes, where tanh(x) is x itself
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300])
        raw = np.concatenate([raw, tiny])
        assert binarize(tiny).tolist() == [1, 1, 1, -1, 1, -1]
        assert np.array_equal(binarize(raw), binarize(np.tanh(raw)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            binarize([0.1, float("nan")])

    def test_builds_int8_signs_directly(self):
        # a bool mask for the NaN check, one for the sign and the int8
        # result: no int64 array before the cast
        raw = np.random.default_rng(5).normal(size=(2000, 64))
        tracemalloc.start()
        try:
            signs = binarize(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert signs.dtype == np.int8
        assert peak <= 3 * raw.size


def test_words_per_row_boundaries():
    assert [words_per_row(c) for c in (1, 63, 64, 65, 128, 129)] == [
        1, 1, 1, 2, 2, 3,
    ]

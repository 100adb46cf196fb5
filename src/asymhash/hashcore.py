"""Bit-packed binary codes and Hamming-space algebra.

Codes are vectors over {-1, +1}. In packed form, bit k of word w holds
code position w * 64 + k (little-endian within each 64-bit word), with a
set bit meaning +1. Pad bits past ``code_len`` are always zero, so packed
rows compare bit-exactly regardless of how they were produced.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
# Query/database pairs per block of every scan over pairs (see chunk_rows).
CHUNK_PAIRS = 1 << 19


def words_per_row(code_len: int) -> int:
    return (code_len + WORD_BITS - 1) // WORD_BITS


def chunk_rows(width: int) -> int:
    """Query rows per block of a scan against ``width`` database rows."""
    return max(1, CHUNK_PAIRS // max(1, width))


def _check_signs(part, plus) -> None:
    """Rejects any entry of ``part`` but -1 and +1; ``plus`` is part == 1."""
    valid = part == -1
    valid |= plus
    if not valid.all():
        raise ValueError(f"entries must be -1 or +1, found {part[~valid].flat[0]!r}")


def _sign_array(signs) -> np.ndarray:
    arr = np.asarray(signs)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D sign array, got ndim={arr.ndim}")
    return arr


def _plus_mask(signs) -> np.ndarray:
    """Where a 2-D array over {-1, +1} holds +1; rejects any other entry."""
    arr = _sign_array(signs)
    plus = arr == 1
    # checked in row blocks of about CHUNK_PAIRS entries: whole-array masks
    # would add two bytes per entry beside ``plus``
    step = chunk_rows(arr.shape[1])
    for start in range(0, len(arr), step):
        block = slice(start, start + step)
        _check_signs(arr[block], plus[block])
    return plus


def _pack_bits(values, check: bool = False) -> np.ndarray:
    """One row of uint64 code words per row of the 2-D ``values``, a bit set
    where an entry is 1 (True, for bool); ``check`` also rejects any entry
    but -1 and +1.

    The rows are packed in blocks of about CHUNK_PAIRS entries, so the
    only masks made beside the words are one block's.
    """
    rows, code_len = values.shape
    # "<u8" words keep the layout independent of the host byte order
    words = np.zeros((rows, words_per_row(code_len)), dtype="<u8")
    packed = words.view(np.uint8)[:, : (code_len + 7) // 8]
    step = chunk_rows(code_len)
    for start in range(0, rows, step):
        part = values[start : start + step]
        plus = part if part.dtype == bool else part == 1
        if check:
            _check_signs(part, plus)
        packed[start : start + step] = np.packbits(plus, axis=1, bitorder="little")
    return words.astype(np.uint64, copy=False)


def _unpack_words(words: np.ndarray, code_len: int) -> np.ndarray:
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=1, count=code_len, bitorder="little")
    return np.where(bits == 1, np.int8(1), np.int8(-1))


def _pad_mask(code_len: int) -> np.uint64:
    """Bits of the final word that lie past code_len."""
    used = code_len % WORD_BITS
    if used == 0:
        return np.uint64(0)
    return np.uint64(~((1 << used) - 1) & 0xFFFFFFFFFFFFFFFF)


class CodeMatrix:
    """Immutable rows x code_len matrix over {-1, +1}, bit-packed row-major.

    Safe to share across threads once constructed; all accessors are
    read-only.
    """

    def __init__(self, words: np.ndarray, rows: int, code_len: int):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if code_len < 1:
            raise ValueError("code_len must be >= 1")
        if words.shape != (rows, words_per_row(code_len)):
            raise ValueError(
                f"packed storage shape {words.shape} does not match "
                f"{rows} rows of {code_len} bits"
            )
        pad = _pad_mask(code_len)
        # a pad bit is set in some row if and only if in the largest word
        if rows and pad and words[:, -1].max() & pad:
            raise ValueError("pad bits past code_len must be zero")
        words.flags.writeable = False
        self.words = words
        self.rows = rows
        self.code_len = code_len

    @classmethod
    def from_signs(cls, signs) -> "CodeMatrix":
        arr = _sign_array(signs)
        return cls(_pack_bits(arr, check=True), *arr.shape)

    def to_signs(self) -> np.ndarray:
        """Unpack to an int8 matrix over {-1, +1}."""
        return _unpack_words(self.words, self.code_len)

    def __len__(self) -> int:
        return self.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodeMatrix):
            return NotImplemented
        return (
            self.code_len == other.code_len
            and self.rows == other.rows
            and np.array_equal(self.words, other.words)
        )

    def __repr__(self) -> str:
        return f"CodeMatrix(rows={self.rows}, code_len={self.code_len})"


def pairwise_hamming(queries: CodeMatrix, database: CodeMatrix) -> np.ndarray:
    """Distance matrix (queries.rows x database.rows) of Hamming distances.

    The dtype is ``np.min_scalar_type(code_len)``, the narrowest unsigned
    type that holds every distance: uint8 up to 255 bits, uint16 up to
    65535. Each code word of each query row is xored with the database's
    and popcounted into the output row through two reused n-entry
    buffers, so the workspace is 9 * database.rows bytes whatever the
    query and word counts. A chunk x n xor temporary, 4 MB at n = 50k,
    took fresh pages whenever the allocator held no free block that size;
    the row buffers stay in cache, and were faster at n = 10k-50k too.
    """
    if queries.code_len != database.code_len:
        raise ValueError(
            f"code length mismatch: {queries.code_len} vs {database.code_len}"
        )
    dtype = np.min_scalar_type(queries.code_len)
    out = np.zeros((queries.rows, database.rows), dtype=dtype)
    xor = np.empty(database.rows, dtype=np.uint64)
    count = np.empty(database.rows, dtype=np.uint8)
    for word in range(queries.words.shape[1]):
        db_words = database.words[:, word]
        for query_word, row in zip(queries.words[:, word], out):
            np.bitwise_xor(db_words, query_word, out=xor)
            np.bitwise_count(xor, out=count)
            row += count
    return out


def binarize(raw) -> np.ndarray:
    """Componentwise sign with sign(0) = +1; rejects NaN entries."""
    arr = np.asarray(raw, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("cannot binarize NaN entries")
    return np.where(arr >= 0.0, np.int8(1), np.int8(-1))

"""Dataset generation, splits, and bit-exact file formats.

All binary formats are little-endian and open with an 8-byte magic whose
last byte is the format version; readers reject anything else. Each is a
header followed by flat arrays, which readers take through one bounds
check (``_Reader.array``) and ignore any bytes after. Layouts:

  features  "ADSHFTR1"  u64 rows, u64 dim, then rows*dim f64 row-major
  labels    "ADSHLBL2"  u64 rows, then rows u32 counts, then every row's
                        u32 ids in row order
  codes     "ADSHCOD1"  u64 rows, u32 code_len, then per row
                        ceil(code_len/64) u64 words (pad bits zero)
  model     "ADSHMDL1"  u32 layer-size count, that many u64 sizes, then per
                        affine layer: weights f64 row-major, biases f64
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderModel
from .hashcore import CodeMatrix, words_per_row
from .simgraph import LabelMatrix

FEATURES_MAGIC = b"ADSHFTR1"
LABELS_MAGIC = b"ADSHLBL2"
CODES_MAGIC = b"ADSHCOD1"
MODEL_MAGIC = b"ADSHMDL1"


class FileFormatError(ValueError):
    """A structural problem in a data file, located by byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def _truncated(what: str, expected: int, got: int, offset: int) -> FileFormatError:
    return FileFormatError(
        f"truncated file reading {what}: expected {expected} bytes, got {got}",
        offset,
    )


class _Reader:
    def __init__(self, handle):
        self.handle = handle
        self.offset = 0

    def exact(self, count: int, what: str) -> bytes:
        return self.array("u1", count, what).tobytes()

    def magic(self, expected: bytes) -> None:
        got = self.exact(len(expected), "magic")
        if got == expected:
            return
        if got[:-1] == expected[:-1]:
            raise FileFormatError(
                f"unsupported format version {got[-1:]!r}, expected "
                f"{expected[-1:]!r}",
                0,
            )
        raise FileFormatError(f"bad magic {got!r}, expected {expected!r}", 0)

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.exact(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.exact(8, what))[0]

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """``count`` items read straight into one writable array."""
        nbytes = np.dtype(dtype).itemsize * count
        # a size field can claim more than any file holds; check the bytes
        # left before allocating the claim
        left = os.fstat(self.handle.fileno()).st_size - self.handle.tell()
        if nbytes > left:
            raise _truncated(what, nbytes, left, self.offset)
        out = np.empty(count, dtype=dtype)
        got = self.handle.readinto(out.view(np.uint8))
        if got != nbytes:
            raise _truncated(what, nbytes, got, self.offset)
        self.offset += nbytes
        return out


def _write(path, magic: bytes, header: bytes, dtype: str, payloads) -> None:
    """The magic, the packed header, then each array as ``dtype``, written
    from its own buffer: an array that is already C-contiguous ``dtype``
    is not copied."""
    with open(path, "wb") as fh:
        fh.write(magic + header)
        for payload in payloads:
            fh.write(np.ascontiguousarray(payload, dtype=dtype).data)


def write_features(path, features) -> None:
    arr = np.ascontiguousarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError("features must be a 2-D matrix with dim >= 1")
    if not np.isfinite(arr).all():
        raise ValueError("features must be finite")
    _write(path, FEATURES_MAGIC, struct.pack("<QQ", *arr.shape), "<f8", [arr])


def read_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        reader.magic(FEATURES_MAGIC)
        rows = reader.u64("row count")
        dim = reader.u64("feature dim")
        start = reader.offset
        flat = reader.array("<f8", rows * dim, f"{rows}x{dim} feature matrix")
        finite = np.isfinite(flat)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise FileFormatError(
                f"feature value {bad} of {rows}x{dim} is not finite",
                start + 8 * bad,
            )
        # no copy on a little-endian host
        return flat.astype(np.float64, copy=False).reshape(rows, dim)


def write_labels(path, labels: LabelMatrix) -> None:
    if labels.ids.size and labels.ids.max() > 0xFFFFFFFF:
        raise ValueError(f"label id {labels.ids.max()} does not fit the u32 format")
    header = struct.pack("<Q", len(labels))
    _write(path, LABELS_MAGIC, header, "<u4", [np.diff(labels.offsets), labels.ids])


def read_labels(path) -> LabelMatrix:
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        reader.magic(LABELS_MAGIC)
        rows = reader.u64("row count")
        start = reader.offset
        counts = reader.array("<u4", rows, f"{rows} label counts")
        if not counts.all():
            r = int(np.argmin(counts))
            raise FileFormatError(f"label row {r} is empty", start + 4 * r)
        total = int(counts.sum())
        ids = reader.array("<u4", total, f"{total} label ids")
    return LabelMatrix.from_flat(ids, counts)


def write_codes(path, codes: CodeMatrix) -> None:
    header = struct.pack("<QI", codes.rows, codes.code_len)
    _write(path, CODES_MAGIC, header, "<u8", [codes.words])


def read_codes(path) -> CodeMatrix:
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        reader.magic(CODES_MAGIC)
        rows = reader.u64("row count")
        code_len = reader.u32("code length")
        if code_len < 1:
            raise FileFormatError("code length must be >= 1", reader.offset - 4)
        n_words = words_per_row(code_len)
        words = reader.array("<u8", rows * n_words, "packed code words")
        words = words.astype(np.uint64, copy=False).reshape(rows, n_words)
        try:
            return CodeMatrix(words, rows, code_len)
        except ValueError as err:
            raise FileFormatError(str(err), len(CODES_MAGIC) + 12) from err


def write_model(path, model: EncoderModel) -> None:
    dims = model.layer_dims
    header = struct.pack(f"<I{len(dims)}Q", len(dims), *dims)
    layers = [p for pair in zip(model.weights, model.biases) for p in pair]
    _write(path, MODEL_MAGIC, header, "<f8", layers)


def read_model(path) -> EncoderModel:
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        reader.magic(MODEL_MAGIC)
        n_dims = reader.u32("layer-size count")
        if n_dims < 2:
            raise FileFormatError("model needs at least 2 layer sizes", 8)
        dims = tuple(int(d) for d in reader.array("<u8", n_dims, "layer sizes"))
        if any(d < 1 for d in dims):
            raise FileFormatError("layer sizes must be >= 1", 12)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            flat = reader.array(
                "<f8", fan_in * fan_out, f"{fan_in}x{fan_out} weights"
            )
            weights.append(
                flat.astype(np.float64, copy=False).reshape(fan_in, fan_out)
            )
            flat = reader.array("<f8", fan_out, f"{fan_out} biases")
            biases.append(flat.astype(np.float64, copy=False))
        return EncoderModel(layer_dims=dims, weights=weights, biases=biases)


def gen_synthetic_clusters(
    num_clusters: int, per_cluster: int, dim: int, noise: float, seed
):
    """Gaussian blobs around uniform centers in [-1, 1]^dim.

    Returns (features, labels) with the cluster id as each point's label.
    Deterministic for a given seed.
    """
    if num_clusters < 1 or per_cluster < 1 or dim < 1:
        raise ValueError("num_clusters, per_cluster, and dim must be >= 1")
    if not 0 <= noise < np.inf:
        raise ValueError("noise must be finite and >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(num_clusters, dim))
    points = np.repeat(centers, per_cluster, axis=0)
    points = points + rng.normal(0.0, noise, size=points.shape)
    ids = np.repeat(np.arange(num_clusters), per_cluster)
    return points, LabelMatrix.from_ids(ids)


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint database / query / validation index sets."""

    db_indices: np.ndarray
    query_indices: np.ndarray
    val_indices: np.ndarray

    def __post_init__(self):
        groups = (self.db_indices, self.query_indices, self.val_indices)
        combined = np.concatenate(groups)
        if len(np.unique(combined)) != len(combined):
            raise ValueError("split groups must be disjoint")


def split(n: int, query_count: int, val_count: int, seed) -> DatasetSplit:
    """Uniform disjoint query and validation samples; the rest is database."""
    if query_count < 0 or val_count < 0:
        raise ValueError("counts must be >= 0")
    if query_count + val_count >= n:
        raise ValueError(
            f"query_count + val_count must leave database points: "
            f"{query_count} + {val_count} >= {n}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    query = np.sort(order[:query_count])
    val = np.sort(order[query_count : query_count + val_count])
    db = np.sort(order[query_count + val_count :])
    return DatasetSplit(db_indices=db, query_indices=query, val_indices=val)

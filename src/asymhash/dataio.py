"""Dataset generation, splits, and bit-exact file formats.

All binary formats are little-endian and open with an 8-byte magic whose
last byte is the format version; readers reject anything else. Each is a
header followed by flat arrays, which readers take through one bounds
check (``_Reader.array``) and ignore any bytes after. Layouts:

  features  "ADSHFTR1"  u64 rows, u64 dim >= 1, then rows*dim f64 row-major
  labels    "ADSHLBL2"  u64 rows, then rows u32 counts, then every row's
                        u32 ids in row order
  codes     "ADSHCOD1"  u64 rows, u32 code_len, then per row
                        ceil(code_len/64) u64 words (pad bits zero)
  model     "ADSHMDL1"  u32 layer-size count, that many u64 sizes, then per
                        affine layer: weights f64 row-major, biases f64

Feature files are read, checked and written FEATURE_CHUNK_BYTES of rows
at a time, so no command holds a database's n x d features: ``gen-data``
streams its draw through ``FeatureWriter``, ``train`` gathers its sampled
rows from a ``FeatureFile`` and ``encode`` encodes its chunks. The budget
is 4 MiB, not 1 MiB: at 1 MiB, ``gen-data``'s frees no longer raised
glibc's mmap threshold for the rest of one benchmark process, and on
``clusters-20k`` ``train`` then took 3,484 minor page faults, against
271 at 4 MiB (and 964 with the features resident).
"""

from __future__ import annotations

import contextlib
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
# header offsets: the row count of features, labels and codes, and the
# width (feature dim, code length) of features and codes
ROWS_OFFSET = 8
WIDTH_OFFSET = 16
# the first value of a features file
FEATURES_DATA_OFFSET = 24
# bytes of feature rows that a features file is read, checked and written
# by at a time (module docstring)
FEATURE_CHUNK_BYTES = 1 << 22


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

    def seek(self, offset: int) -> None:
        self.handle.seek(offset)
        self.offset = offset

    def require(self, nbytes: int, what: str) -> None:
        """A size field can claim more than any file holds: check the bytes
        left before anything of the claim's size is allocated."""
        left = os.fstat(self.handle.fileno()).st_size - self.offset
        if nbytes > left:
            raise _truncated(what, nbytes, left, self.offset)

    def array(self, dtype: str, count: int, what: str, out=None) -> np.ndarray:
        """``count`` items read straight into one writable array: a new one,
        or ``out``, a C-contiguous array of ``count`` items of ``dtype``,
        which needs no size check first (a short read fails the same)."""
        nbytes = np.dtype(dtype).itemsize * count
        if out is None:
            self.require(nbytes, what)
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


def feature_chunk_rows(dim: int) -> int:
    """Rows of ``dim`` float64 features per FEATURE_CHUNK_BYTES."""
    return max(1, FEATURE_CHUNK_BYTES // (8 * dim))


def _check_finite(values, file_rows, shape) -> None:
    """FileFormatError at the first entry of ``values``, the rows
    ``file_rows`` of a ``shape`` features file, that is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), shape[1])
        bad = int(file_rows[row]) * shape[1] + col
        raise FileFormatError(
            f"feature value {bad} of {shape[0]}x{shape[1]} is not finite",
            FEATURES_DATA_OFFSET + 8 * bad,
        )


@contextlib.contextmanager
def _open_features(path, shape=None):
    """(reader at the first value, rows, dim) of a features file whose
    header, and shape if given, and payload size are checked."""
    with open(path, "rb", buffering=0) as fh:
        reader = _Reader(fh)
        reader.magic(FEATURES_MAGIC)
        rows = reader.u64("row count")
        dim = reader.u64("feature dim")
        if dim == 0:
            raise FileFormatError("feature dim is 0", WIDTH_OFFSET)
        if shape not in (None, (rows, dim)):
            raise FileFormatError(
                f"{path} now holds {rows}x{dim} features, not {shape[0]}x{shape[1]}",
                ROWS_OFFSET,
            )
        reader.require(8 * rows * dim, f"{rows}x{dim} feature matrix")
        yield reader, rows, dim


def _read_chunks(reader, rows, dim, out=None):
    """(first row, rows) of each chunk of ``feature_chunk_rows`` rows, in
    order, each checked finite: read into the rows of ``out``, or else into
    one reused buffer, where a chunk lasts until the next is read."""
    step = feature_chunk_rows(dim)
    buffer = np.empty((min(step, rows), dim), "<f8") if out is None else out
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        part = buffer[: stop - start] if out is None else out[start:stop]
        reader.array("<f8", part.size, f"{rows}x{dim} feature matrix", out=part)
        _check_finite(part, range(start, stop), (rows, dim))
        # no copy on a little-endian host
        yield start, part.astype(np.float64, copy=False)


def read_features(path) -> np.ndarray:
    """The whole matrix, read and checked a chunk at a time."""
    with _open_features(path) as (reader, rows, dim):
        out = np.empty((rows, dim), dtype="<f8")
        for _ in _read_chunks(reader, rows, dim, out):
            pass
    return out.astype(np.float64, copy=False)


class FeatureFile:
    """A features file checked whole once, then read in parts.

    Opening checks the header, the payload size and every value's
    finiteness a chunk at a time; no rows x dim matrix is made. Then
    ``file[rows]`` gathers rows and ``chunks()`` reads the chunks again.
    Each call reopens the file and checks its shape, size and the values
    it reads, so a file changed since opening fails as a FileFormatError,
    not as bad features; no handle stays open between calls.
    """

    def __init__(self, path):
        self.path = path
        with _open_features(path) as (reader, rows, dim):
            self.shape = (rows, dim)
            for _ in _read_chunks(reader, rows, dim):
                pass

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows) -> np.ndarray:
        """The rows of the index array ``rows``, in its order, as a new
        array; each run of consecutive rows is one read."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and not 0 <= rows.min() <= rows.max() < len(self):
            raise IndexError(f"rows out of range for {len(self)} feature rows")
        dim = self.shape[1]
        out = np.empty((len(rows), dim), dtype="<f8")
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()
        with _open_features(self.path, self.shape) as (reader, _, _):
            for begin, end in zip(starts, [*starts[1:], len(rows)]):
                reader.seek(FEATURES_DATA_OFFSET + 8 * dim * int(rows[begin]))
                reader.array("<f8", out[begin:end].size, "feature rows",
                             out=out[begin:end])
        _check_finite(out, rows, self.shape)
        return out.astype(np.float64, copy=False)

    def chunks(self):
        """``_read_chunks`` of the file, through one reused buffer."""
        with _open_features(self.path, self.shape) as (reader, rows, dim):
            yield from _read_chunks(reader, rows, dim)


def feature_chunks(features):
    """(first row, rows) of each chunk of ``feature_chunk_rows`` rows of a
    FeatureFile or a 2-D matrix: one chunk rule for both."""
    if isinstance(features, FeatureFile):
        return features.chunks()
    step = feature_chunk_rows(features.shape[1])
    return (
        (start, features[start : start + step])
        for start in range(0, len(features), step)
    )


class FeatureWriter:
    """Writes a rows x dim features file a chunk of rows at a time; the
    caller writes exactly ``rows`` rows, each chunk finite and ``dim``
    wide. A failure inside the ``with`` block removes the file."""

    def __init__(self, path, rows: int, dim: int):
        self.path, self.dim = path, dim
        self.handle = open(path, "wb")
        self.handle.write(FEATURES_MAGIC + struct.pack("<QQ", rows, dim))

    def write(self, chunk) -> None:
        arr = np.ascontiguousarray(chunk, dtype="<f8")
        if arr.shape[1:] != (self.dim,):
            raise ValueError(f"feature rows must be {self.dim} wide, got {arr.shape}")
        step = feature_chunk_rows(self.dim)
        for start in range(0, len(arr), step):
            if not np.isfinite(arr[start : start + step]).all():
                raise ValueError("features must be finite")
        self.handle.write(arr.data)

    def __enter__(self) -> "FeatureWriter":
        return self

    def __exit__(self, kind, *_) -> None:
        self.handle.close()
        if kind is not None:
            os.remove(self.path)


def write_features(path, features) -> None:
    arr = np.asarray(features)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError("features must be a 2-D matrix with dim >= 1")
    with FeatureWriter(path, *arr.shape) as writer:
        writer.write(arr)


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
            raise FileFormatError("code length must be >= 1", WIDTH_OFFSET)
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


def synthetic_clusters(
    num_clusters: int, per_cluster: int, dim: int, noise: float, seed
):
    """Gaussian blobs around uniform centers in [-1, 1]^dim, drawn in chunks.

    Returns (labels, chunks): the cluster id as each point's label, and an
    iterator of (first row, rows) over the features, ``feature_chunk_rows``
    rows at a time. The arguments are checked on the call. Each chunk is
    drawn when taken, from one generator stream, so the chunks are the
    rows of one whole draw, bit for bit. Deterministic for a given seed.
    """
    if num_clusters < 1 or per_cluster < 1 or dim < 1:
        raise ValueError("num_clusters, per_cluster, and dim must be >= 1")
    if not 0 <= noise < np.inf:
        raise ValueError("noise must be finite and >= 0")
    labels = LabelMatrix.from_ids(np.repeat(np.arange(num_clusters), per_cluster))

    def chunks():
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-1.0, 1.0, size=(num_clusters, dim))
        step = feature_chunk_rows(dim)
        for start in range(0, len(labels), step):
            rows = np.arange(start, min(start + step, len(labels)))
            chunk = rng.normal(0.0, noise, size=(len(rows), dim))
            chunk += centers[rows // per_cluster]  # the sum center + noise
            yield start, chunk

    return labels, chunks()


def gen_synthetic_clusters(
    num_clusters: int, per_cluster: int, dim: int, noise: float, seed
):
    """(features, labels) of ``synthetic_clusters``, features as one matrix."""
    labels, chunks = synthetic_clusters(num_clusters, per_cluster, dim, noise, seed)
    features = np.empty((len(labels), dim))
    for start, chunk in chunks:
        features[start : start + len(chunk)] = chunk
    return features, labels


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint database / query / validation index sets."""

    db_indices: np.ndarray
    query_indices: np.ndarray
    val_indices: np.ndarray

    def __post_init__(self):
        groups = (self.db_indices, self.query_indices, self.val_indices)
        combined = np.sort(np.concatenate(groups))
        # sorted neighbours: np.unique took 7.5 ms at 50k rows, and its
        # first call imports numpy.ma
        if (combined[1:] == combined[:-1]).any():
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

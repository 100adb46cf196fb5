import struct
import tracemalloc

import numpy as np
import pytest

from asymhash import dataio
from asymhash.dataio import (
    CODES_MAGIC,
    FEATURES_MAGIC,
    LABELS_MAGIC,
    FeatureFile,
    FeatureWriter,
    FileFormatError,
    gen_synthetic_clusters,
    read_codes,
    read_features,
    read_labels,
    read_model,
    split,
    write_codes,
    write_features,
    write_labels,
    write_model,
)
from asymhash.encoder import init_encoder
from asymhash.hashcore import CodeMatrix
from asymhash.simgraph import LabelMatrix


def traced_peak(call, *args):
    """(result, tracemalloc peak in bytes) of ``call(*args)``."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFeatureFormat:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.normal(0, 1, (13, 7))
        path = tmp_path / "features.bin"
        write_features(path, features)
        back = read_features(path)
        assert back.dtype == np.float64
        assert np.array_equal(
            back.view(np.uint64), features.view(np.uint64)
        )

    def test_read_holds_the_matrix_once(self, tmp_path):
        features = np.random.default_rng(1).normal(0, 1, (5000, 32))
        path = tmp_path / "features.bin"
        write_features(path, features)
        tracemalloc.start()
        try:
            back = read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * features.nbytes
        assert back.flags.writeable
        assert np.array_equal(back, features)

    def test_write_copies_no_payload(self, tmp_path):
        features = np.random.default_rng(1).normal(0, 1, (5000, 32))
        path = tmp_path / "features.bin"
        _, peak = traced_peak(write_features, path, features)
        assert peak <= 0.25 * features.nbytes
        assert np.array_equal(read_features(path), features)

    def test_truncation_names_expected_and_actual(self, tmp_path):
        path = tmp_path / "features.bin"
        write_features(path, np.zeros((4, 3)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FileFormatError, match="expected 96 bytes, got 88") as info:
            read_features(path)
        assert info.value.offset == 24  # magic + two u64 header fields
        assert "offset" in str(info.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FileFormatError, match="bad magic"):
            read_features(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(FEATURES_MAGIC[:-1] + b"9" + b"\x00" * 16)
        with pytest.raises(FileFormatError, match="version"):
            read_features(path)

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            write_features(tmp_path / "x.bin", np.array([[np.inf]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_on_read(self, tmp_path, bad):
        path = tmp_path / "features.bin"
        write_features(path, np.zeros((2, 3)))
        data = bytearray(path.read_bytes())
        data[24 + 8 * 4 : 24 + 8 * 5] = np.array([bad], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="not finite") as info:
            read_features(path)
        assert info.value.offset == 24 + 8 * 4


def set_value(path, index, value) -> None:
    """Overwrite feature value ``index`` of a features file in place."""
    with open(path, "r+b") as fh:
        fh.seek(dataio.FEATURES_DATA_OFFSET + 8 * index)
        fh.write(np.array([value], dtype="<f8").tobytes())


class TestFeatureChunks:
    """The reader and writer work a chunk of rows at a time; the chunk
    budget is set to 3 rows here, so small files span several chunks."""

    ROWS, DIM = 11, 5

    @pytest.fixture
    def three_rows(self, monkeypatch):
        monkeypatch.setattr(dataio, "FEATURE_CHUNK_BYTES", 3 * 8 * self.DIM)

    @pytest.fixture
    def features(self):
        return np.random.default_rng(40).normal(0, 1, (self.ROWS, self.DIM))

    @pytest.mark.parametrize(
        "row, col",
        [(0, 0), (2, 4), (3, 0), (5, 2), (6, 0), (10, 4)],
        ids=["first", "end-of-chunk", "start-of-chunk", "mid-chunk",
             "after-boundary", "last"],
    )
    @pytest.mark.parametrize("reader", [read_features, FeatureFile])
    def test_non_finite_value_is_located_in_any_chunk(
        self, tmp_path, three_rows, features, row, col, reader
    ):
        path = tmp_path / "features.bin"
        write_features(path, features)
        bad = row * self.DIM + col
        set_value(path, bad, np.nan)
        with pytest.raises(FileFormatError) as info:
            reader(path)
        offset = 24 + 8 * bad
        assert str(info.value) == (
            f"feature value {bad} of {self.ROWS}x{self.DIM} is not finite "
            f"(at byte offset {offset})"
        )

    @pytest.mark.parametrize("reader", [read_features, FeatureFile])
    def test_truncated_payload_fails_before_a_payload_sized_allocation(
        self, tmp_path, reader
    ):
        # the header claims 8 MB of values; half of them are there
        rows, dim = 2000, 512
        path = tmp_path / "features.bin"
        payload = np.zeros(rows * dim // 2, dtype="<f8").tobytes()
        path.write_bytes(FEATURES_MAGIC + struct.pack("<QQ", rows, dim) + payload)
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError) as info:
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"truncated file reading {rows}x{dim} feature matrix: expected "
            f"{8 * rows * dim} bytes, got {len(payload)} (at byte offset 24)"
        )
        assert peak < 2**20

    def test_gathers_and_chunks_read_the_matrix(self, tmp_path, three_rows, features):
        path = tmp_path / "features.bin"
        write_features(path, features)
        file = FeatureFile(path)
        assert file.shape == features.shape and len(file) == self.ROWS
        for rows in ([7, 2, 3, 4, 10, 0], [5], [], np.arange(self.ROWS)):
            got = file[rows]
            assert got.dtype == np.float64 and got.shape == (len(rows), self.DIM)
            assert np.array_equal(got, features[np.asarray(rows, dtype=int)])
        starts = [start for start, _ in file.chunks()]
        assert starts == [0, 3, 6, 9]
        chunks = [chunk.copy() for _, chunk in dataio.feature_chunks(file)]
        assert np.array_equal(np.concatenate(chunks), features)
        with pytest.raises(IndexError):
            file[[0, self.ROWS]]

    @pytest.mark.parametrize("change", ["nan", "truncated", "reshaped"])
    def test_a_file_changed_after_opening_fails_its_reads(
        self, tmp_path, features, change
    ):
        path = tmp_path / "features.bin"
        write_features(path, features)
        file = FeatureFile(path)
        if change == "nan":
            set_value(path, 4 * self.DIM + 1, np.inf)
            message = f"feature value {4 * self.DIM + 1} of 11x5 is not finite"
        elif change == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
            message = "truncated file reading 11x5 feature matrix"
        else:
            write_features(path, features[:, :-1])
            message = f"{path} now holds 11x4 features, not 11x5"
        with pytest.raises(FileFormatError, match=message):
            file[[1, 4]]
        with pytest.raises(FileFormatError, match=message):
            list(file.chunks())
        if change == "nan":
            assert np.array_equal(file[[1, 5]], features[[1, 5]])

    def test_chunked_writes_make_the_one_write_file(self, tmp_path, features):
        whole, parts = tmp_path / "whole.bin", tmp_path / "parts.bin"
        write_features(whole, features)
        with FeatureWriter(parts, self.ROWS, self.DIM) as writer:
            for start in range(0, self.ROWS, 4):
                writer.write(features[start : start + 4])
        assert parts.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("bad", ["nan", "width"])
    def test_a_failed_write_leaves_no_file(self, tmp_path, features, bad):
        path = tmp_path / "features.bin"
        chunk = features[5:].copy()
        if bad == "nan":
            chunk[3, 2] = np.nan
        else:
            chunk = chunk[:, 1:]
        with pytest.raises(ValueError):
            with FeatureWriter(path, self.ROWS, self.DIM) as writer:
                writer.write(features[:5])
                writer.write(chunk)
        assert not path.exists()


def label_file(rows, claimed=None) -> bytes:
    """Label file bytes: the header, every row's count, then every row's ids."""
    counts = [len(row) for row in rows]
    words = [*counts, *(i for row in rows for i in row)]
    claimed = len(rows) if claimed is None else claimed
    return (
        LABELS_MAGIC + struct.pack("<Q", claimed)
        + struct.pack(f"<{len(words)}I", *words)
    )


def reference_label_error(data: bytes):
    """The (message, byte offset) of the first bad field of a label file
    read one field at a time; None when the file is whole."""
    rows = struct.unpack("<Q", data[8:16])[0]
    left = len(data) - 16
    if left < 4 * rows:
        what = f"{rows} label counts: expected {4 * rows} bytes, got {left}"
        return f"truncated file reading {what}", 16
    counts = struct.unpack(f"<{rows}I", data[16 : 16 + 4 * rows])
    if 0 in counts:
        r = counts.index(0)
        return f"label row {r} is empty", 16 + 4 * r
    start, total = 16 + 4 * rows, sum(counts)
    left = len(data) - start
    if left < 4 * total:
        what = f"{total} label ids: expected {4 * total} bytes, got {left}"
        return f"truncated file reading {what}", start
    return None


class TestLabelFormat:
    def test_round_trip(self, tmp_path):
        labels = LabelMatrix([{0}, {3, 1}, {7, 2, 40}])
        path = tmp_path / "labels.bin"
        write_labels(path, labels)
        assert path.read_bytes() == label_file([[0], [1, 3], [2, 7, 40]])
        back = read_labels(path)
        assert back.ids.tolist() == [0, 1, 3, 2, 7, 40]
        assert back.offsets.tolist() == labels.offsets.tolist() == [0, 1, 3, 6]

    def test_round_trip_many_rows_near_u32_max(self, tmp_path):
        rng = np.random.default_rng(14)
        counts = rng.integers(1, 4, 10_000)
        ids = rng.integers(2**32 - 40, 2**32, counts.sum())
        ids[::7] = rng.integers(0, 40, ids[::7].size)  # small ids mixed in
        labels = LabelMatrix.from_flat(ids, counts)
        path = tmp_path / "labels.bin"
        write_labels(path, labels)
        back = read_labels(path)
        assert np.array_equal(back.ids, labels.ids)
        assert np.array_equal(back.offsets, labels.offsets)

    def test_empty_row_rejected_on_read(self, tmp_path):
        path = tmp_path / "labels.bin"
        payload = LABELS_MAGIC + struct.pack("<Q", 1) + struct.pack("<I", 0)
        path.write_bytes(payload)
        with pytest.raises(FileFormatError, match="empty"):
            read_labels(path)

    def test_truncated_ids(self, tmp_path):
        path = tmp_path / "labels.bin"
        payload = LABELS_MAGIC + struct.pack("<Q", 1) + struct.pack("<I", 3)
        payload += struct.pack("<I", 1)  # one id instead of three
        path.write_bytes(payload)
        with pytest.raises(FileFormatError, match="truncated"):
            read_labels(path)

    @pytest.mark.parametrize(
        "words, message, offset",
        [
            (
                struct.pack("<I", 1) + b"\x01\x00",
                "truncated file reading 2 label counts: expected 8 bytes, got 6",
                16,
            ),
            (
                struct.pack("<5I", 1, 3, 7, 4, 5),
                "truncated file reading 4 label ids: expected 16 bytes, got 12",
                24,
            ),
            (struct.pack("<3I", 1, 0, 7), "label row 1 is empty", 20),
        ],
        ids=["truncated count", "truncated ids", "empty row"],
    )
    def test_errors_name_row_and_offset(self, tmp_path, words, message, offset):
        path = tmp_path / "labels.bin"
        path.write_bytes(LABELS_MAGIC + struct.pack("<Q", 2) + words)
        with pytest.raises(FileFormatError) as info:
            read_labels(path)
        assert info.value.offset == offset
        assert str(info.value) == f"{message} (at byte offset {offset})"

    def test_repeated_ids_collapse_and_trailing_bytes_are_ignored(self, tmp_path):
        path = tmp_path / "labels.bin"
        path.write_bytes(label_file([[5, 2, 5], [0]]) + b"tail")
        labels = read_labels(path)
        assert labels.ids.tolist() == [2, 5, 0]
        assert labels.offsets.tolist() == [0, 2, 3]

    def test_sorted_unsorted_and_repeated_rows_read_alike(self, tmp_path):
        # rows already strictly increasing (as write_labels writes them)
        # skip the re-sort; the same sets shuffled or with repeats must give
        # the same ids and offsets. The first rows repeat ids across row
        # boundaries, which the sorted path has to keep.
        rng = np.random.default_rng(15)
        sets = [[2], [2], [1, 2], [2, 3], [0, 5, 9]]
        sets += [
            sorted(rng.choice(50, int(rng.integers(1, 5)), replace=False).tolist())
            for _ in range(500)
        ]
        forms = {
            "sorted": sets,
            "unsorted": [rng.permutation(row).tolist() for row in sets],
            "repeated": [rng.permutation(row + row[:1]).tolist() for row in sets],
            "repeated_in_order": [sorted(row + row[:1]) for row in sets],
        }
        read = {}
        for name, rows in forms.items():
            path = tmp_path / f"{name}.bin"
            path.write_bytes(label_file(rows))
            read[name] = read_labels(path)
        want = LabelMatrix(sets)
        for name, labels in read.items():
            assert np.array_equal(labels.ids, want.ids), name
            assert np.array_equal(labels.offsets, want.offsets), name
        assert [want.ids[a:b].tolist() for a, b in zip(
            want.offsets[:-1], want.offsets[1:]
        )] == sets

    @pytest.mark.parametrize(
        "corruption", ["empty", "grown", "ids_cut", "counts_cut", "rows"]
    )
    def test_corrupt_files_match_a_field_by_field_read(self, tmp_path, corruption):
        # random files of 1-3 ids per row, each with one corruption: a zero
        # count or a count past the ids at a random row, the file cut inside
        # the ids or inside the counts (with 0-3 bytes of a partial word),
        # or a header claiming more rows, so that ids are read as counts
        path = tmp_path / "labels.bin"
        for seed in range(50):
            rng = np.random.default_rng([18, seed])
            counts = rng.integers(1, 4, int(rng.integers(1, 60)))
            rows = [rng.integers(0, 6, c).tolist() for c in counts]
            bad, claimed = int(rng.integers(len(rows))), len(rows)
            if corruption == "rows":
                claimed += int(rng.integers(1, 4))
            data = bytearray(label_file(rows, claimed))
            if corruption == "empty":
                data[16 + 4 * bad : 20 + 4 * bad] = struct.pack("<I", 0)
            elif corruption == "grown":
                grown = int(counts[bad] + rng.integers(1, 4))
                data[16 + 4 * bad : 20 + 4 * bad] = struct.pack("<I", grown)
            if corruption == "ids_cut":
                ids_kept = int(rng.integers(counts.sum()))
                data = data[: 16 + 4 * (len(rows) + ids_kept)]
            elif corruption == "counts_cut":
                data = data[: 16 + 4 * bad]
            if corruption.endswith("_cut"):
                data += bytes(int(rng.integers(0, 4)))
            path.write_bytes(bytes(data))

            # every corruption is caught: extra claimed rows read ids as
            # counts, and a zero id makes an empty row while the rest claim
            # more ids than are left
            message, offset = reference_label_error(data)
            with pytest.raises(FileFormatError) as info:
                read_labels(path)
            assert info.value.offset == offset, seed
            assert str(info.value) == f"{message} (at byte offset {offset})", seed

    @pytest.mark.parametrize("form", ["one_id", "one_to_three_ids"])
    def test_read_and_write_hold_few_copies_of_the_payload(self, tmp_path, form):
        # the payload is the file's u32 words after the header: every count
        # and every id. Reading ends in LabelMatrix.from_flat, whose int64
        # ids and offsets are most of the read peak: no int64 row index.
        rng = np.random.default_rng(21)
        if form == "one_id":
            labels = LabelMatrix.from_ids(rng.integers(0, 100, 50_000))
        else:
            labels = LabelMatrix(
                [rng.choice(80, int(rng.integers(1, 4)), replace=False)
                 for _ in range(3000)]
            )
        path = tmp_path / "labels.bin"
        _, write_peak = traced_peak(write_labels, path, labels)
        back, read_peak = traced_peak(read_labels, path)
        payload = path.stat().st_size - 16
        assert payload == 4 * (len(labels) + labels.ids.size)
        assert write_peak <= 2.0 * payload
        assert read_peak <= 4.5 * payload
        assert np.array_equal(back.ids, labels.ids)
        assert np.array_equal(back.offsets, labels.offsets)

    @pytest.mark.parametrize("big", [2**32, 2**32 + 7])
    def test_id_past_u32_is_rejected_before_writing(self, tmp_path, big):
        path = tmp_path / "labels.bin"
        with pytest.raises(ValueError, match="u32"):
            write_labels(path, LabelMatrix([{1}, {3, big}]))
        assert not path.exists()

    def test_largest_u32_id_needs_no_id_sized_memory(self, tmp_path):
        ids = np.arange(1000) % 5
        ids[500] = 2**32 - 1
        path = tmp_path / "labels.bin"
        tracemalloc.start()
        try:
            labels = LabelMatrix.from_ids(ids)
            write_labels(path, labels)
            back = read_labels(path)
            shares = back.subset(range(500, 510)).shares_label(back)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.ids, ids)
        assert shares[0].sum() == 1 and shares[0, 500]
        assert peak < 2**20


class TestCodeFormat:
    @pytest.mark.parametrize("code_len", [12, 24, 48, 64, 65, 130])
    def test_round_trip_non_word_multiples(self, tmp_path, code_len):
        rng = np.random.default_rng(code_len)
        codes = CodeMatrix.from_signs(rng.integers(0, 2, (9, code_len)) * 2 - 1)
        path = tmp_path / "codes.bin"
        write_codes(path, codes)
        back = read_codes(path)
        assert back == codes
        assert np.array_equal(back.to_signs(), codes.to_signs())

    def test_pad_bits_zero_on_disk(self, tmp_path):
        codes = CodeMatrix.from_signs(np.ones((3, 12), dtype=int))
        path = tmp_path / "codes.bin"
        write_codes(path, codes)
        words = np.frombuffer(path.read_bytes()[20:], dtype="<u8")
        assert (words >> np.uint64(12)).max() == 0

    def test_dirty_pad_bits_rejected(self, tmp_path):
        path = tmp_path / "codes.bin"
        header = CODES_MAGIC + struct.pack("<QI", 1, 12)
        path.write_bytes(header + struct.pack("<Q", 1 << 20))
        with pytest.raises(FileFormatError, match="pad bits"):
            read_codes(path)

    def test_truncated_rows(self, tmp_path):
        rng = np.random.default_rng(1)
        codes = CodeMatrix.from_signs(rng.integers(0, 2, (4, 16)) * 2 - 1)
        path = tmp_path / "codes.bin"
        write_codes(path, codes)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FileFormatError, match="expected 32 bytes, got 28"):
            read_codes(path)

    def test_read_and_write_hold_the_words_once(self, tmp_path):
        rng = np.random.default_rng(2)
        codes = CodeMatrix.from_signs(rng.integers(0, 2, (5000, 64)) * 2 - 1)
        path = tmp_path / "codes.bin"
        _, write_peak = traced_peak(write_codes, path, codes)
        back, read_peak = traced_peak(read_codes, path)
        assert write_peak <= 0.25 * codes.words.nbytes
        assert read_peak <= 1.25 * codes.words.nbytes
        assert back == codes


class TestModelFormat:
    def test_round_trip_is_bitwise(self, tmp_path):
        model = init_encoder((6, 5, 4), rng_seed=2)
        path = tmp_path / "model.bin"
        write_model(path, model)
        back = read_model(path)
        assert back.layer_dims == (6, 5, 4)
        for got, want in zip(back.params(), model.params()):
            assert np.array_equal(got, want)

    def test_truncated_weights(self, tmp_path):
        model = init_encoder((3, 2), rng_seed=3)
        path = tmp_path / "model.bin"
        write_model(path, model)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError, match="truncated"):
            read_model(path)

    def test_read_and_write_hold_each_layer_once(self, tmp_path):
        model = init_encoder((32, 512, 64), rng_seed=4)
        payload = sum(p.nbytes for p in model.params())
        path = tmp_path / "model.bin"
        _, write_peak = traced_peak(write_model, path, model)
        back, read_peak = traced_peak(read_model, path)
        assert write_peak <= 0.25 * payload
        assert read_peak <= 1.25 * payload
        for got, want in zip(back.params(), model.params()):
            assert np.array_equal(got, want)


class TestSyntheticClusters:
    def test_zero_noise_collapses_clusters(self):
        features, labels = gen_synthetic_clusters(3, 4, 5, 0.0, seed=0)
        for cluster in range(3):
            rows = features[cluster * 4 : (cluster + 1) * 4]
            assert np.array_equal(rows, np.repeat(rows[:1], 4, axis=0))
        assert labels.ids[:4].tolist() == [0, 0, 0, 0]

    def test_nearest_center_accuracy(self):
        features, labels = gen_synthetic_clusters(10, 200, 32, 0.1, seed=1)
        centers = np.stack(
            [features[i * 200 : (i + 1) * 200].mean(axis=0) for i in range(10)]
        )
        dists = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        predicted = dists.argmin(axis=1)
        truth = np.repeat(np.arange(10), 200)
        assert (predicted == truth).mean() > 0.99

    def test_same_seed_identical_bytes(self, tmp_path):
        a, _ = gen_synthetic_clusters(4, 10, 6, 0.2, seed=9)
        b, _ = gen_synthetic_clusters(4, 10, 6, 0.2, seed=9)
        assert a.tobytes() == b.tobytes()

    def test_rejects_negative_noise(self):
        # nan once gave all-NaN features, inf non-finite ones
        for noise in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="noise must be finite and >= 0"):
                gen_synthetic_clusters(2, 2, 2, noise, seed=0)


class TestSplit:
    def test_sizes_add_up(self):
        parts = split(10, 2, 2, seed=0)
        assert len(parts.db_indices) == 6
        assert len(parts.query_indices) == 2
        assert len(parts.val_indices) == 2

    def test_everything_defaults_to_database(self):
        parts = split(10, 0, 0, seed=0)
        assert np.array_equal(parts.db_indices, np.arange(10))

    def test_deterministic(self):
        first, second = split(100, 10, 5, seed=3), split(100, 10, 5, seed=3)
        assert np.array_equal(first.query_indices, second.query_indices)
        assert np.array_equal(first.db_indices, second.db_indices)

    def test_rejects_oversized_request(self):
        with pytest.raises(ValueError, match="database"):
            split(10, 6, 4, seed=0)

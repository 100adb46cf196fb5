"""Outside-in tracing of the asymhash layers the CLI pipeline calls.

Nothing under ``src/`` knows about this module. ``install`` replaces each
public function under the name its caller looks it up by, and routes its
calls through a recorder. ``from .x import y`` copies the binding into the
caller's module, so ``asymhash.solver.minibatch_step`` is patched, not
``asymhash.encoder.minibatch_step``. A recorder collects one of two things:

- ``SpanRecorder``: a span per call (name, parent, start, end), kept in
  memory, plus exact counters (calls, pairs, bits flipped, bytes). Self
  time is a span's duration minus the durations of its direct children.
- ``AllocRecorder``: the peak ``tracemalloc`` allocation above the entry
  level of each layer in ``ALLOC_LAYERS``. ``tracemalloc`` slows Python
  loops, so this runs in a pass of its own and its times are discarded.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc

import numpy as np

# (module or class path, attribute, span name). The module is the one whose
# global the caller reads at call time.
TARGETS = (
    ("asymhash.cli", "cmd_train", "cli.train"),
    ("asymhash.cli", "cmd_encode", "cli.encode"),
    ("asymhash.cli", "cmd_eval", "cli.eval"),
    ("asymhash.cli", "train", "solver.train"),
    ("asymhash.cli", "encode_queries", "encoder.encode_queries"),
    ("asymhash.solver", "v_step", "solver.v_step"),
    ("asymhash.solver", "objective", "solver.objective"),
    ("asymhash.solver", "minibatch_step", "encoder.minibatch_step"),
    ("asymhash.solver", "forward", "encoder.forward"),
    ("asymhash.encoder", "forward", "encoder.forward"),
    ("asymhash.solver", "build_sampled_similarity", "simgraph.build_sampled_similarity"),
    ("asymhash.simgraph:LabelMatrix", "shares_label", "simgraph.LabelMatrix.shares_label"),
    ("asymhash.hashcore:CodeMatrix", "from_signs", "hashcore.CodeMatrix.from_signs"),
    ("asymhash.evaluate", "pairwise_hamming", "hashcore.pairwise_hamming"),
    ("asymhash.evaluate", "relevance_from_labels", "evaluate.relevance_from_labels"),
    ("asymhash.evaluate", "rank_by_hamming", "evaluate.rank_by_hamming"),
    ("asymhash.evaluate", "mean_average_precision", "evaluate.mean_average_precision"),
    ("asymhash.evaluate", "topk_precision_curve", "evaluate.topk_precision_curve"),
    ("asymhash.evaluate", "precision_recall_by_radius", "evaluate.precision_recall_by_radius"),
    ("asymhash.dataio", "read_features", "dataio.read_features"),
    ("asymhash.dataio", "read_labels", "dataio.read_labels"),
    ("asymhash.dataio", "read_codes", "dataio.read_codes"),
    ("asymhash.dataio", "read_model", "dataio.read_model"),
    ("asymhash.dataio", "write_codes", "dataio.write_codes"),
    ("asymhash.dataio", "write_model", "dataio.write_model"),
)

ALLOC_LAYERS = (
    "solver.v_step",
    "solver.objective",
    "encoder.minibatch_step",
    "simgraph.build_sampled_similarity",
    "hashcore.pairwise_hamming",
    "evaluate.rank_by_hamming",
    "evaluate.mean_average_precision",
    "evaluate.precision_recall_by_radius",
)

COMMANDS = ("cli.train", "cli.encode", "cli.eval")


def _counts(name, args):
    """Exact work counters for one call, derived from argument sizes."""
    if name == "simgraph.LabelMatrix.shares_label":
        return {"pairs": len(args[0]) * len(args[1])}
    if name == "hashcore.pairwise_hamming":
        queries, database = args[0], args[1]
        pairs = queries.rows * database.rows
        # computed, not measured: one 8-byte xor per pair and code word
        return {"pairs": pairs, "bytes_computed": pairs * queries.words.shape[1] * 8}
    if name == "dataio.read_labels":
        return {"bytes": os.path.getsize(args[0])}
    return {}


class SpanRecorder:
    """In-memory span list and counters; written out once the run ends."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.counters = {}

    def call(self, name, fn, args, kwargs):
        before = None
        if name == "solver.v_step":
            before = np.array(args[0], copy=True)
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, parent, time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()
        counts = _counts(name, args)
        counts["calls"] = 1
        if before is not None:
            counts["bits_flipped"] = int(np.count_nonzero(before != args[0]))
        for key, value in counts.items():
            full = f"{name}.{key}"
            self.counters[full] = self.counters.get(full, 0) + value
        return result

    def summary(self) -> dict:
        """Inclusive and self seconds per span name, plus the counters.

        A span nested inside a span of the same name adds to self time but
        not again to the inclusive total.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict(self.counters)
        for i, (name, parent, start, end) in enumerate(self.spans):
            duration = end - start
            self_key = f"{name}.self_s"
            out[self_key] = out.get(self_key, 0.0) + duration - child_time[i]
            if not self._has_ancestor(parent, name):
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
        return out

    def _has_ancestor(self, index, name) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][1]
        return False

    def command_coverage(self) -> dict:
        """Per CLI command: seconds spent inside named child layers."""
        covered = {}
        for name, parent, start, end in self.spans:
            if parent >= 0 and self.spans[parent][0] in COMMANDS:
                key = self.spans[parent][0]
                covered[key] = covered.get(key, 0.0) + end - start
        return covered


class AllocRecorder:
    """Peak traced allocation above entry level, per layer (largest call)."""

    def __init__(self):
        self.stack = []  # [bytes at entry, highest peak seen]
        self.peaks = {}

    def start(self):
        tracemalloc.start()

    def stop(self):
        tracemalloc.stop()

    def call(self, name, fn, args, kwargs):
        if name not in ALLOC_LAYERS:
            return fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        if self.stack:
            self.stack[-1][1] = max(self.stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            frame[1] = max(frame[1], peak)
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] = max(self.stack[-1][1], frame[1])
            tracemalloc.reset_peak()
            key = f"{name}.peak_alloc_mb"
            mb = (frame[1] - frame[0]) / 2**20
            self.peaks[key] = max(self.peaks.get(key, 0.0), mb)


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(recorder):
    """Patch every target to report to ``recorder``; returns an undo list."""
    undo = []
    for path, attr, name in TARGETS:
        owner = _owner(path)
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            return recorder.call(_name, _fn, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        undo.append((owner, attr, raw))
    return undo


def uninstall(undo):
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)

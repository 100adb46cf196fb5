"""The benchmark's traced names must exist, so that renaming or removing a
traced function fails here and not only in a ``--trace 1`` benchmark run."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # spans.install looks each target up the same way
    missing = [
        f"{path} {attr} ({name})"
        for path, attr, name in spans.TARGETS
        if attr not in spans._owner(path).__dict__
    ]
    assert not missing, f"span targets that no longer resolve: {missing}"

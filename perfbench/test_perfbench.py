"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def test_declared_metrics_match_the_runner():
    end_to_end, per_layer, workloads = _declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert workloads == list(run.WORKLOADS)


def test_smoke_runs_every_workload_untraced_and_traced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    infos = [json.loads(line) for line in lines[0::2]]
    results = [json.loads(line) for line in lines[1::2]]
    assert [(i["workload"], i["trace"]) for i in infos] == [
        (w, t) for w in run.WORKLOADS for t in (0, 1)
    ]
    for info, result in zip(infos, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, info
        expected = run.PER_LAYER if info["trace"] else run.END_TO_END
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert len(info["db_codes_sha256"]) == 1
    for workload in run.WORKLOADS:
        digests = {i["db_codes_sha256"][0] for i in infos if i["workload"] == workload}
        assert len(digests) == 1, f"{workload}: tracing changed db_codes.bin"
    traced = [r["metrics"] for i, r in zip(infos, results) if i["trace"]]
    for metrics in traced:
        assert metrics["solver.v_step.calls"]["value"] >= 1
        assert metrics["trace.coverage_train"]["value"] > 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", run.WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_direct_children():
    rec = spans.SpanRecorder()
    rec.spans = [
        ["cli.train", -1, 0.0, 10.0],
        ["solver.train", 0, 1.0, 9.0],
        ["solver.v_step", 1, 2.0, 5.0],
        ["solver.objective", 1, 5.0, 6.0],
    ]
    out = rec.summary()
    assert out["cli.train.self_s"] == 2.0
    assert out["solver.train.self_s"] == 4.0
    assert out["solver.v_step.s"] == 3.0
    assert rec.command_coverage() == {"cli.train": 8.0}

"""Self-test of the benchmark harness, kept out of the repository's tier-1
suite (pytest only collects ``test_*.py`` by itself).  Run it explicitly:

    python3 -m pytest perfbench/selftest.py -q

It runs the harness on the tiny ``smoke`` workload, untraced and traced,
checks that the exact counts repeat between two traced runs, that
BENCHMARK.json matches the metric catalog, and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(seed: int, trace: int) -> dict:
    return last_json(bench("--workload", "smoke", "--seed", str(seed), "--seconds", "0",
                           "--trace", str(trace)))


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    whys = {w["name"]: w["why"] for w in doc["workloads"]}
    assert doc == catalog.benchmark_json(whys)
    assert set(whys) <= set(run.WORKLOADS)
    assert len(doc["per_layer"]) <= 128 and len(doc["end_to_end"]) <= 16


def test_smoke_untraced_reports_every_end_to_end_metric():
    result = smoke(seed=5, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(catalog.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = smoke(seed=6, trace=1), smoke(seed=6, trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(catalog.PER_LAYER)
    for name in catalog.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", "toy-train", "--seed", "1", "--seconds", "1",
                     "--trace", "0", root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""


def test_repeated_chain_reads_the_first_round_checkpoint(tmp_path):
    root, first, again = str(tmp_path), str(tmp_path / "round0"), str(tmp_path / "repeat")
    jobs = run.round_plan(root, again, models=first)
    assert [job.stage for job in jobs] == list(run.CHAIN)
    extract = jobs[0].argv
    assert extract[extract.index("--model") + 1] == run.checkpoint(first, run.SCORED)
    assert all(not arg.startswith(first) for job in jobs[1:] for arg in job.argv)


def test_self_time_subtracts_children_and_counted_calls():
    worker = {"spans": [["root", 0.0, 10.0, -1, "r", 0], ["child", 1.0, 4.0, 0, "r", 0]],
              "aggregates": [["r", 0, "leaf", 5, 2.0, 0], ["r", 1, "leaf", 1, 0.5, 0]]}
    table = run.self_times(worker)
    assert table["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert table["child"]["self_s"] == pytest.approx(3.0 - 0.5)
    assert table["leaf"]["count"] == 6


def test_counted_calls_are_opaque():
    tracer = Tracer()
    inner = tracer.wrap_span("inner", lambda: None)
    outer = tracer.wrap_count("outer", lambda: inner())
    with tracer.span("root"):
        outer()
        outer()
    assert [s[0] for s in tracer.spans] == ["root"]
    assert tracer.export()["aggregates"][0][2:4] == ["outer", 2]


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile(list(range(19))) is None
    assert run.high_percentile(list(range(20)))[0] == 50.0
    assert run.high_percentile(list(range(1000)))[0] == 99.0

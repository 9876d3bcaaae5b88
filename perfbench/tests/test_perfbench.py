"""Tests of the benchmark itself: names, tracing, digests and corpus.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import layermetrics  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PINNED_COMMIT = "b718b900b27ee5d1e4d442aea36669272ed67a05"


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _cli(argv):
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def test_metric_names_and_units_are_valid():
    bench = _benchmark()
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"]
                                            for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert {w["name"] for w in bench["workloads"]} == set(
        workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == layermetrics.PER_LAYER_UNITS
    for metric in bench["end_to_end"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _patched_state(tracer):
    return [(owner, name, original)
            for owner, name, original in tracer._patches]


def test_wrappers_are_restored_and_only_observe(tmp_path):
    import ast

    plain = _cli(["table2", "--samples", "1", "--seed", "3"])
    tracer = layertrace.LayerTracer(str(tmp_path))
    with tracer:
        patches = _patched_state(tracer)
        traced = _cli(["table2", "--samples", "1", "--seed", "3"])
        parent, _workers = tracer.collect()
    assert traced == plain
    assert parent.counters["simulation.kernel.events"] > 0
    assert parent.self_s["storage"] > 0
    assert len(patches) > 100
    for owner, name, original in patches:
        if original is layertrace._MISSING:
            assert name not in vars(owner), (owner, name)
        else:
            assert vars(owner)[name] is original, (owner, name)
    assert ast.parse.__module__ == "ast" and not hasattr(
        ast.parse, "__wrapped__")


def test_worker_spans_are_collected(tmp_path):
    from repro.experiments.runner import shutdown_pool

    plain = _cli(["table2", "--samples", "1", "--workers", "2",
                  "--seed", "3"])
    shutdown_pool()
    with layertrace.LayerTracer(str(tmp_path)) as tracer:
        tracer.reset()
        traced = _cli(["table2", "--samples", "1", "--workers", "2",
                       "--seed", "3"])
        shutdown_pool()
        parent, workers = tracer.collect()
    assert traced == plain
    assert workers.busy_s > 0
    assert workers.counters["simulation.kernel.events"] > 0
    assert parent.counters["simulation.kernel.events"] == 0
    assert tracer.runner_tasks == 6 and tracer.runner_pool_wait_s > 0


def test_self_time_excludes_nested_spans_and_suspension(tmp_path):
    now = [0.0]
    tracer = layertrace.LayerTracer(str(tmp_path), clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 3.0

    def process():
        now[0] += 1.0
        yield "first"
        now[0] += 5.0

    traced_inner = tracer._span_wrapper(inner, "b", "inner")
    tracer._span_wrapper(outer, "a", "outer")()
    generator = tracer._span_wrapper(process, "g", "process")()
    assert next(generator) == "first"
    now[0] += 100.0  # suspended in the event queue: nobody's time
    with pytest.raises(StopIteration):
        next(generator)
    assert dict(tracer.stats.self_s) == {"a": 4.0, "b": 2.0, "g": 6.0}
    assert tracer.stats.calls["outer"] == 1
    assert tracer.stats.inclusive_s["outer"] == 6.0


class _Fixed(workloads.Workload):
    name = "fixed"

    def iterate(self):
        return "artifact"


def test_digest_mismatch_counts_as_failure(tmp_path):
    wrong = run.Harness(_Fixed(0, str(tmp_path)), workloads.digest("other"))
    wrong.iteration()
    assert (wrong.attempted, wrong.failed) == (1, 1)
    right = run.Harness(_Fixed(0, str(tmp_path)),
                        workloads.digest("artifact"))
    right.iteration()
    right.iteration()
    assert (right.attempted, right.failed) == (2, 0)


def test_digests_cover_the_default_and_held_out_seed():
    expected = workloads.load_expected()
    for name in workloads.WORKLOADS:
        assert set(expected[name]["digests"]) == {"42", "7"}, name


def test_analysis_corpus_resolves_to_the_pinned_tree(tmp_path):
    gate = workloads.AnalysisGate(0, str(tmp_path))
    gate.prepare()
    package = gate.corpus_package
    try:
        assert os.path.basename(package) == "repro"
        assert os.path.isfile(os.path.join(package, "analysis", "cli.py"))
        tree = workloads.git_tree_id(package)
        assert tree == workloads.load_expected()["analysis_gate"][
            "corpus_tree"]
    finally:
        gate.cleanup()
    assert not os.path.exists(package)
    git = shutil.which("git")
    if git is None or not os.path.exists(os.path.join(ROOT, ".git")):
        pytest.skip("no git checkout to compare the corpus with")
    pinned = subprocess.run([git, "rev-parse", PINNED_COMMIT + ":src/repro"],
                            cwd=ROOT, capture_output=True, text=True)
    if pinned.returncode != 0:
        pytest.skip("pinned commit not in this clone")
    assert pinned.stdout.strip() == tree


def test_benchmark_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(BENCH_DIR, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vm_overhead",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout

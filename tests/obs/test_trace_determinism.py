"""End-to-end traced scenarios: coverage and byte-level determinism.

This is the `make check` smoke test the observability issue asks for:
the table2 scenario, traced twice at the same seed, must export
byte-identical Chrome trace JSON containing spans for all six session
life-cycle steps.
"""

import json

import pytest

from repro.obs import TraceRecorder, chrome_trace_json, export_chrome_trace
from repro.scenarios import LIFECYCLE, run_scenario
from repro.simulation import SimulationError


def traced_json(name, seed):
    recorder = TraceRecorder()
    run_scenario(name, seed=seed, tracer=recorder)
    return chrome_trace_json(recorder), recorder


def test_table2_trace_is_byte_identical_across_runs():
    text1, _rec1 = traced_json("table2", seed=42)
    text2, _rec2 = traced_json("table2", seed=42)
    assert text1 == text2


def test_table2_trace_contains_all_six_lifecycle_steps():
    text, recorder = traced_json("table2", seed=42)
    doc = json.loads(text)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    step_names = sorted({e["name"] for e in spans
                         if e["name"].startswith("step ")})
    assert [n.split(":")[0] for n in step_names] == [
        "step 1", "step 2", "step 3", "step 4", "step 5", "step 6"]
    # Every span was closed: an open span is an instrumentation bug.
    assert recorder.open_spans() == []


def test_trace_covers_every_instrumented_layer():
    text, _recorder = traced_json("table2", seed=42)
    doc = json.loads(text)
    categories = {e.get("cat") for e in doc["traceEvents"]
                  if e["ph"] == "X"}
    assert {"session", "vmm", "storage", "net", "sched"} <= categories


def test_different_seeds_may_differ_but_both_complete():
    text_a, rec_a = traced_json("table2", seed=1)
    text_b, rec_b = traced_json("table2", seed=2)
    # GRAM jitter depends on the seed, so the timelines differ...
    assert text_a != text_b
    # ... but both runs drive the full life cycle.
    assert rec_a.open_spans() == [] and rec_b.open_spans() == []


@pytest.mark.parametrize("name", LIFECYCLE)
def test_every_scenario_runs_and_records_metrics(name):
    sim = run_scenario(name, seed=0)
    assert sim.metrics.names("session.") != []
    assert sim.metrics.names("storage.") != []
    # The untraced run used the null tracer throughout.
    assert sim._tracing is False


def test_trace_experiment_writes_loadable_file(tmp_path):
    out = tmp_path / "trace.json"
    recorder = TraceRecorder()
    sim = run_scenario("table2", seed=42, tracer=recorder)
    count = export_chrome_trace(recorder, str(out))
    doc = json.loads(out.read_text())
    assert len(doc["traceEvents"]) == count > 0
    assert sim.now > 0


def test_unknown_scenario_rejected():
    with pytest.raises(SimulationError):
        run_scenario("table9")

"""The `repro trace` / `metrics` / `profile` CLI commands."""

import json

import pytest

from repro.cli import main


def test_trace_command_writes_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "table2", "--seed", "42",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    printed = capsys.readouterr().out
    assert str(out) in printed


def test_trace_command_is_deterministic(tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    main(["trace", "table2", "--seed", "42", "--out", str(one)])
    main(["trace", "table2", "--seed", "42", "--out", str(two)])
    assert one.read_bytes() == two.read_bytes()


def test_metrics_command_prints_table(capsys):
    assert main(["metrics", "figure1"]) == 0
    out = capsys.readouterr().out
    assert "session.step1.duration" in out
    assert "vmm.boot.duration" in out


def test_metrics_command_json(capsys):
    assert main(["metrics", "figure1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # Session metrics are keyed by the compute host's partition.
    assert payload["session.step6.duration[uf]"]["count"] == 1
    assert "p95" in payload["session.step6.duration[uf]"]


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    return lines[0]


def test_trace_requires_target(capsys):
    assert main(["trace"]) == 2
    assert "table1, figure1, table2" in _one_error_line(capsys)


def test_trace_rejects_unknown_target(capsys):
    assert main(["trace", "table9"]) == 2
    assert "'table9'" in _one_error_line(capsys)


def test_profile_command_prints_hot_functions(capsys):
    assert main(["profile", "table2", "--samples", "1", "--seed", "42",
                 "--top", "30"]) == 0
    out = capsys.readouterr().out
    # The real artifact ran, then its profile.
    assert "Table 2: VM startup times via globusrun" in out
    assert "profile: table2, seed 42" in out
    assert "cumulative" in out
    assert "startup_sample" in out


def test_profile_requires_target(capsys):
    assert main(["profile"]) == 2
    assert "migration" in _one_error_line(capsys)

"""Bad CLI input exits 2 with one ``error:`` line and no traceback."""

import pytest

from repro.cli import main


@pytest.mark.parametrize("argv, message", [
    (["table2", "--samples", "0"], "samples must be >= 1"),
    (["fleet", "--shards", "0"], "shards must be >= 1"),
    (["table2", "--samples", "1", "--workers", "0"],
     "workers must be >= 1, got 0"),
    (["table2", "--samples", "1", "--workers", "-3"],
     "workers must be >= 1, got -3"),
    (["fleet", "--workers", "0"], "workers must be >= 1"),
    (["fleet", "--seed", "42", "--sessions", "10"],
     "exceeds the 768 MB guest budget"),
    (["table2", "--samples", "2", "--shards", "4"], "--workers"),
    (["figure1", "--samples", "1", "--shards", "2"], "--workers"),
    (["record", "table2", "--shards", "3"], "--workers"),
    (["figure1", "--samples", "0"], "samples must be >= 1"),
    (["figure1", "--samples", "-3"], "samples must be >= 1"),
    (["table1", "--scale", "abc"], "--scale must be a number"),
    (["trace", "fleet"], "one of: table1, figure1, table2"),
    (["metrics", "fleet"], "one of: table1, figure1, table2"),
    (["record", "fleet"], "one of: table1, figure1, table2"),
    (["report", "ablations"], "one of: table1, figure1, table2"),
    (["sanitize", "overlay"], "one of: table1, figure1, table2"),
    (["profile", "table9"], "one of: table1, figure1, table2, fleet"),
], ids=["table2-samples0", "fleet-shards0", "table2-workers0",
        "table2-workers-negative", "fleet-workers0", "fleet-overfull",
        "table2-shards", "figure1-shards", "record-shards",
        "figure1-samples0", "figure1-samples-negative", "table1-scale-abc",
        "trace-fleet", "metrics-fleet", "record-fleet", "report-ablations",
        "sanitize-overlay", "profile-unknown"])
def test_bad_input_exits_2_with_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert message in lines[0]

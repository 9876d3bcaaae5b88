"""Dedicated parallel-determinism tests: workers=1 vs workers=N.

Everything else in the suite runs sequentially (``workers=1`` is the
default everywhere); these tests are the main place the warm worker
group is exercised, asserting the runner's central claim: results,
rendered tables and Chrome traces are byte-identical for any worker
count.  See ``docs/performance.md``.
"""

from repro import cli
from repro.experiments.figure1 import run_figure1
from repro.experiments.runner import (
    merge_accumulators,
    replication_seeds,
    run_replications,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.simulation.monitor import StatAccumulator

#: More workers than the scheduler has to give on a small CI box —
#: oversubscription must not matter, that is the point.
WORKERS = 4


def _cli_output(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


# -- result-object identity --------------------------------------------------

def test_figure1_workers_match_sequential():
    kwargs = {"samples": 2, "test_seconds": 1.0, "seed": 42}
    sequential = run_figure1(workers=1, **kwargs)
    parallel = run_figure1(workers=WORKERS, **kwargs)
    # Dataclasses of floats: == is exact bitwise equality per statistic.
    assert sequential == parallel


def test_table1_workers_match_sequential():
    sequential = run_table1(scale=0.05, seed=7, workers=1)
    parallel = run_table1(scale=0.05, seed=7, workers=WORKERS)
    assert sequential == parallel


def test_table2_workers_match_sequential():
    sequential = run_table2(samples=2, seed=42, workers=1)
    parallel = run_table2(samples=2, seed=42, workers=WORKERS)
    assert sequential == parallel


# -- rendered-artifact identity ----------------------------------------------

def test_table2_cli_bytes_identical(capsys):
    argv = ["table2", "--samples", "2", "--seed", "42"]
    sequential = _cli_output(capsys, argv + ["--workers", "1"])
    parallel = _cli_output(capsys, argv + ["--workers", str(WORKERS)])
    assert sequential == parallel


def test_figure1_cli_bytes_identical(capsys):
    argv = ["figure1", "--samples", "2", "--seed", "42"]
    sequential = _cli_output(capsys, argv + ["--workers", "1"])
    parallel = _cli_output(capsys, argv + ["--workers", str(WORKERS)])
    assert sequential == parallel


def test_trace_unperturbed_by_pool_dispatch(tmp_path):
    """A traced run after a parallel fan-out matches one after a
    sequential fan-out: pool machinery leaves no residue in the
    process that could reach the tracer's world."""
    out = []
    for label, workers in (("seq", 1), ("par", WORKERS)):
        run_figure1(samples=1, test_seconds=1.0, seed=42, workers=workers)
        path = tmp_path / ("trace-%s.json" % label)
        assert cli.main(["trace", "figure1", "--seed", "42",
                         "--out", str(path)]) == 0
        out.append(path.read_bytes())
    assert out[0] == out[1]


# -- runner primitives -------------------------------------------------------

def _add_pair(a, b):  # module-level: must cross the pickle boundary
    return a + b


def test_run_replications_order_independent_of_workers():
    tasks = [(i, i * i) for i in range(16)]
    assert run_replications(_add_pair, tasks, workers=1) \
        == run_replications(_add_pair, tasks, workers=WORKERS)


def test_replication_seeds_pure_function_of_root_seed():
    first = replication_seeds(42, "fig1", 8)
    assert first == replication_seeds(42, "fig1", 8)
    assert len(set(first)) == len(first)  # independent children
    assert first[:4] == replication_seeds(42, "fig1", 4)  # prefix-stable
    assert first != replication_seeds(43, "fig1", 8)
    assert first != replication_seeds(42, "table2", 8)


def test_merge_accumulators_is_deterministic():
    parts = []
    for index, seed in enumerate(replication_seeds(7, "merge", 5)):
        acc = StatAccumulator("part%d" % index)
        acc.add(float(seed % 1000))
        acc.add(float(seed % 97))
        parts.append(acc)
    a = merge_accumulators(parts, name="total")
    b = merge_accumulators(parts, name="total")
    assert (a.count, a.mean, a.stdev, a.minimum, a.maximum) \
        == (b.count, b.mean, b.stdev, b.minimum, b.maximum)
    assert a.count == 10


def test_workers_zero_and_none_mean_sequential():
    tasks = [(1, 2), (3, 4)]
    expected = [3, 7]
    assert run_replications(_add_pair, tasks, workers=0) == expected
    assert run_replications(_add_pair, tasks, workers=None) == expected

"""Table 2 rows must not depend on how their worlds are spread out.

Every Table 2 sample is a pure function of its task tuple, so the rows
are the same whether the worlds run in-process, strided unevenly over
the warm worker group, or through the CLI with the only ``--shards``
value a table command accepts.  Dataclass equality on floats is exact,
so these comparisons are bitwise.
"""

from repro import cli
from repro.experiments.table2 import run_table2, table2_tasks
from repro.simulation.workerpool import shutdown_warm_group

_SAMPLES = 2


def teardown_module(_module):
    shutdown_warm_group()


def test_table2_rows_identical_across_shard_counts_and_models(capsys):
    reference = run_table2(samples=_SAMPLES, seed=42)
    # 12 tasks over 5 workers: the strided split hands out 3,3,2,2,2,
    # so uneven per-worker slices must still reassemble in task order.
    assert len(table2_tasks(_SAMPLES, 42)) % 5 != 0
    for workers in (2, 5):
        rows = run_table2(samples=_SAMPLES, seed=42, workers=workers)
        assert rows == reference, workers
    argv = ["table2", "--samples", str(_SAMPLES), "--seed", "42"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    assert cli.main(argv + ["--shards", "1"]) == 0
    assert capsys.readouterr().out == plain

"""Warm worker-group reuse must be invisible in experiment results.

The replication runner keeps one persistent worker group warm across
experiment stages (see ``repro.experiments.runner`` and
``repro.simulation.workerpool``).  A reused worker process carries
everything a previous task left behind at module or class level, so
any process-global model state would let one replication bleed into
the next.  These tests pin the contract: the same tasks produce
byte-for-byte identical results whether they run

* sequentially in this process (the historical reference path),
* on the warm group, reused across two consecutive stages,
* on a throwaway group with one fresh process per task — a genuinely
  new interpreter for every replication, the strictest baseline.
"""

from __future__ import annotations

import struct

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    replication_seeds,
    run_replications,
    shutdown_pool,
)
from repro.experiments.table2 import startup_sample
from repro.simulation import workerpool


def _tasks():
    seeds = replication_seeds(42, "pool-isolation", 3)
    tasks = [("restore", "nonpersistent-diskfs", seed) for seed in seeds]
    tasks.append(("reboot", "persistent", seeds[0]))
    return tasks


def _as_bytes(values):
    """Exact byte encoding: equality below means bit-for-bit floats."""
    return struct.pack("<%dd" % len(values), *values)


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    shutdown_pool()
    yield
    shutdown_pool()


def test_pool_reuse_matches_fresh_processes():
    tasks = _tasks()
    sequential = [startup_sample(*task) for task in tasks]

    # Strictest reference: every task in a brand-new worker process.
    throwaway = workerpool.PersistentWorkerGroup(
        len(tasks), runner._replication_main)
    try:
        fresh = [reply[0] for reply in throwaway.roundtrip(
            [(index, (startup_sample, [task]))
             for index, task in enumerate(tasks)])]
    finally:
        throwaway.shutdown()

    # The warm group, exercised across two stages so the second stage
    # runs in workers that already executed the first stage's worlds.
    first = run_replications(startup_sample, tasks, workers=2)
    group_after_first = workerpool._GROUP
    second = run_replications(startup_sample, tasks, workers=2)

    assert workerpool._GROUP is group_after_first, \
        "second stage should reuse the warm group, not rebuild it"
    assert _as_bytes(first) == _as_bytes(sequential)
    assert _as_bytes(second) == _as_bytes(sequential)
    assert _as_bytes(fresh) == _as_bytes(sequential)


def test_worker_count_change_rebuilds_pool_and_preserves_results():
    tasks = _tasks()
    sequential = [startup_sample(*task) for task in tasks]

    two = run_replications(startup_sample, tasks, workers=2)
    group_two = workerpool._GROUP
    three = run_replications(startup_sample, tasks, workers=3)

    assert workerpool._GROUP is not group_two
    assert not group_two.alive
    assert workerpool._GROUP.size == 3
    assert _as_bytes(two) == _as_bytes(sequential)
    assert _as_bytes(three) == _as_bytes(sequential)


def test_shutdown_resets_worker_count():
    run_replications(startup_sample, _tasks()[:2], workers=2)
    group = workerpool._GROUP
    assert group.size == 2 and group.alive
    shutdown_pool()
    assert workerpool._GROUP is None
    assert not group.alive

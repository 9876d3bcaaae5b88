"""Deterministic parallel replication runner.

The paper's quantitative artifacts are embarrassingly parallel: every
replication (a Figure 1 scenario, one Table 2 startup sample, one
ablation world) builds its own :class:`~repro.simulation.kernel.
Simulation` from its own seed and never touches another replication's
state.  This module fans those replications across the warm worker
group of :mod:`repro.simulation.workerpool` while keeping the repo's
hard determinism invariant: **the results are a pure function of the
root seed** — never of the worker count, worker identity, host core
count or completion order.

Three rules make that true:

* **Seeds come from the task, not the worker.**  Each replication's
  seed is supplied by the caller (or derived with
  :func:`replication_seeds` from :meth:`RandomStreams.spawn_key`),
  indexed by the replication's position.  Nothing here reads
  ``os.cpu_count()`` or a worker id — simlint rule R10 enforces this
  repo-wide.
* **Results come back in task order.**  :func:`run_replications`
  returns results indexed like its task list regardless of which
  worker finished first, so downstream accumulation is identical to a
  sequential run.
* **Statistics fold in a fixed order.**  :func:`merge_accumulators`
  folds per-replication :class:`StatAccumulator` parts left-to-right
  in task order via the Chan parallel-variance ``merge``, so the same
  parts always produce the same bits.  (The experiment drivers that
  predate this runner feed raw per-replication samples to their
  accumulators in task order instead — same guarantee, and bit-compatible
  with their historical sequential outputs.)

``workers=1`` (the default everywhere) never touches
:mod:`multiprocessing` at all, so existing entry points behave exactly
as before.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.simulation.monitor import StatAccumulator
from repro.simulation.randomness import RandomStreams
from repro.simulation.workerpool import shutdown_warm_group, warm_group

__all__ = ["run_replications", "replication_seeds", "merge_accumulators",
           "shutdown_pool"]

#: The runner's teardown name: its pool is the warm worker group.
shutdown_pool = shutdown_warm_group


def _replication_main(request: Tuple[Callable[..., Any], List[Tuple]]
                      ) -> List[Any]:
    """Worker main: run one slice of tasks, results in slice order."""
    fn, tasks = request
    return [fn(*task) for task in tasks]


def replication_seeds(root_seed: int, name: str, count: int) -> List[int]:
    """One independent child seed per replication.

    Derived from :meth:`RandomStreams.spawn_key` under the
    ``name/index`` key, so the i-th replication of an experiment draws
    the same stream no matter how many workers run it, which other
    experiments share the root seed, or which worker picks it up.
    """
    streams = RandomStreams(root_seed)
    return [streams.spawn_key("%s/%d" % (name, index))
            for index in range(count)]


def run_replications(fn: Callable[..., Any],
                     tasks: Sequence[Tuple],
                     workers: int = 1) -> List[Any]:
    """Run ``fn(*task)`` for every task; results in task order.

    ``fn`` must be a module-level callable and every task an argument
    tuple (both cross the process boundary when ``workers > 1``).  With
    ``workers <= 1`` the tasks run sequentially in-process — no
    processes, no pickling, bit-for-bit the historical code path.  With
    more, the warm :class:`~repro.simulation.workerpool.
    PersistentWorkerGroup` of ``workers`` processes — created once and
    reused across calls until the worker count changes — takes the
    tasks strided (worker ``w`` runs ``tasks[w::workers]``) in one
    round trip, and the replies are interleaved back into task order.

    A worker that raises or dies fails the call with
    :class:`~repro.simulation.workerpool.WorkerGroupError` and the group
    is torn down; the next call builds a fresh one.

    The worker count bounds *wall-clock concurrency only*; it must
    never reach the model (simlint R10 flags attempts).
    """
    tasks = [tuple(task) for task in tasks]
    if workers is None or workers <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    group = warm_group(workers, _replication_main)
    try:
        replies = group.roundtrip([(w, (fn, tasks[w::workers]))
                                   for w in range(workers)])
    except BaseException:
        # An interrupted round trip leaves replies in flight: never
        # reuse the group.
        shutdown_warm_group()
        raise
    results: List[Any] = [None] * len(tasks)
    for w, reply in enumerate(replies):
        results[w::workers] = reply
    return results


def merge_accumulators(parts: Sequence[StatAccumulator],
                       name: str = "") -> StatAccumulator:
    """Fold per-replication accumulators in task order.

    Uses :meth:`StatAccumulator.merge` (Chan et al. parallel variance),
    folding left-to-right over ``parts`` — a fixed order, so the result
    is byte-identical for any worker count that produced the parts.
    """
    total = StatAccumulator(name or (parts[0].name if parts else ""))
    for part in parts:
        total.merge(part)
    return total

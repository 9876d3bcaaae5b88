"""Warm process-worker infrastructure shared by the parallel drivers.

Both parallel drivers in this repo run on one
:class:`PersistentWorkerGroup` of pipe-connected workers:

* the replication runner (:mod:`repro.experiments.runner`) sends each
  worker one strided slice of *independent* tasks per call;
* the sharded engine (:mod:`repro.simulation.sharded`) keeps
  *stateful* workers alive across barrier rounds — each worker owns
  built simulation worlds that cannot cross a process boundary.

Both want the same warm-group economics (spawning processes per run
costs a fork plus interpreter warm-up each) and the same teardown
discipline (exactly one ``atexit`` hook, reset on failure).  This
module holds those pieces: a process-wide shutdown registry, the
worker group, and a warm cache of one group keyed by (worker main,
size).

Everything here is deliberately process *infrastructure*, not model
state: workers receive every input by message and return results by
message, so reuse cannot couple simulated worlds
(tests/experiments/test_pool_state_isolation.py holds the proof).  A
worker that raises or dies fails the round trip with
:class:`WorkerGroupError` and the group is shut down, never reused.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["PersistentWorkerGroup", "register_shutdown", "shutdown_all",
           "warm_group", "shutdown_warm_group"]

#: Idempotent teardown callbacks, run once at interpreter exit.  Filled
#: through register_shutdown() only.
_SHUTDOWNS: List[Callable[[], None]] = []  # simlint: disable=R15  process infrastructure: teardown callbacks, not model state
_ATEXIT_INSTALLED = False  # simlint: disable=R15  one-shot latch for the atexit hook


def register_shutdown(callback: Callable[[], None]) -> None:
    """Run ``callback`` at interpreter exit (and from :func:`shutdown_all`).

    The ``atexit`` hook is installed once per process no matter how
    many callbacks register; callbacks must be idempotent.
    """
    global _ATEXIT_INSTALLED
    if callback not in _SHUTDOWNS:
        _SHUTDOWNS.append(callback)
    if not _ATEXIT_INSTALLED:
        import atexit

        atexit.register(shutdown_all)
        _ATEXIT_INSTALLED = True


def shutdown_all() -> None:
    """Run every registered teardown callback (idempotent)."""
    for callback in list(_SHUTDOWNS):
        callback()


def _worker_loop(main: Callable, conn) -> None:
    """The worker process body: serve requests until told to exit.

    ``main(request)`` handles one request and returns a picklable
    reply.  Exceptions are caught and shipped back as ``("error",
    repr, traceback)`` so the coordinator can re-raise with context
    instead of hanging on a dead pipe.
    """
    import traceback

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:  # orderly exit sentinel
            break
        try:
            reply = ("ok", main(request))
        except BaseException as exc:  # ship the failure, keep serving
            reply = ("error", repr(exc), traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class WorkerGroupError(RuntimeError):
    """A worker failed or the group can no longer be trusted."""


class PersistentWorkerGroup:
    """N pipe-connected worker processes serving requests until shut down.

    Workers may hold state between requests (the sharded engine parks
    built simulation worlds in them), so requests are addressed to a
    *specific* worker and the group never rebalances.  The request/reply protocol is strictly
    lock-step per worker: :meth:`send` then :meth:`recv`, or the
    :meth:`roundtrip` convenience that scatters to several workers and
    gathers in index order — which is what keeps coordinator-side
    fold order deterministic.
    """

    def __init__(self, size: int, main: Callable):
        import multiprocessing

        if size < 1:
            raise WorkerGroupError("worker group needs >= 1 worker")
        self.size = size
        self.main = main
        self._procs = []
        self._conns = []
        for _index in range(size):
            ours, theirs = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_worker_loop, args=(main, theirs), daemon=True)
            proc.start()
            theirs.close()
            self._procs.append(proc)
            self._conns.append(ours)
        self._alive = True

    @property
    def alive(self) -> bool:
        """False once the group was shut down or poisoned."""
        return self._alive

    def send(self, worker: int, request: Any) -> None:
        """Dispatch one request to one worker (non-blocking)."""
        if not self._alive:
            raise WorkerGroupError("worker group is shut down")
        try:
            self._conns[worker].send(request)
        except (BrokenPipeError, OSError) as exc:
            self.shutdown()
            raise WorkerGroupError("worker %d pipe broke: %r"
                                   % (worker, exc))

    def recv(self, worker: int) -> Any:
        """Collect one reply from one worker (blocking).

        Re-raises worker-side failures as :class:`WorkerGroupError`
        carrying the remote traceback; a failed group is shut down and
        never reused.
        """
        try:
            reply = self._conns[worker].recv()
        except (EOFError, OSError) as exc:
            self.shutdown()
            raise WorkerGroupError("worker %d died: %r" % (worker, exc))
        if reply[0] == "error":
            self.shutdown()
            raise WorkerGroupError(
                "worker %d failed: %s\n%s" % (worker, reply[1], reply[2]))
        return reply[1]

    def roundtrip(self, requests: Sequence[Tuple[int, Any]]) -> List[Any]:
        """Scatter ``(worker, request)`` pairs, gather replies in order.

        All requests go out before any reply is read, so workers run
        concurrently; replies come back indexed like ``requests``
        regardless of completion order, which is what keeps results in
        task order for the replication runner.
        """
        for worker, request in requests:
            self.send(worker, request)
        return [self.recv(worker) for worker, _request in requests]

    def shutdown(self) -> None:
        """Terminate the workers (idempotent)."""
        if not self._alive:
            return
        self._alive = False
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._procs = []
        self._conns = []

    def __repr__(self) -> str:
        return "<PersistentWorkerGroup size=%d %s>" % (
            self.size, "alive" if self._alive else "shut down")


#: The warm group, reused across replication calls and sharded runs
#: until the size or worker main changes.
_GROUP: Optional[PersistentWorkerGroup] = None  # simlint: disable=R15  process infrastructure; workers exchange state only by message
_GROUP_KEY: Optional[Tuple[int, Any]] = None  # simlint: disable=R15  paired with _GROUP above


def warm_group(size: int, main: Callable) -> PersistentWorkerGroup:
    """The shared worker group for ``(size, main)``, created on demand."""
    global _GROUP, _GROUP_KEY
    key = (size, main)
    if _GROUP is not None and (_GROUP_KEY != key or not _GROUP.alive):
        shutdown_warm_group()
    if _GROUP is None:
        _GROUP = PersistentWorkerGroup(size, main)
        _GROUP_KEY = key
        register_shutdown(shutdown_warm_group)
    return _GROUP


def shutdown_warm_group() -> None:
    """Tear down the warm worker group (no-op when none is running)."""
    global _GROUP, _GROUP_KEY
    if _GROUP is not None:
        _GROUP.shutdown()
        _GROUP = None
        _GROUP_KEY = None

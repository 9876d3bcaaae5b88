"""A replication worker killed mid-run fails the call cleanly.

SIGKILL one worker while ``run_replications(..., workers=2)`` waits on
it: the call must raise :class:`WorkerGroupError` promptly, leave no
child process behind, and the next call must build a fresh group and
return correct results.  The scenario runs in a subprocess under a
timeout, so a runner that hangs on a dead worker fails this test
instead of hanging the suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Hard ceiling for the whole subprocess; a hang shows up as a timeout.
TIMEOUT_S = 60.0
#: How quickly the dead worker must be reported.
PROMPT_S = 10.0


def square_or_die(value: int) -> int:
    """Replication task: SIGKILL the worker running it when ``value < 0``."""
    if value < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


_SCENARIO = textwrap.dedent("""
    import multiprocessing
    import time

    from repro.experiments.runner import run_replications
    from repro.simulation import workerpool
    from repro.simulation.workerpool import WorkerGroupError
    from tests.experiments.test_worker_death import square_or_die

    # Strided split: worker 1 gets tasks[1::2] and dies on the first.
    tasks = [(0,), (-1,), (2,), (3,)]
    started = time.monotonic()
    try:
        run_replications(square_or_die, tasks, workers=2)
    except WorkerGroupError as exc:
        print("raised %.3f %s" % (time.monotonic() - started, exc))
    else:
        raise SystemExit("no WorkerGroupError")
    dead = workerpool._GROUP
    print("children %d" % len(multiprocessing.active_children()))
    results = run_replications(square_or_die, [(v,) for v in range(5)],
                               workers=2)
    print("results %s" % (results,))
    print("fresh %s" % (workerpool._GROUP is not dead
                        and workerpool._GROUP.alive))
""")


def test_killed_worker_raises_cleanly_and_next_call_recovers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _SCENARIO], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    elapsed = float(lines["raised"].split()[0])
    assert elapsed < PROMPT_S
    assert "worker 1 died" in lines["raised"]
    assert lines["children"] == "0"
    assert lines["results"] == "[0, 1, 4, 9, 16]"
    assert lines["fresh"] == "True"

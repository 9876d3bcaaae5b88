"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vm_overhead --seed 42 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` runs the workload untraced and then traced, checks the
two artifacts are byte-identical and reports the per-layer metrics.
Readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")

#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_SPAWNS = 7
#: Timed iterations a run makes at least, however long they take.
MIN_ITERATIONS = 3
#: Share of a traced run's time given to its untraced half.
UNTRACED_SHARE = 0.4

#: A bound on iterations, for a program that fails at once every time.
MAX_ITERATIONS = 500

#: Units of the end-to-end metrics of the result line.
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _median_quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def host_fingerprint() -> Dict[str, Any]:
    """What every number is recorded with: cores, Python, code version."""
    from workloads import git_tree_id

    commit = None
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"cores": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit,
            "src_tree": git_tree_id(os.path.join(SRC, "repro")),
            "loadavg_start": list(os.getloadavg())}


def setup_probe(workload):
    """A callable timing one fresh process until the workload is ready.

    The child imports what the workload imports, starts its worker
    processes if it has any, then reports ready; worker shutdown and
    interpreter exit happen after the clock stops.
    """
    code = ("import sys\nsys.path.insert(0, %r)\n" % SRC
            + "".join("import %s\n" % name for name in workload.imports)
            + workload.spawn_code
            + "print('ready', flush=True)\n")

    def spawn() -> float:
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                 stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        finally:
            child.stdout.close()
            status = child.wait(timeout=60)
        if line.strip() != "ready" or status != 0:
            raise RuntimeError("set-up child failed (status %r)" % status)
        return ready - started
    return spawn


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its live children."""
    import multiprocessing

    pids = [os.getpid()] + [child.pid for child
                            in multiprocessing.active_children()]
    peaks = []
    for pid in pids:
        try:
            with open("/proc/%d/status" % pid, encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peaks.append(int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    if not peaks:
        import resource

        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     / 1024.0)
    return max(peaks)


def stop_workers() -> None:
    """Shut down every warm pool and wait for each worker to end."""
    import multiprocessing

    from repro.simulation.workerpool import shutdown_all

    shutdown_all()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()


class Harness:
    """Runs iterations and keeps the correctness account."""

    def __init__(self, workload, expected: Optional[str]):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.first_digest: Optional[str] = None
        self.artifact: Optional[str] = None

    def _verdict(self, text: str) -> Optional[str]:
        from workloads import digest

        got = digest(text)
        if self.expected is not None and got != self.expected:
            return "digest %s does not match the committed %s" % (
                got[:12], self.expected[:12])
        if self.first_digest is None:
            self.first_digest = got
            self.artifact = text
        elif got != self.first_digest:
            return "output differs between iterations of one seed"
        return self.workload.check(text)

    def iteration(self) -> float:
        self.attempted += 1
        started = time.perf_counter()
        try:
            text = self.workload.iterate()
        except Exception as exc:  # an iteration that raises has failed
            elapsed = time.perf_counter() - started
            if not self.failed:
                traceback.print_exc()
            self.failed += 1
            self.reasons.append("raised %r" % (exc,))
            return elapsed
        elapsed = time.perf_counter() - started
        reason = self._verdict(text)
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
        return elapsed

    def timed(self, budget: float, min_iterations: int,
              between: Optional[Callable[[List[float]], None]] = None
              ) -> List[float]:
        """Iterate until another one would overrun ``budget`` seconds.

        ``between(times)`` runs after each iteration, off the budget.
        """
        times: List[float] = []
        while True:
            times.append(self.iteration())
            if between is not None:
                between(times)
            if len(times) >= MAX_ITERATIONS or (
                    len(times) >= min_iterations
                    and sum(times) + statistics.median(times) > budget):
                return times


def run_end_to_end(workload, harness: Harness, seconds: float,
                   lines: List[str]) -> Dict[str, float]:
    spawn = setup_probe(workload)
    setup: List[float] = []

    def between(times: List[float]) -> None:
        # Spread the set-up samples over the whole run, so a slow or
        # fast phase of the host does not decide them all.
        expected = max(MIN_ITERATIONS, seconds / statistics.median(times))
        due = math.ceil(SETUP_SPAWNS * len(times) / expected)
        while len(setup) < min(SETUP_SPAWNS, due):
            setup.append(spawn())

    workload.prepare()
    if workload.pooled:
        harness.iteration()  # starts the warm pool; set-up is timed apart
    times = harness.timed(seconds, MIN_ITERATIONS, between)
    while len(setup) < SETUP_SPAWNS:
        setup.append(spawn())
    rss = peak_rss_mb()
    wall, q1, q3 = _median_quartiles(times)
    setup_median, s1, s3 = _median_quartiles(setup)
    lines.append("wall_s          %10.4f s   median of %d iterations "
                 "(q1 %.4f, q3 %.4f)" % (wall, len(times), q1, q3))
    lines.append("setup_s         %10.4f s   median of %d fresh processes "
                 "(q1 %.4f, q3 %.4f)" % (setup_median, len(setup), s1, s3))
    lines.append("peak_rss_mb     %10.1f MB  largest of the parent and "
                 "its workers" % rss)
    return {"wall_s": wall, "setup_s": setup_median, "peak_rss_mb": rss}


def run_traced(workload, harness: Harness, seconds: float,
               lines: List[str]) -> Dict[str, float]:
    from layertrace import LayerTracer
    from layermetrics import layer_metrics

    workload.prepare()
    if workload.pooled:
        harness.iteration()
    untraced = harness.timed(seconds * UNTRACED_SHARE, 1)
    stop_workers()  # traced workers must fork from the traced parent
    dump_dir = tempfile.mkdtemp(prefix="trace-", dir=WORK_DIR)
    try:
        with LayerTracer(dump_dir) as tracer:
            if workload.pooled:
                harness.iteration()
            tracer.reset()
            budget = max(0.0, seconds * (1.0 - UNTRACED_SHARE))
            traced = harness.timed(budget, 1)
            stop_workers()
            parent, workers = tracer.collect()
        findings = (workload.finding_count(harness.artifact)
                    if harness.artifact is not None else None)
        metrics = layer_metrics(tracer, parent, workers, len(traced),
                                findings)
    finally:
        shutil.rmtree(dump_dir, ignore_errors=True)
    overhead = 100.0 * (statistics.median(traced)
                        / statistics.median(untraced) - 1.0)
    metrics["trace.overhead_pct"] = overhead
    lines.append("traced %d iteration(s), untraced %d; wall median "
                 "%.4f s traced against %.4f s untraced" % (
                     len(traced), len(untraced), statistics.median(traced),
                     statistics.median(untraced)))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program at %s; run from a full checkout"
              % os.path.join(SRC, "repro"), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, load_expected

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))),
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    host = host_fingerprint()
    workload = WORKLOADS[args.workload](args.seed, WORK_DIR)
    expected = load_expected()[args.workload].get("digests", {}) \
        .get(str(args.seed))
    harness = Harness(workload, expected)
    lines: List[str] = []
    try:
        if args.trace:
            metrics = run_traced(workload, harness, args.seconds, lines)
        else:
            metrics = run_end_to_end(workload, harness, args.seconds, lines)
    finally:
        stop_workers()
        workload.cleanup()
    host["loadavg_end"] = list(os.getloadavg())
    error_rate = harness.failed / max(1, harness.attempted)
    lines.append("error_rate      %10.4f     %d of %d iteration(s) failed"
                 % (error_rate, harness.failed, harness.attempted))
    mape = (workload.paper_mape_pct(harness.artifact)
            if harness.artifact is not None else None)
    if mape is not None:
        lines.append("paper_mape_pct  %10.4f %%   against the paper's "
                     "published cells (simulated statistic)" % mape)
    print("perfbench %s seed=%d trace=%d digest=%s" % (
        args.workload, args.seed, args.trace,
        "committed" if expected else "not committed for this seed"))
    print("host %s" % json.dumps(host, sort_keys=True))
    for line in lines:
        print(line)
    for reason in sorted(set(harness.reasons)):
        print("failure: %s" % reason)
    units = UNITS
    if args.trace:
        from layermetrics import PER_LAYER_UNITS

        units = PER_LAYER_UNITS
        for name in sorted(metrics):
            print("%-44s %16.6f %s" % (name, metrics[name], units[name]))
    result = {"correct": harness.failed == 0,
              "attempted": harness.attempted,
              "failed": harness.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

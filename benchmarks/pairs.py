"""Alternating perfbench pairs: the working tree against ``HEAD``.

Usage (from the repository root)::

    python3 benchmarks/pairs.py --workload vm_startup --pairs 6

or ``make bench-pairs W=vm_startup N=6``.  ``HEAD``, the commit the
working tree's edits sit on, is exported with ``git archive`` into a
temporary directory, so an interrupted run leaves nothing behind in the
repository.  Each pair runs::

    python3 perfbench/run.py --workload W --seed 42 --seconds 20 --trace 0

once in each tree, the base first on even pairs and the working tree
first on odd ones, so a drift in host load charges both sides alike.
One line per pair gives ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
``correct`` for both sides; the medians and the number of pairs the
working tree won on ``wall_s`` close the report; each median comes
with the quartiles of that side's runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
BASE = "HEAD"
SECONDS = 20.0


def export_tree(rev: str, into: str) -> None:
    """Write the files of commit ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout,
                   check=True)


def run_once(tree: str, workload: str, seed: int) -> Dict[str, object]:
    """One perfbench run in ``tree``: its metrics and ``correct``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit("pairs: perfbench failed in %s (exit %d)\n%s"
                         % (tree, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    row: Dict[str, object] = {name: result["metrics"][name]["value"]
                              for name in METRICS}
    row["correct"] = result["correct"] and result["failed"] == 0
    return row


def summary(values: List[float]) -> Tuple[float, str]:
    """The median, and the median with its quartiles as text."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, "%.4f" % median
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, "%.4f [%.4f, %.4f]" % (median, q1, q3)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    base_dir = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        export_tree(BASE, base_dir)
        sides = {"base": base_dir, "tree": ROOT}
        runs: Dict[str, List[Dict[str, object]]] = {"base": [], "tree": []}
        print("pair  first  %-32s  %-32s" % (
            "base: wall setup rss correct", "tree: wall setup rss correct"))
        for pair in range(args.pairs):
            order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload,
                                           args.seed))
            print("%4d  %-5s  %s  %s" % (
                pair, order[0], *(
                    "%8.3f %6.3f %7.2f %-5s" % (
                        *(runs[side][-1][name] for name in METRICS),
                        runs[side][-1]["correct"])
                    for side in ("base", "tree"))))
        for name in METRICS:
            base, tree = (summary([r[name] for r in runs[side]])
                          for side in ("base", "tree"))
            print("median %-12s base %s  tree %s  ratio %.3f"
                  % (name, base[1], tree[1], base[0] / tree[0]))
        wins = sum(t["wall_s"] < b["wall_s"]
                   for b, t in zip(runs["base"], runs["tree"]))
        print("tree won wall_s in %d of %d pairs (base %s, workload %s, "
              "seed %d)" % (wins, args.pairs, BASE, args.workload,
                            args.seed))
        correct = all(r["correct"] for side in runs.values() for r in side)
        return 0 if correct else 1
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

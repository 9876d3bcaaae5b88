"""The benchmark's four workloads, each driven through a public entry point.

Every workload turns a seed into inputs, runs one *iteration* and
returns the iteration's artifact -- the text the entry point printed --
which the harness checks against committed digests.  Why each workload
exists (the layers it loads and the layers it bypasses) is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tarfile
import tempfile
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CORPUS_ARCHIVE = os.path.join(HERE, "corpus", "src-repro.tar.gz")

#: Paper cells (EXPERIMENTS.md): Table 1 user+sys totals in row order,
#: Table 2 mean start-up times in row order.
PAPER_TABLE1_TOTALS = (16414, 16617, 16750, 9307, 9679, 9702)
PAPER_TABLE2_MEANS = (273.0, 69.2, 74.5, 269.0, 12.4, 29.2)

#: Replication workers for the pooled workloads: one per core of the
#: 2-core reference host.
WORKERS = 2

#: Table 2 samples per cell: the paper's 10.
TABLE2_SAMPLES = 10

#: The fleet shape of benchmarks/test_sharded_throughput.py, scaled up
#: from 48 to 192 sessions per site.
FLEET_SHAPE = dict(sites=4, sessions=192, arrival_every=6.0,
                   interval=10.0, capacity=64)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def git_tree_id(path: str) -> Optional[str]:
    """The git tree object id of a directory, computed from its files.

    Equal to ``git rev-parse <commit>:<path>`` for a checkout of that
    tree, so a directory can be tied to a commit without git.  Bytecode
    caches are skipped; an empty directory has no id (git keeps none).
    """
    entries = []
    for name in os.listdir(path):
        if name == "__pycache__":
            continue
        full = os.path.join(path, name)
        if os.path.isdir(full):
            child = git_tree_id(full)
            if child is None:
                continue
            entries.append((name + "/", b"40000", name, child))
        else:
            with open(full, "rb") as handle:
                data = handle.read()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data)
            mode = b"100755" if os.access(full, os.X_OK) else b"100644"
            entries.append((name, mode, name, blob.hexdigest()))
    if not entries:
        return None
    body = b"".join(mode + b" " + name.encode("utf-8") + b"\0"
                    + bytes.fromhex(sha)
                    for _key, mode, name, sha in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def _capture(call, *args) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = call(*args)
    if status:
        raise RuntimeError("exit status %r" % (status,))
    return buffer.getvalue()


def _table_rows(text: str, title: str) -> List[List[str]]:
    """Data rows of one fixed-width table printed under ``title``."""
    lines = text.splitlines()
    start = lines.index(title) + 3  # title, header, rule
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def _mape(measured: Sequence[float], paper: Sequence[float]) -> float:
    return 100.0 * sum(abs(m - p) / p for m, p in zip(measured, paper)) \
        / len(paper)


class Workload:
    """One named workload at one seed."""

    name = ""
    #: Modules a fresh process imports before its first iteration.
    imports: Sequence[str] = ()
    #: Whether iterations fan out to worker processes.
    pooled = False
    #: Source run by a fresh interpreter to time set-up: import, then
    #: start worker processes when the workload has them.
    spawn_code = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self) -> None:
        """Harness-side set-up that the program does not pay for."""

    def iterate(self) -> str:
        raise NotImplementedError

    def check(self, text: str) -> Optional[str]:
        """A reason the artifact is wrong at any seed, or None."""
        return None

    def paper_mape_pct(self, text: str) -> Optional[float]:
        return None

    def finding_count(self, text: str) -> Optional[int]:
        return None

    def cleanup(self) -> None:
        """Undo :meth:`prepare`."""


class VmOverhead(Workload):
    """Figure 1 at 1000 samples, then Table 1 at scale 1.0, sequential."""

    name = "vm_overhead"
    imports = ("repro.cli", "repro.experiments.figure1",
               "repro.experiments.table1")

    def iterate(self) -> str:
        from repro.cli import main

        seed = str(self.seed)
        figure = _capture(main, ["figure1", "--samples", "1000",
                                 "--seed", seed])
        table = _capture(main, ["table1", "--scale", "1.0", "--seed", seed])
        return figure + "\n" + table

    def _totals(self, text: str) -> List[float]:
        rows = _table_rows(text, "Table 1: macrobenchmark results")
        return [float(row[-2]) for row in rows]

    def check(self, text: str) -> Optional[str]:
        figure = _table_rows(text, "Figure 1: microbenchmark slowdown "
                                   "(12 scenarios)")
        if len(figure) != 12:
            return "figure 1 has %d rows, not 12" % len(figure)
        totals = self._totals(text)
        if len(totals) != len(PAPER_TABLE1_TOTALS):
            return "table 1 has %d rows" % len(totals)
        for measured, paper in zip(totals, PAPER_TABLE1_TOTALS):
            if abs(measured - paper) / paper > 0.025:
                return "table 1 total %r is not within 2.5%% of %r" % (
                    measured, paper)
        return None

    def paper_mape_pct(self, text: str) -> Optional[float]:
        return _mape(self._totals(text), PAPER_TABLE1_TOTALS)


class VmStartup(Workload):
    """All six Table 2 cells on a pool of two replication workers."""

    name = "vm_startup"
    imports = ("repro.cli", "repro.experiments.table2")
    pooled = True
    spawn_code = ("from repro.experiments.runner import run_replications\n"
                  "run_replications(abs, [(-1,), (-2,)], workers=%d)\n"
                  % WORKERS)

    def iterate(self) -> str:
        from repro.cli import main

        return _capture(main, ["table2", "--samples", str(TABLE2_SAMPLES),
                               "--workers", str(WORKERS),
                               "--seed", str(self.seed)])

    def _means(self, text: str) -> List[float]:
        rows = _table_rows(text, "Table 2: VM startup times via globusrun")
        return [float(row[2]) for row in rows]

    def check(self, text: str) -> Optional[str]:
        means = self._means(text)
        if len(means) != len(PAPER_TABLE2_MEANS):
            return "table 2 has %d rows" % len(means)
        reboot, restore = means[:3], means[3:]
        for storage, (slow, fast) in enumerate(zip(reboot, restore)):
            if not fast < slow:
                return "restore is not faster than reboot in row %d" % (
                    storage,)
        return None

    def paper_mape_pct(self, text: str) -> Optional[float]:
        return _mape(self._means(text), PAPER_TABLE2_MEANS)


class Fleet(Workload):
    """Four sites on the sharded engine with two worker processes."""

    name = "fleet"
    imports = ("repro.experiments.fleet",)
    pooled = True
    spawn_code = ("from repro.simulation.workerpool import warm_group\n"
                  "warm_group(%d, abs).roundtrip([(0, -1), (1, -2)])\n"
                  % WORKERS)

    def iterate(self) -> str:
        from repro.experiments.fleet import run_fleet

        result = run_fleet(seed=self.seed, shards=WORKERS, **FLEET_SHAPE)
        return "%s\n%s\n" % (result.render(), result.merged_metrics()
                             .to_table(title="Fleet metrics"))

    def check(self, text: str) -> Optional[str]:
        title = "Fleet sessions (sites=%d seed=%d)" % (
            FLEET_SHAPE["sites"], self.seed)
        sessions = len(_table_rows(text, title))
        wanted = FLEET_SHAPE["sites"] * FLEET_SHAPE["sessions"]
        if sessions != wanted:
            return "fleet ran %d sessions, not %d" % (sessions, wanted)
        return None


class AnalysisGate(Workload):
    """``--deep --shard --scale`` over the pinned ``src/repro`` corpus.

    The corpus is fixed, so the seed does not change this workload's
    input.
    """

    name = "analysis_gate"
    imports = ("repro.analysis.cli", "repro.analysis.dataflow",
               "repro.analysis.dataflow.taint",
               "repro.analysis.dataflow.symbols", "repro.analysis.shard",
               "repro.analysis.shard.model", "repro.analysis.scale",
               "repro.analysis.scale.model")

    corpus_root: Optional[str] = None

    @property
    def corpus_package(self) -> str:
        return os.path.join(self.corpus_root, "src", "repro")

    def prepare(self) -> None:
        self.corpus_root = tempfile.mkdtemp(prefix="corpus-",
                                            dir=self.work_dir)
        with tarfile.open(CORPUS_ARCHIVE) as archive:
            archive.extractall(self.corpus_root, filter="data")
        tree = git_tree_id(self.corpus_package)
        pinned = load_expected()[self.name]["corpus_tree"]
        if tree != pinned:
            raise RuntimeError("analysis corpus tree %s is not the pinned "
                               "%s" % (tree, pinned))

    def cleanup(self) -> None:
        if self.corpus_root is not None:
            shutil.rmtree(self.corpus_root, ignore_errors=True)
            self.corpus_root = None

    def iterate(self) -> str:
        from repro.analysis.cli import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(["--deep", "--shard", "--scale", "--format",
                           "json", self.corpus_package])
        text = buffer.getvalue().replace(
            self.corpus_root + os.sep, "")
        return "exit %d\n%s" % (status, text)

    @staticmethod
    def findings(text: str) -> List[Dict]:
        return json.loads(text.split("\n", 1)[1])["findings"]

    def finding_count(self, text: str) -> Optional[int]:
        return len(self.findings(text))

    def check(self, text: str) -> Optional[str]:
        expected = load_expected()[self.name]["findings"]
        found = self.findings(text)
        if found != expected:
            return "findings differ from the expected set: %d found, " \
                   "%d expected" % (len(found), len(expected))
        return None


WORKLOADS = {cls.name: cls for cls in (VmOverhead, VmStartup, Fleet,
                                       AnalysisGate)}

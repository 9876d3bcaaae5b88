"""Deterministic work counts: a warm read costs O(runs), not O(blocks).

Counting the Python lines the storage package executes is independent
of the host, and a per-block loop anywhere on the read path -- in the
cache walk, in the file system or in the hit-cost sum -- executes at
least one line per block.
"""

import os
import sys

import pytest

import repro.storage
from repro.hardware import Disk
from repro.simulation import Simulation
from repro.storage import LocalFileSystem, PvfsProxy

BLOCK = 65536
FILE_BLOCKS = 8192

#: Lines, not blocks: a warm whole-file read is a handful of extents.
LINE_BUDGET = 400

STORAGE_DIR = os.path.dirname(repro.storage.__file__)


def storage_lines(sim, generator):
    """Run ``generator`` to completion; count storage-package lines run."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def global_trace(frame, event, arg):
        if os.path.dirname(frame.f_code.co_filename) == STORAGE_DIR:
            return local
        return None

    process = sim.spawn(generator)
    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        sim.run_until_complete(process)
    finally:
        sys.settrace(previous)
    return count


def build(layer):
    sim = Simulation()
    local = LocalFileSystem(sim, Disk(sim),
                            cache_bytes=FILE_BLOCKS * BLOCK)
    local.create("image", FILE_BLOCKS * BLOCK)
    fs = local if layer == "local" else PvfsProxy(
        sim, local, cache_bytes=FILE_BLOCKS * BLOCK)
    return sim, fs


@pytest.mark.parametrize("layer", ["local", "pvfs"])
def test_warm_whole_file_read_touches_constant_extents(layer):
    sim, fs = build(layer)
    sim.run_until_complete(sim.spawn(fs.read_file("image")))
    assert fs.cache.size_blocks == FILE_BLOCKS
    hits = fs.cache.hits
    lines = storage_lines(sim, fs.read_file("image"))
    assert fs.cache.hits - hits == FILE_BLOCKS  # every block hit
    assert lines < LINE_BUDGET

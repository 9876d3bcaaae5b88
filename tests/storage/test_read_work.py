"""Deterministic work counts on the read paths.

Counting the Python lines the storage package executes is independent
of the host.  A warm read costs O(runs), not O(blocks): a per-block
loop anywhere on the read path -- in the cache walk, in the file system
or in the hit-cost sum -- executes at least one line per block.  A cold
read walks each cache once, filling what it fetched on the way.  And
none of this may move a kernel event: the event counts of Table 2's
cells are pinned.
"""

import os
import random
import sys

import pytest

import repro.experiments.table2 as table2
import repro.storage
from repro.hardware import Disk
from repro.simulation import Simulation
from repro.storage import LocalFileSystem, PvfsProxy
from repro.vmm.disk_image import DiskImage, VirtualDisk

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


MB = 1024 * 1024
COLD_READS = 100

#: Storage lines for COLD_READS scattered 32 KiB guest reads through a
#: guest file system on a copy-on-write virtual disk over a host file
#: system, both caches cold.  With one cache walk to look up and a
#: second to file each fetched run, the count was 15 153.
COLD_LINE_BUDGET = 12_500


def test_cold_scattered_reads_walk_each_cache_once():
    sim = Simulation()
    host = LocalFileSystem(sim, Disk(sim), cache_bytes=512 * MB,
                           name="host")
    host.create("image", 2048 * MB)
    vdisk = VirtualDisk(sim, "vm", DiskImage(host, "image", 2048 * MB),
                        diff_fs=host, rng=random.Random(7))
    guest = LocalFileSystem(sim, vdisk, cache_bytes=64 * MB, name="guest")
    guest.create("/boot/system", 64 * MB)
    rng = random.Random(3)

    def boot_reads(sim):
        for _ in range(COLD_READS):
            yield from guest.read("/boot/system",
                                  rng.randrange(0, 64 * MB - 32768), 32768,
                                  sequential=False)

    lines = storage_lines(sim, boot_reads(sim))
    assert (guest.cache.misses, host.cache.misses) == (139, 234)
    assert lines < COLD_LINE_BUDGET


#: ``sim._next_id`` after one sample of each Table 2 cell at the first
#: sample seed of ``--seed 42``: every kernel event the start-up path
#: schedules, counted.  Recorded before the read path was fused.
TABLE2_EVENT_IDS = {
    ("reboot", "persistent"): 3193,
    ("reboot", "nonpersistent-diskfs"): 1214,
    ("reboot", "nonpersistent-loopbacknfs"): 1691,
    ("restore", "persistent"): 2061,
    ("restore", "nonpersistent-diskfs"): 13,
    ("restore", "nonpersistent-loopbacknfs"): 14,
}


@pytest.mark.parametrize("cell", sorted(TABLE2_EVENT_IDS))
def test_table2_cell_schedules_the_pinned_events(cell, monkeypatch):
    worlds = []

    class RecordedSimulation(Simulation):
        def __init__(self):
            super().__init__()
            worlds.append(self)

    monkeypatch.setattr(table2, "Simulation", RecordedSimulation)
    seed = table2.table2_tasks(1, 42)[0][2]
    table2.startup_sample(*cell, seed)
    assert [sim._next_id for sim in worlds] == [TABLE2_EVENT_IDS[cell]]

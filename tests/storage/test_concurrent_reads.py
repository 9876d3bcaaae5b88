"""Two readers racing over one file, at every layer of the storage stack.

A reader's miss-run fetch yields, and the other reader fills blocks of
the first one's span meanwhile; when the first resumes, its walk must
see those blocks as hits exactly as a per-block lookup loop would.  The
pinned numbers were recorded with the per-block ``OrderedDict`` cache
the extent cache replaced: counters, RPCs and completion times must not
move by a bit.
"""

import hashlib

import pytest

from repro.gridnet import FlowEngine, Network
from repro.hardware import Disk
from repro.simulation import Simulation
from repro.storage import LocalFileSystem, NfsClient, NfsServer, PvfsProxy

CHUNK = 32768
FILE_CHUNKS = 48


def stack(sim):
    net = Network.two_site_wan(sim, "uf", ["compute"], "nw", ["image"],
                               wan_latency=0.004, wan_bandwidth=20e6)
    engine = FlowEngine(sim, net)
    disk = Disk(sim, seek_time=0.008, transfer_rate=40e6)
    local = LocalFileSystem(sim, disk, cache_bytes=20 * 65536)
    server = NfsServer(sim, "image", local, engine)
    mount = NfsClient(sim, "compute", engine,
                      cache_bytes=24 * CHUNK).mount(server)
    proxy = PvfsProxy(sim, mount, cache_bytes=28 * CHUNK, prefetch_blocks=4)
    local.create("image", FILE_CHUNKS * CHUNK)
    return local, server, mount, proxy


def recency_digest(cache):
    """A short fingerprint of the full LRU order."""
    return hashlib.sha256(repr(list(cache)).encode()).hexdigest()[:12]


def race(layer):
    """Warm a few scattered blocks, then race two overlapping readers."""
    sim = Simulation()
    local, server, mount, proxy = stack(sim)
    fs = {"local": local, "nfs": mount, "pvfs": proxy}[layer]
    done = {}

    def warm(sim):
        for first, count in ((4, 2), (14, 2), (30, 4)):
            yield from fs.read("image", first * CHUNK, count * CHUNK)

    def reader(sim, tag, first, count, delay):
        yield sim.timeout(delay)
        yield from fs.read("image", first * CHUNK, count * CHUNK)
        done[tag] = sim.now

    sim.run_until_complete(sim.spawn(warm(sim)))
    sim.spawn(reader(sim, "p1", 0, 24, 0.0))
    sim.spawn(reader(sim, "p2", 8, 32, 0.0005))
    sim.run()
    caches = {"local": local.cache, "nfs": mount.cache, "pvfs": proxy.cache}
    return {
        "caches": {name: (cache.hits, cache.misses, cache.size_blocks,
                          recency_digest(cache))
                   for name, cache in caches.items()},
        "rpcs": server.rpc_count,
        "prefetched": proxy.prefetch_issued,
        "done": (done["p1"], done["p2"]),
    }


#: Recorded with the per-block cache.
PINNED = {
    "local": {"caches": {"local": (5, 27, 20, "950c5fa80998"),
                         "nfs": (0, 0, 0, "4f53cda18c2b"),
                         "pvfs": (0, 0, 0, "4f53cda18c2b")},
              "rpcs": 0, "prefetched": 0,
              "done": (0.10332960000000001, 0.11624880000000001)},
    "nfs": {"caches": {"local": (5, 24, 20, "ee97ff7f1cb5"),
                       "nfs": (7, 57, 24, "ec01adff0885"),
                       "pvfs": (0, 0, 0, "4f53cda18c2b")},
            "rpcs": 57, "prefetched": 0,
            "done": (0.27552928, 0.35001519999999997)},
    "pvfs": {"caches": {"local": (8, 24, 20, "b4e5cdd21df5"),
                        "nfs": (2, 61, 24, "1c2c042afdf0"),
                        "pvfs": (21, 43, 28, "279babe90156")},
             "rpcs": 61, "prefetched": 20,
             "done": (0.21158240000000003, 0.32239583999999993)},
}


@pytest.mark.parametrize("layer", sorted(PINNED))
def test_racing_readers_match_per_block_cache(layer):
    assert race(layer) == PINNED[layer]

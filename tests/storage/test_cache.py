"""Unit and property tests for the LRU block cache."""

from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.storage import BlockCache, StorageError


def test_empty_cache_misses():
    cache = BlockCache(10 * 65536)
    assert not cache.lookup("f", 0)
    assert cache.misses == 1 and cache.hits == 0


def test_insert_then_hit():
    cache = BlockCache(10 * 65536)
    cache.insert("f", 3)
    assert cache.lookup("f", 3)
    assert cache.hits == 1


def test_capacity_eviction_is_lru():
    cache = BlockCache(2 * 65536)
    cache.insert("f", 0)
    cache.insert("f", 1)
    cache.lookup("f", 0)        # make block 0 most recent
    evicted = cache.insert("f", 2)
    assert evicted == ("f", 1)  # block 1 was least recently used
    assert cache.contains("f", 0)
    assert not cache.contains("f", 1)


def test_zero_capacity_disables_caching():
    cache = BlockCache(0)
    assert cache.insert("f", 0) is None
    assert not cache.lookup("f", 0)


def test_reinsert_does_not_evict():
    cache = BlockCache(2 * 65536)
    cache.insert("f", 0)
    cache.insert("f", 1)
    evicted = cache.insert("f", 0)  # already resident
    assert evicted is None
    assert cache.size_blocks == 2


def test_invalidate_file_drops_only_that_file():
    cache = BlockCache(10 * 65536)
    cache.insert("a", 0)
    cache.insert("a", 1)
    cache.insert("b", 0)
    assert cache.invalidate_file("a") == 2
    assert not cache.contains("a", 0)
    assert cache.contains("b", 0)


def test_contains_does_not_touch_counters():
    cache = BlockCache(10 * 65536)
    cache.insert("f", 0)
    cache.contains("f", 0)
    cache.contains("f", 99)
    assert cache.hits == 0 and cache.misses == 0


def test_hit_ratio():
    cache = BlockCache(10 * 65536)
    cache.insert("f", 0)
    cache.lookup("f", 0)
    cache.lookup("f", 1)
    assert cache.hit_ratio == pytest.approx(0.5)


def test_clear_preserves_counters():
    cache = BlockCache(10 * 65536)
    cache.insert("f", 0)
    cache.lookup("f", 0)
    cache.clear()
    assert cache.size_blocks == 0
    assert cache.hits == 1


def test_invalid_parameters():
    with pytest.raises(StorageError):
        BlockCache(-1)
    with pytest.raises(StorageError):
        BlockCache(100, block_size=0)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["insert", "lookup"]),
                              st.integers(min_value=0, max_value=20)),
                    max_size=100),
       capacity_blocks=st.integers(min_value=1, max_value=8))
def test_property_size_never_exceeds_capacity(ops, capacity_blocks):
    cache = BlockCache(capacity_blocks * 64, block_size=64)
    for op, block in ops:
        if op == "insert":
            cache.insert("f", block)
        else:
            cache.lookup("f", block)
        assert cache.size_blocks <= capacity_blocks


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=100),
                       min_size=1, max_size=50))
def test_property_recently_inserted_block_is_resident(blocks):
    cache = BlockCache(4 * 64, block_size=64)
    for block in blocks:
        cache.insert("f", block)
        assert cache.contains("f", block)


# ---------------------------------------------------------------------------
# Differential test: the extent cache against a one-entry-per-block LRU
# ---------------------------------------------------------------------------

class ReferenceLru:
    """The per-block ``OrderedDict`` LRU the extent cache replaced."""

    def __init__(self, capacity_blocks):
        self.capacity = capacity_blocks
        self.blocks = OrderedDict()
        self.hits = self.misses = 0

    def lookup(self, file_id, block):
        if (file_id, block) in self.blocks:
            self.blocks.move_to_end((file_id, block))
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, file_id, block):
        key = (file_id, block)
        if self.capacity == 0:
            return None
        if key in self.blocks:
            self.blocks.move_to_end(key)
            return None
        evicted = None
        if len(self.blocks) >= self.capacity:
            evicted, _ = self.blocks.popitem(last=False)
        self.blocks[key] = True
        return evicted

    def insert_run(self, file_id, run):
        for block in run:
            self.insert(file_id, block)

    def scan(self, file_id, span):
        """The read paths' per-block loop: a hit ends the pending miss
        run, moving to MRU before the run is handed out."""
        run = []
        for block in span:
            if not self.lookup(file_id, block):
                run.append(block)
            elif run:
                yield range(run[0], run[-1] + 1)
                run = []
        if run:
            yield range(run[0], run[-1] + 1)

    def invalidate_file(self, file_id):
        doomed = [key for key in self.blocks if key[0] == file_id]
        for key in doomed:
            del self.blocks[key]
        return len(doomed)


FILES = ("a", "b")
BLOCKS = st.integers(min_value=0, max_value=15)
SPAN = st.tuples(st.sampled_from(FILES), BLOCKS,
                 st.integers(min_value=0, max_value=12))
OPS = st.one_of(
    st.tuples(st.just("lookup"), st.sampled_from(FILES), BLOCKS),
    st.tuples(st.just("insert"), st.sampled_from(FILES), BLOCKS),
    st.tuples(st.just("insert_run"), SPAN),
    st.tuples(st.just("insert_list"), st.sampled_from(FILES),
              st.lists(BLOCKS, max_size=10)),
    # A scan whose fetches may let another writer in first.
    st.tuples(st.just("scan"), SPAN, st.lists(SPAN, max_size=3)),
    st.tuples(st.just("invalidate_file"), st.sampled_from(FILES)),
    st.tuples(st.just("clear")),
)


def assert_same_state(cache, ref):
    assert list(cache) == list(ref.blocks)
    assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
    assert cache.size_blocks == len(ref.blocks)
    for file_id in FILES:
        for block in range(32):
            assert cache.contains(file_id, block) == \
                ((file_id, block) in ref.blocks)


def apply_op(cache, ref, op):
    kind = op[0]
    if kind == "lookup":
        assert cache.lookup(*op[1:]) == ref.lookup(*op[1:])
    elif kind == "insert":
        assert cache.insert(*op[1:]) == ref.insert(*op[1:])
    elif kind == "insert_run":
        file_id, lo, count = op[1]
        cache.insert_run(file_id, range(lo, lo + count))
        ref.insert_run(file_id, range(lo, lo + count))
    elif kind == "insert_list":
        cache.insert_run(op[1], list(op[2]))
        ref.insert_run(op[1], op[2])
    elif kind == "scan":
        (file_id, lo, count), writers = op[1], list(op[2])
        span = range(lo, lo + count)
        ours, theirs = cache.scan(file_id, span), ref.scan(file_id, span)
        for run in theirs:
            assert next(ours) == run
            assert_same_state(cache, ref)
            if writers:  # another process fills blocks during the fetch
                other, other_lo, other_count = writers.pop()
                other_run = range(other_lo, other_lo + other_count)
                cache.insert_run(other, other_run)
                ref.insert_run(other, other_run)
            cache.insert_run(file_id, run)
            ref.insert_run(file_id, run)
        assert next(ours, None) is None
    elif kind == "invalidate_file":
        assert cache.invalidate_file(op[1]) == ref.invalidate_file(op[1])
    else:
        cache.clear()
        ref.blocks.clear()


@settings(max_examples=400, deadline=None)
@given(capacity_blocks=st.integers(min_value=1, max_value=8),
       ops=st.lists(OPS, max_size=40))
@example(capacity_blocks=2,   # re-insert a resident block at the LRU head
         ops=[("insert", "a", 1), ("insert", "b", 0),
              ("insert_run", ("a", 0, 2))])
@example(capacity_blocks=3,   # a run longer than the cache
         ops=[("insert_run", ("a", 0, 3)), ("insert_run", ("a", 2, 9))])
@example(capacity_blocks=4,   # a hit ends a miss run, another writer in
         ops=[("insert_run", ("a", 4, 2)),
              ("scan", ("a", 0, 8), [("a", 0, 8)])])
def test_extent_cache_matches_per_block_lru(capacity_blocks, ops):
    cache = BlockCache(capacity_blocks * 64, block_size=64)
    ref = ReferenceLru(capacity_blocks)
    for op in ops:
        apply_op(cache, ref, op)
        assert_same_state(cache, ref)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(OPS, max_size=20), span=SPAN)
def test_missing_is_a_pure_residency_query(ops, span):
    cache = BlockCache(6 * 64, block_size=64)
    ref = ReferenceLru(6)
    for op in ops:
        apply_op(cache, ref, op)
    file_id, lo, count = span
    before = list(cache), cache.hits, cache.misses
    runs = cache.missing(file_id, range(lo, lo + count))
    assert [b for run in runs for b in run] == [
        b for b in range(lo, lo + count) if (file_id, b) not in ref.blocks]
    for run in runs:  # maximal: each ends at the span's end or a hit
        assert run and (run.stop == lo + count
                        or (file_id, run.stop) in ref.blocks)
    assert (list(cache), cache.hits, cache.misses) == before

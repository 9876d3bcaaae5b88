"""An LRU block cache.

Used in three places, mirroring Figure 2 of the paper: as the kernel
buffer cache of a host file system, as the client-side file buffer of an
NFS mount, and as the proxy-controlled disk cache of a PVFS proxy (the
"second-level cache to the kernel's file buffers").

The cache is an exact block-granular LRU stored as *extents*: runs of
consecutive blocks of one file that are also adjacent in recency, in
ascending block order.  Image copies, boots and whole-file reads are
mostly sequential, so extents stay far fewer than blocks and the read
paths cost O(runs) instead of O(blocks), while every hit, miss,
eviction and recency position matches a one-entry-per-block LRU.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (Dict, Hashable, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.storage.base import StorageError

__all__ = ["BlockCache"]


class _Extent:
    """Blocks ``[lo, hi)`` of one file, consecutive in recency (LRU first).

    Extents form a circular doubly linked recency list, LRU at the head.
    """

    __slots__ = ("file_id", "lo", "hi", "prev", "next")

    def __init__(self, file_id: Hashable, lo: int, hi: int):
        self.file_id = file_id
        self.lo = lo
        self.hi = hi


#: A file id no caller can pass: the recency list's sentinel never
#: merges with a real extent.
_NO_FILE = object()


class BlockCache:
    """LRU cache of (file, block-index) keys.

    ``capacity_bytes`` and ``block_size`` define the block slot count; a
    capacity of zero disables caching (every lookup misses).
    """

    def __init__(self, capacity_bytes: float, block_size: int = 65536,
                 name: str = "cache"):
        if capacity_bytes < 0 or block_size <= 0:
            raise StorageError("invalid cache parameters")
        self.name = name
        self.block_size = int(block_size)
        self.capacity_blocks = int(capacity_bytes // block_size)
        root = _Extent(_NO_FILE, 0, 0)
        root.prev = root.next = root
        self._root = root
        #: file id -> (extent starts, extents), both sorted by block.
        self._index: Dict[Hashable, Tuple[List[int], List[_Extent]]] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0

    @property
    def size_blocks(self) -> int:
        """Blocks currently cached."""
        return self._size

    @property
    def size_bytes(self) -> int:
        """Bytes currently cached."""
        return self._size * self.block_size

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that hit (0.0 when no lookups yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __iter__(self) -> Iterator[Tuple[Hashable, int]]:
        """Every cached (file, block) key, least recently used first."""
        root = self._root
        node = root.next
        while node is not root:
            for block in range(node.lo, node.hi):
                yield node.file_id, block
            node = node.next

    # -- per-block interface ---------------------------------------------------

    def lookup(self, file_id: Hashable, block: int) -> bool:
        """Check residency; updates recency and hit/miss counters."""
        entry = self._index.get(file_id)
        if entry is not None:
            los, extents = entry
            i = bisect_right(los, block) - 1
            if i >= 0 and extents[i].hi > block:
                self.hits += 1
                self._touch(file_id, los, extents, block, block + 1)
                return True
        self.misses += 1
        return False

    def contains(self, file_id: Hashable, block: int) -> bool:
        """Residency check without touching recency or counters."""
        entry = self._index.get(file_id)
        if entry is None:
            return False
        los, extents = entry
        i = bisect_right(los, block) - 1
        return i >= 0 and extents[i].hi > block

    def insert(self, file_id: Hashable,
               block: int) -> Optional[Tuple[Hashable, int]]:
        """Add a block, evicting the LRU block if full.

        Returns the evicted key, if any.
        """
        if self.capacity_blocks == 0:
            return None
        evicted = None
        if (self._size >= self.capacity_blocks
                and not self.contains(file_id, block)):
            head = self._root.next
            evicted = (head.file_id, head.lo)
        self._insert_span(file_id, block, block + 1)
        return evicted

    # -- run interface ---------------------------------------------------------

    def insert_run(self, file_id: Hashable, run: Iterable[int]) -> None:
        """Insert a run of blocks: same end state and eviction sequence
        as one :meth:`insert` per block, in O(extents) per consecutive
        stretch of ``run``.

        Run callers (file systems filling a cache behind one disk or RPC
        access) never charge per-block eviction costs, so the evicted
        keys are not reported.
        """
        if self.capacity_blocks == 0:
            return
        if isinstance(run, range) and run.step == 1:
            if run:
                self._insert_span(file_id, run.start, run.stop)
            return
        lo = last = None
        for block in run:
            if last is not None and block == last + 1:
                last = block
                continue
            if last is not None:
                self._insert_span(file_id, lo, last + 1)
            lo = last = block
        if last is not None:
            self._insert_span(file_id, lo, last + 1)

    def scan(self, file_id: Hashable, span: range) -> Iterator[range]:
        """Look up every block of ``span`` in order, exactly as one
        :meth:`lookup` per block would, yielding each missing run that
        the caller must fetch (and insert) before the walk goes on.

        Resident runs are counted and moved to the MRU end whole.  A
        miss run ends at the next resident block, and -- as in the
        per-block loop -- that block is looked up (moved to MRU) *before*
        the run is yielded.  No other process runs between two yields,
        so each run is maximal against the state current when the walk
        reaches it; after a yield the walk resumes against whatever the
        fetch (or any other process) left behind.
        """
        pos, stop = span.start, span.stop
        while pos < stop:
            entry = self._index.get(file_id)
            if entry is None:
                self.misses += stop - pos
                yield range(pos, stop)
                return
            los, extents = entry
            end, resident = self._run_at(los, extents, pos, stop)
            if resident:
                self.hits += end - pos
                self._touch(file_id, los, extents, pos, end)
                pos = end
                continue
            self.misses += end - pos
            missing = range(pos, end)
            if end < stop:
                self.hits += 1
                self._touch(file_id, los, extents, end, end + 1)
                end += 1
            pos = end
            yield missing

    def missing(self, file_id: Hashable, span: range) -> List[range]:
        """The maximal runs of ``span`` not resident, without touching
        recency or counters."""
        entry = self._index.get(file_id)
        if entry is None:
            return [span] if span else []
        los, extents = entry
        runs = []
        pos, stop = span.start, span.stop
        while pos < stop:
            end, resident = self._run_at(los, extents, pos, stop)
            if not resident:
                runs.append(range(pos, end))
            pos = end
        return runs

    # -- whole-cache maintenance -------------------------------------------------

    def invalidate_file(self, file_id: Hashable) -> int:
        """Drop every block of one file; returns the count dropped."""
        entry = self._index.pop(file_id, None)
        if entry is None:
            return 0
        dropped = 0
        for extent in entry[1]:
            extent.prev.next = extent.next
            extent.next.prev = extent.prev
            dropped += extent.hi - extent.lo
        self._size -= dropped
        return dropped

    def clear(self) -> None:
        """Drop everything (counters are preserved)."""
        root = self._root
        root.prev = root.next = root
        self._index.clear()
        self._size = 0

    # -- extent mechanics ------------------------------------------------------

    @staticmethod
    def _run_at(los: List[int], extents: List[_Extent], pos: int,
                stop: int) -> Tuple[int, bool]:
        """End of the maximal run of ``[pos, stop)`` that starts at
        ``pos`` and is all resident or all missing; and which."""
        i = bisect_right(los, pos)
        if i and extents[i - 1].hi > pos:
            end = extents[i - 1].hi
            count = len(los)
            while end < stop and i < count and los[i] == end:
                end = extents[i].hi
                i += 1
            return min(end, stop), True
        return (min(los[i], stop) if i < len(los) else stop), False

    def _touch(self, file_id: Hashable, los: List[int],
               extents: List[_Extent], lo: int, hi: int) -> None:
        """Move the resident blocks ``[lo, hi)`` to the MRU end, in order."""
        i = bisect_right(los, lo) - 1
        extent = extents[i]
        if extent.hi == hi and extent is self._root.prev:
            return  # already the MRU end, in this order
        if extent.lo < lo:
            # Split at ``lo``: the part below keeps this recency slot.
            upper = _Extent(file_id, lo, extent.hi)
            upper.prev = extent
            upper.next = extent.next
            extent.next.prev = upper
            extent.next = upper
            extent.hi = lo
            i += 1
            los.insert(i, lo)
            extents.insert(i, upper)
        pos = lo
        while pos < hi:
            extent = extents[i]
            if extent.hi > hi:
                # The part above the run keeps this recency slot.
                extent.lo = los[i] = hi
                break
            pos = extent.hi
            extent.prev.next = extent.next
            extent.next.prev = extent.prev
            del los[i]
            del extents[i]
        self._append(file_id, los, extents, i, lo, hi)

    def _append(self, file_id: Hashable, los: List[int],
                extents: List[_Extent], i: int, lo: int, hi: int) -> None:
        """Put the (detached or new) blocks ``[lo, hi)`` at the MRU end;
        ``i`` is their position in the file's sorted index."""
        root = self._root
        tail = root.prev
        if tail.hi == lo and tail.file_id == file_id:
            tail.hi = hi  # contiguous with the MRU extent: grow it
            return
        extent = _Extent(file_id, lo, hi)
        extent.prev = tail
        extent.next = root
        tail.next = root.prev = extent
        los.insert(i, lo)
        extents.insert(i, extent)

    def _insert_span(self, file_id: Hashable, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)`` as one :meth:`insert` per block would."""
        capacity = self.capacity_blocks
        pos = lo
        while pos < hi:
            entry = self._index.get(file_id)
            if entry is None:
                entry = self._index[file_id] = ([], [])
            los, extents = entry
            end, resident = self._run_at(los, extents, pos, hi)
            if resident:
                self._touch(file_id, los, extents, pos, end)
            else:
                # Appending the run and then evicting the excess from the
                # LRU end evicts exactly what evict-one-append-one does;
                # a resident block further on that gets evicted is seen
                # as missing when the walk reaches it.
                self._append(file_id, los, extents,
                             bisect_left(los, pos), pos, end)
                self._size += end - pos
                if self._size > capacity:
                    self._evict(self._size - capacity)
            pos = end

    def _evict(self, count: int) -> None:
        """Drop ``count`` blocks from the LRU end."""
        root = self._root
        index = self._index
        self._size -= count
        while count:
            extent = root.next
            los, extents = index[extent.file_id]
            i = bisect_left(los, extent.lo)
            length = extent.hi - extent.lo
            if length > count:
                extent.lo = los[i] = extent.lo + count
                return
            root.next = extent.next
            extent.next.prev = root
            del los[i]
            del extents[i]
            if not los:
                del index[extent.file_id]
            count -= length

    def __repr__(self) -> str:
        return "<BlockCache %s %d/%d blocks hit=%.2f>" % (
            self.name, self._size, self.capacity_blocks, self.hit_ratio)

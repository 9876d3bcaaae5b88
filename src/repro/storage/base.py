"""The file-system interface shared by every storage service.

Only metadata and timing are simulated — files are (name, size) pairs and
reads/writes move simulated time and bytes, not contents.  All data-path
operations are process generators (``yield from fs.read(...)``) so that
they can consume disk, network and CPU resources.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import repeat
from operator import add
from typing import Dict, List

from repro.simulation.kernel import SimulationError

__all__ = ["StorageError", "FileNotFound", "FileSystem", "block_span",
           "repeated_sum"]


class StorageError(SimulationError):
    """Base class for storage failures."""


class FileNotFound(StorageError):
    """The named file does not exist in this file system."""


def block_span(offset: int, nbytes: int, block_size: int) -> range:
    """Indices of the blocks covering ``[offset, offset + nbytes)``.

    Returns a ``range`` rather than a list: callers only iterate, ``len``
    and truth-test the span, and the read paths walk millions of spans
    per experiment, so the block indices are never materialized.
    """
    if offset < 0 or nbytes < 0:
        raise StorageError("offset and size must be non-negative")
    if nbytes == 0:
        return range(0)
    return range(offset // block_size,
                 (offset + nbytes - 1) // block_size + 1)


@lru_cache(maxsize=256)
def repeated_sum(value: float, count: int) -> float:
    """``value`` added to ``0.0`` ``count`` times, one addition at a time.

    Bit-identical to a ``total += value`` loop -- ``count * value`` is
    not -- but iterated in C and memoized (reads of one size recur), so
    a read's per-block service cost adds no Python work per block.
    """
    return reduce(add, repeat(value, count), 0.0)


class FileSystem:
    """Abstract file-system interface.

    Concrete implementations: :class:`~repro.storage.localfs.LocalFileSystem`,
    :class:`~repro.storage.nfs.NfsMount` and
    :class:`~repro.storage.pvfs.PvfsProxy`.
    """

    block_size: int = 65536

    def exists(self, name: str) -> bool:
        """True when ``name`` is present."""
        raise NotImplementedError

    def size(self, name: str) -> int:
        """Size of ``name`` in bytes."""
        raise NotImplementedError

    def listdir(self) -> List[str]:
        """All file names."""
        raise NotImplementedError

    def create(self, name: str, size: int = 0) -> None:
        """Create (or replace) a file of the given size, instantly.

        Metadata-only: allocating space costs nothing; writing data does.
        """
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove a file."""
        raise NotImplementedError

    def read(self, name: str, offset: int, nbytes: int,
             sequential: bool = True):
        """Process generator: read a byte range."""
        raise NotImplementedError

    def write(self, name: str, offset: int, nbytes: int,
              sequential: bool = True):
        """Process generator: write a byte range (extends the file)."""
        raise NotImplementedError

    def read_file(self, name: str):
        """Process generator: read a whole file sequentially."""
        yield from self.read(name, 0, self.size(name), sequential=True)

    def _require(self, files: Dict[str, int], name: str) -> int:
        if name not in files:
            raise FileNotFound("%s: no such file" % name)
        return files[name]

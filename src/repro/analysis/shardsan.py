"""Runtime shard-affinity checking — simsan's lockset-style sibling.

Where shardcheck (:mod:`repro.analysis.shard`) classifies *source*
locations on the affinity lattice, :class:`ShardAffinitySanitizer`
watches one concrete run and checks the same property dynamically: had
this world been partitioned into shards, would any interaction have
jumped a partition boundary without lookahead to hide it?

The sanitizer extends :class:`~repro.analysis.sanitizer.
DeterminismSanitizer` (all four determinism hazard classes stay armed)
with a partition model:

* :meth:`bind_grid` takes the host -> partition map from
  :meth:`~repro.core.grid.VirtualGrid.partitions` (``--shard-model
  site`` groups hosts by site; ``host`` is the finest split).
* Execution context is derived from the open tracer spans: the
  innermost span on a ``host:<name>`` track pins execution to that
  host's partition; spans on shared tracks (``sched``, ``net``,
  ``session:*``) leave it unowned (coordinator work).
* Every scheduled event is tagged with its *origin* partition and its
  scheduling delay.  When it fires in a *different* partition:

  - zero delay  -> ``shard-violation`` (a real :class:`~repro.analysis.
    sanitizer.Hazard`): the sharded engine would need the result in
    the same instant it was produced, so no lookahead can hide the
    crossing and the run is unshardable as modelled;
  - positive delay -> a ``shard-crossing`` record (informational, kept
    in :attr:`ShardAffinitySanitizer.crossings`): shardable, but the
    edge consumes lookahead equal to the delay — the runtime half of
    the ``docs/shard-safety.md`` inventory.

* Resources are owned by their first-toucher's partition; a later
  acquisition from a different partition is a crossing.
* Accumulator merges whose two sides live in different partitions are
  violations (parts must come home through the coordinator, not
  sideways).

Like its base class the sanitizer never mutates simulation state: a
run under it is byte-identical to a plain run (``repro sanitize
--shard-model`` verifies exactly that by replaying untraced).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.sanitizer import (
    DeterminismSanitizer,
    Hazard,
    _is_internal_event,
)

__all__ = ["ShardAffinitySanitizer", "SHARD_VIOLATION", "SHARD_CROSSING"]

SHARD_VIOLATION = "shard-violation"
SHARD_CROSSING = "shard-crossing"

_HOST_TRACK_PREFIX = "host:"


class ShardAffinitySanitizer(DeterminismSanitizer):
    """simsan plus a dynamic shard-affinity (partition-escape) checker."""

    def __init__(self, shard_model: str = "site"):
        if shard_model not in ("site", "host"):
            raise ValueError("unknown shard model %r "
                             "(expected 'site' or 'host')" % shard_model)
        super().__init__()
        self.shard_model = shard_model
        #: Host name -> partition label; empty until :meth:`bind_grid`.
        self.host_partition: Dict[str, str] = {}
        #: Informational cross-partition records (positive-delay event
        #: deliveries, foreign resource acquisitions); never fail a run.
        self.crossings: List[Hazard] = []  # simlint: disable=R23  the sanitizer's product: one row per affinity violation found
        # id(event) -> (origin partition, scheduling delay).
        self._event_origin: Dict[int, Tuple[Optional[str], float]] = {}
        # id(resource) -> (resource, partition of first toucher).
        self._resource_owner: Dict[int, Tuple[Any, Optional[str]]] = {}  # simlint: disable=R23  first-writer ownership map; must span the whole run to catch late crossings
        # id(accumulator) -> partition observed at first merge contact.
        self._merge_home: Dict[int, Optional[str]] = {}

    # -- lifecycle ---------------------------------------------------------

    def bind_grid(self, grid) -> None:
        """Learn the host -> partition map from a built VirtualGrid.

        Called by :func:`repro.scenarios.run_scenario` (duck-typed)
        once the topology exists; until then every context is unowned
        and the checker stays silent.
        """
        self.host_partition = grid.partitions(self.shard_model)

    def finish(self) -> List[Hazard]:
        hazards = super().finish()
        self.crossings.sort(key=lambda h: (h.time, h.kind, h.message))
        return hazards

    # -- partition context -------------------------------------------------

    def _partition(self) -> Optional[str]:
        """The partition owning the current execution context, if any."""
        for span in reversed(self._open):
            track = span.track[0] if span.track else ""
            if track.startswith(_HOST_TRACK_PREFIX):
                host = track[len(_HOST_TRACK_PREFIX):]
                return self.host_partition.get(host, host)
        return None

    def _cross(self, message: str, time: Optional[float] = None) -> None:
        self.crossings.append(Hazard(
            SHARD_CROSSING, self._now() if time is None else time,
            message, self._context()))

    # -- kernel hooks ------------------------------------------------------

    def on_event_scheduled(self, sim, event, when: float,
                           priority: int) -> None:
        super().on_event_scheduled(sim, event, when, priority)
        if _is_internal_event(event):
            return  # kernel plumbing (Initialize, process handles)
        origin = self._partition()
        if origin is not None:
            self._event_origin[id(event)] = (origin, when - sim.now)

    def on_event_fired(self, sim, event) -> None:
        origin = self._event_origin.pop(id(event), None)
        super().on_event_fired(sim, event)
        if origin is None:
            return
        here = self._partition()
        if here is None or here == origin[0]:
            return
        partition, delay = origin
        what = "%s scheduled in partition %r fired in partition %r" \
            % (type(event).__name__, partition, here)
        if delay <= 0.0:
            self._report(
                SHARD_VIOLATION,
                "%s with zero delay — no lookahead can hide this edge; "
                "deliver the result through a latency-mediated event "
                "or move both endpoints into one shard" % what)
        else:
            self._cross("%s after %.6fs of lookahead" % (what, delay))

    def on_resource_acquired(self, sim, resource, request) -> None:
        super().on_resource_acquired(sim, resource, request)
        here = self._partition()
        entry = self._resource_owner.get(id(resource))
        if entry is None:
            self._resource_owner[id(resource)] = (resource, here)
            return
        owner = entry[1]
        if owner is None and here is not None:
            # First partition-owned touch claims an unowned resource.
            self._resource_owner[id(resource)] = (resource, here)
        elif here is not None and here != owner:
            name = getattr(resource, "name", "") \
                or type(resource).__name__
            self._cross("resource %r first touched in partition %r "
                        "acquired from partition %r" % (name, owner,
                                                        here))

    # -- accumulator merge audit -------------------------------------------

    def _on_merge(self, target, part) -> None:
        super()._on_merge(target, part)
        here = self._partition()
        home = self._merge_home.setdefault(id(target), here)
        if here is not None and home is not None and here != home:
            name = getattr(target, "name", "") or type(target).__name__
            self._report(
                SHARD_VIOLATION,
                "accumulator %r homed in partition %r merged from "
                "partition %r — fold parts through the coordinator, "
                "never sideways between shards" % (name, home, here))

    def __repr__(self) -> str:
        return ("<ShardAffinitySanitizer model=%s hazards=%d "
                "crossings=%d>" % (self.shard_model, len(self.hazards),
                                   len(self.crossings)))

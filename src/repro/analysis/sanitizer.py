"""simsan — the runtime determinism sanitizer.

Where the static pass (:mod:`repro.analysis.dataflow`) proves what it
can about the *source*, simsan watches one concrete *run* through the
kernel's tracer hooks and reports hazards: places where the run's
outcome rests on incidental ordering rather than model logic, or where
events and resources leak.  Four hazard classes:

* ``ordering-race`` — two events scheduled at identical ``(when,
  priority)`` fire at the same instant feeding the same ``any_of``
  condition, so the winner is decided by event-id insertion order.
  The run is still reproducible, but the outcome is one refactor away
  from changing: the ordering is incidental, not modelled.
* ``resource-leak`` — a process terminated while still holding granted
  :class:`~repro.simulation.resources.Resource` slots.
* ``lost-event`` — an event fired with no callbacks and its value was
  never observed afterwards; whatever the model meant to wait for is
  gone (the runtime sibling of lint rules R4/R13).
* ``merge-order`` — :class:`~repro.simulation.monitor.StatAccumulator`
  parts merged out of creation order (or twice), which breaks the
  replication runner's canonical fold order.

The sanitizer is a :class:`~repro.obs.tracer.Tracer`: attach it with
``Simulation(tracer=DeterminismSanitizer())``
(:func:`repro.scenarios.run_scenario` does this for ``repro
sanitize``).  It never mutates simulation state, so a
sanitized run produces byte-identical results to a plain one; with the
sanitizer off, the kernel pays only the usual one-boolean hook guard.

Every hazard carries the simulated time it was detected at and the
stack of open tracer spans for context.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.tracer import Span, Tracer
from repro.simulation import monitor as _monitor

__all__ = ["Hazard", "DeterminismSanitizer",
           "ORDERING_RACE", "RESOURCE_LEAK", "LOST_EVENT", "MERGE_ORDER"]

ORDERING_RACE = "ordering-race"
RESOURCE_LEAK = "resource-leak"
LOST_EVENT = "lost-event"
MERGE_ORDER = "merge-order"

_DEFAULT_TRACK = ("sim", "main")


class Hazard:
    """One detected determinism hazard, stamped with simulated time."""

    __slots__ = ("kind", "time", "message", "spans")

    def __init__(self, kind: str, time: float, message: str,
                 spans: Tuple[str, ...]):
        self.kind = kind
        self.time = time
        self.message = message
        #: ``category/name`` labels of the spans open at detection.
        self.spans = spans

    def render(self) -> str:
        context = " [in %s]" % " > ".join(self.spans) if self.spans else ""
        return "t=%.6f %s: %s%s" % (self.time, self.kind, self.message,
                                    context)

    def __repr__(self) -> str:
        return "<Hazard %s t=%.6f>" % (self.kind, self.time)


def _is_any_of(obj: Any) -> bool:
    """Duck-typed: a Condition needing fewer sub-events than it has."""
    needed = getattr(obj, "_needed", None)
    events = getattr(obj, "_events", None)
    return (needed is not None and events is not None
            and needed < len(events))


def _is_internal_event(event: Any) -> bool:
    """Events whose values are legitimately unobserved.

    Process termination events are waited on only when another process
    cares; ``Initialize`` is kernel plumbing; underscore-named classes
    (``_StorePut``, ``_ContainerOp``) are handles whose completion many
    models deliberately ignore.
    """
    name = type(event).__name__
    if name.startswith("_") or name == "Initialize":
        return True
    return hasattr(event, "is_alive")  # Process (and subclasses)


class DeterminismSanitizer(Tracer):
    """Tracer that audits a run for determinism hazards (simsan)."""

    enabled = True

    def __init__(self):
        self.sim = None
        self.hazards: List[Hazard] = []  # simlint: disable=R23  the sanitizer's product: a hazard report sized by defects found, not by events
        self._finished = False
        # H1: per-instant map id(condition) -> ((when, priority), cond).
        self._cond_fires: Dict[int, Tuple[Tuple[float, int], Any]] = {}
        self._reported_conds: Set[int] = set()  # simlint: disable=R23  dedupe keys for reported hazards; bounded by the hazard report itself
        # Scheduled-entry bookkeeping: id(event) -> (when, priority).
        self._sched: Dict[int, Tuple[float, int]] = {}
        # H2: id(process) -> (process, {id(request): request}).
        self._held: Dict[int, Tuple[Any, Dict[int, Any]]] = {}
        # H3: id(event) -> (event, fire time, open spans at firing).
        self._unobserved: Dict[int, Tuple[Any, float,
                                          Tuple[str, ...]]] = {}
        # H4: id(target) -> (target, seq of last part merged in).
        self._merge_seq: Dict[int, Tuple[Any, int]] = {}
        # Span stack for hazard context.
        self._open: List[Span] = []
        self._installed_audit = False

    # -- lifecycle ---------------------------------------------------------

    def bind(self, sim) -> None:
        if self.sim is not None and self.sim is not sim:
            raise RuntimeError("sanitizer is already bound to another "
                               "simulation; use one per run")
        self.sim = sim
        if not self._installed_audit:
            _monitor.set_merge_audit(self._on_merge)
            self._installed_audit = True

    def finish(self) -> List[Hazard]:
        """Flush deferred hazards, detach the merge audit, and report.

        Lost-event hazards are only decided here: an event fired with no
        callbacks may still be observed later through the
        already-processed yield path, so candidates are held until the
        run is over.  Idempotent.
        """
        if not self._finished:
            self._finished = True
            if self._installed_audit:
                _monitor.set_merge_audit(None)
                self._installed_audit = False
            for _eid in sorted(self._unobserved):
                event, when, spans = self._unobserved[_eid]
                self.hazards.append(Hazard(
                    LOST_EVENT, when,
                    "%s fired with no waiters and its value was never "
                    "observed" % type(event).__name__, spans))
            self._unobserved.clear()
            self.hazards.sort(key=lambda h: (h.time, h.kind, h.message))
        return self.hazards

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _context(self) -> Tuple[str, ...]:
        return tuple("%s/%s" % (span.category, span.name)
                     for span in self._open)

    def _report(self, kind: str, message: str,
                time: Optional[float] = None,
                spans: Optional[Tuple[str, ...]] = None) -> None:
        self.hazards.append(Hazard(
            kind, self._now() if time is None else time, message,
            self._context() if spans is None else spans))

    # -- span API (context only; nothing is persisted) ---------------------

    def begin(self, category: str, name: str,
              track: Tuple[str, str] = _DEFAULT_TRACK, **args) -> Span:
        span = Span(category, name, track, self._now(), args)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._now()
        for index in range(len(self._open) - 1, -1, -1):
            if self._open[index] is span:
                del self._open[index]
                break

    # -- kernel hooks ------------------------------------------------------

    def on_event_scheduled(self, sim, event, when: float,
                           priority: int) -> None:
        self._sched[id(event)] = (when, priority)

    def on_clock_advanced(self, sim, previous: float, now: float) -> None:
        self._cond_fires.clear()

    def on_event_fired(self, sim, event) -> None:
        key = self._sched.pop(id(event), None)
        callbacks = getattr(event, "callbacks", None)
        if callbacks is not None and key is not None:
            for callback in callbacks:
                cond = getattr(callback, "__self__", None)
                if cond is None or not _is_any_of(cond):
                    continue
                self._check_race(cond, key)
        if not callbacks and not _is_internal_event(event):
            # Fired with nobody listening; may still be observed later
            # through the already-processed path, so defer to finish().
            # on_event_fired runs before the clock moves to the entry's
            # time, so stamp with the entry's own `when`.
            when = key[0] if key is not None else self._now()
            self._unobserved[id(event)] = (event, when, self._context())

    def _check_race(self, cond, key: Tuple[float, int]) -> None:
        cid = id(cond)
        recorded = self._cond_fires.get(cid)
        if recorded is not None:
            if recorded[0] == key and cid not in self._reported_conds:
                self._reported_conds.add(cid)
                self._report(
                    ORDERING_RACE,
                    "any_of winner decided by scheduling order: two "
                    "sub-events fired at the same instant with identical "
                    "(when=%g, priority=%d); stagger them or model the "
                    "tie-break explicitly" % key, time=key[0])
        elif not cond.triggered:
            # Undecided as this first sub-event fires; remember it so a
            # same-key sibling at this instant exposes the race.  A
            # condition already decided in an earlier instant is not
            # racing.
            self._cond_fires[cid] = (key, cond)

    def on_event_observed(self, sim, event) -> None:
        self._unobserved.pop(id(event), None)

    def on_process_terminated(self, sim, process, ok: bool) -> None:
        held = self._held.pop(id(process), None)
        if held is None:
            return
        _proc, requests = held
        if requests:
            names = sorted(type(req.resource).__name__
                           for req in requests.values())
            self._report(
                RESOURCE_LEAK,
                "process %r terminated still holding %d granted slot(s) "
                "on %s; release in a finally block"
                % (process.name, len(requests), "/".join(names)))

    def on_resource_acquired(self, sim, resource, request) -> None:
        owner = getattr(request, "owner", None)
        if owner is None:
            return
        entry = self._held.get(id(owner))
        if entry is None:
            entry = (owner, {})
            self._held[id(owner)] = entry
        entry[1][id(request)] = request

    def on_resource_released(self, sim, resource, request) -> None:
        owner = getattr(request, "owner", None)
        if owner is None:
            return
        entry = self._held.get(id(owner))
        if entry is not None:
            entry[1].pop(id(request), None)

    # -- accumulator merge audit (installed into repro.simulation.monitor) -

    def _on_merge(self, target, part) -> None:
        seq = getattr(part, "_seq", None)
        if seq is None:
            return
        entry = self._merge_seq.get(id(target))
        if entry is not None and seq <= entry[1]:
            verb = "twice" if seq == entry[1] else "out of creation order"
            self._report(
                MERGE_ORDER,
                "accumulator %r merged %s into %r (part seq %d after "
                "seq %d); fold parts in task order exactly once"
                % (part.name or "<unnamed>", verb,
                   target.name or "<unnamed>", seq, entry[1]))
        if entry is None or seq > entry[1]:
            self._merge_seq[id(target)] = (target, seq)

    def __repr__(self) -> str:
        return "<DeterminismSanitizer hazards=%d>" % len(self.hazards)

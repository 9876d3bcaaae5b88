"""Queued resources for the simulation kernel.

Three classic synchronization primitives:

* :class:`Resource` — a server with fixed capacity and a FIFO request
  queue (used for disks, NICs, RPC servers, ...);
* :class:`Store` — an unbounded (or bounded) queue of Python objects
  (used for message channels and request queues);
* :class:`Container` — a continuous quantity with put/get (used for
  buffer pools and token buckets).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.simulation.kernel import (_PENDING, Event, Simulation,
                                     SimulationError)

__all__ = ["Request", "Resource", "Store", "Container"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "owner")

    def __init__(self, resource: "Resource"):
        # Every disk access makes one, so the slots are set here rather
        # than through Event.__init__.
        sim = resource.sim
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        #: The process that issued the request (None outside a process).
        #: Captured at creation — a queued request may be *granted* while
        #: some other process is active (the releaser's wake-up loop).
        self.owner = sim._active_process


class _StorePut(Event):
    """A pending or completed ``Store.put``, carrying its item."""

    __slots__ = ("item",)


class _ContainerOp(Event):
    """A pending or completed ``Container`` put/get, carrying its amount."""

    __slots__ = ("amount",)


class Resource:
    """A fixed-capacity resource with FIFO granting.

    Usage from a process::

        request = disk_arm.request()
        yield request
        try:
            yield sim.timeout(service_time)
        finally:
            disk_arm.release(request)
    """

    __slots__ = ("sim", "capacity", "_users", "_waiting")

    def __init__(self, sim: Simulation, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._users: set = set()
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted requests."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
            if self.sim._tracing:
                self.sim.trace.on_resource_acquired(self.sim, self, req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot, waking the next waiter."""
        if request in self._users:
            self._users.remove(request)
            if self.sim._tracing:
                self.sim.trace.on_resource_released(self.sim, self, request)
        elif request in self._waiting:
            # Cancelling a request that was never granted.
            self._waiting.remove(request)
            return
        else:
            raise SimulationError("release of a request not held")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()
            if self.sim._tracing:
                self.sim.trace.on_resource_acquired(self.sim, self, nxt)


class Store:
    """A queue of arbitrary items with blocking ``get``.

    ``put`` succeeds immediately unless a ``capacity`` bound is hit, in
    which case the put event waits for space.  Items are delivered to
    getters in FIFO order.
    """

    __slots__ = ("sim", "capacity", "items", "_getters", "_putters")

    def __init__(self, sim: Simulation, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Add ``item``; the returned event fires when the item is stored."""
        event = _StorePut(self.sim)
        event.item = item
        if self._putters or (self.capacity is not None
                             and len(self.items) >= self.capacity):
            self._putters.append(event)
            self._drain()
            return event
        # Fast path: space available and nobody queued ahead.  The put
        # event triggers before any getter it feeds, exactly as the
        # general drain would order them.
        self.items.append(item)
        event.succeed()
        getters = self._getters
        items = self.items
        while getters and items:
            getters.popleft().succeed(items.popleft())
        return event

    def get(self) -> Event:
        """Remove one item; the returned event fires with the item."""
        event = Event(self.sim)
        if self.items and not self._getters:
            # Fast path: an item is ready and nobody is queued ahead.
            event.succeed(self.items.popleft())
            if self._putters:
                # Freed space may admit a waiting putter (bounded store).
                self._drain()
            return event
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Move pending puts into the buffer while capacity allows.
            while self._putters and (self.capacity is None
                                     or len(self.items) < self.capacity):
                put_event = self._putters.popleft()
                self.items.append(put_event.item)
                put_event.succeed()
                progressed = True
            # Serve pending gets from the buffer.
            while self._getters and self.items:
                get_event = self._getters.popleft()
                get_event.succeed(self.items.popleft())
                progressed = True


class Container:
    """A continuous quantity (bytes, tokens, ...) with blocking get/put."""

    __slots__ = ("sim", "capacity", "level", "_getters", "_putters")

    def __init__(self, sim: Simulation, capacity: float = float("inf"),
                 initial: float = 0.0):
        if initial < 0 or initial > capacity:
            raise SimulationError("initial level outside [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self.level = float(initial)
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires when it fits under ``capacity``."""
        if amount < 0:
            raise SimulationError("put amount must be non-negative")
        event = _ContainerOp(self.sim)
        event.amount = amount
        self._putters.append(event)
        self._drain()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires when that much is available."""
        if amount < 0:
            raise SimulationError("get amount must be non-negative")
        event = _ContainerOp(self.sim)
        event.amount = amount
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                put_event = self._putters[0]
                if self.level + put_event.amount <= self.capacity:
                    self._putters.popleft()
                    self.level += put_event.amount
                    put_event.succeed()
                    progressed = True
            if self._getters:
                get_event = self._getters[0]
                if get_event.amount <= self.level:
                    self._getters.popleft()
                    self.level -= get_event.amount
                    get_event.succeed()
                    progressed = True

"""Outside-in per-layer tracing for the benchmark.

Nothing here touches the program's source: the tracer replaces entry
points of each layer (public functions and methods, module by module)
with observing wrappers while a traced run lasts, and puts every
original back afterwards.  A wrapper only records; arguments, return
values and exceptions pass through unchanged, so a traced run prints
byte-identical artifacts.

Time model:

* A *span* is one call into a wrapped entry point.  Spans nest on one
  stack per process; a layer's self time is the time inside its spans
  minus the time inside spans nested in them.
* A wrapped generator function (a simulation process) gets one span per
  *resume*, never one from open to close, so the time a process spends
  suspended in the event queue is not charged to its layer.
* Code reached through no wrapped entry point counts toward the
  innermost open span -- usually the kernel's run loop.

Worker processes (the replication pool, the sharded engine's worker
group) are forked from the traced parent and inherit the wrappers.  A
fork hook resets the child's totals; the child writes its cumulative
totals to ``<dump_dir>/<pid>.json`` each time its span stack empties,
and :meth:`LayerTracer.collect` folds those files into the parent's.

Counters come from the layers' own public attributes (``BlockCache.hits``
and the like): instances built while tracing are registered, and their
counter growth is harvested when they die or when the run is collected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Packages whose public classes and functions are each a layer's entry
#: points, discovered by walking the package.  ``experiments`` also
#: wraps its private module-level functions: the replication task
#: functions handed to worker pools are private there.
DISCOVERED_LAYERS = ("hardware", "workloads", "guestos", "vmm", "storage",
                     "gridnet", "middleware", "obs", "core", "scheduling",
                     "prediction", "experiments")

#: Entry points named one by one: engine layers whose helpers run once
#: per event, and the analysis passes.  (layer, module, qualname).
EXPLICIT_ENTRY_POINTS = (
    ("simulation.kernel", "repro.simulation.kernel", "Simulation.run"),
    ("simulation.kernel", "repro.simulation.kernel",
     "Simulation.run_until_complete"),
    ("simulation.sharded", "repro.simulation.sharded",
     "ShardedSimulation.run"),
    ("simulation.sharded", "repro.simulation.sharded", "ShardKernel.round"),
    ("simulation.sharded", "repro.simulation.sharded",
     "ShardKernel.finalize"),
    ("simulation.workerpool", "repro.simulation.workerpool",
     "PersistentWorkerGroup.roundtrip"),
    ("simulation.workerpool", "repro.simulation.workerpool",
     "PersistentWorkerGroup.send"),
    ("simulation.workerpool", "repro.simulation.workerpool",
     "PersistentWorkerGroup.recv"),
    ("experiments.runner", "repro.experiments.runner", "run_replications"),
    ("analysis.rules", "repro.analysis.cli", "run_analysis"),
    ("analysis.deep", "repro.analysis.cli", "run_deep_analysis"),
    ("analysis.shard", "repro.analysis.cli", "run_shard_analysis"),
    ("analysis.scale", "repro.analysis.cli", "run_scale_analysis"),
    ("analysis.project_build", "repro.analysis.dataflow.symbols",
     "build_project"),
    ("analysis.parse", "ast", "parse"),
)

#: Per-block helpers: called once per cache block, flow or metric update,
#: so a timing wrapper would cost more than the work it times.  Calls to
#: the ``count_only`` ones are still counted.
PER_BLOCK_HELPERS = frozenset({
    "repro.storage.cache.BlockCache.lookup",
    "repro.storage.cache.BlockCache.contains",
    "repro.storage.cache.BlockCache.insert",
    "repro.storage.cache.BlockCache.insert_run",
    "repro.storage.base.block_span",
    "repro.storage.localfs.LocalFileSystem.size",
    "repro.storage.nfs.NfsMount.size",
    "repro.storage.pvfs.PvfsProxy.size",
    "repro.hardware.disk.Disk.service_time",
    "repro.gridnet.flows.FlowPartition.group_of",
    "repro.gridnet.topology.Network.has_host",
    "repro.obs.metrics.Counter.inc",
    "repro.obs.metrics.Gauge.set",
    "repro.obs.windows.bucket_index",
    "repro.obs.metrics.storage_key",
})

#: Calls counted without a span: (metric key, module, qualname).
COUNT_ONLY = (
    ("storage.cache.insert_calls", "repro.storage.cache", "BlockCache.insert"),
    ("storage.cache.insert_calls", "repro.storage.cache",
     "BlockCache.insert_run"),
    ("analysis.node_visits", "ast", "iter_child_nodes"),
)

#: Public counter attributes, harvested per instance:
#: (module, class, {attribute: metric key}).
COUNTER_ATTRIBUTES = (
    ("repro.storage.cache", "BlockCache",
     {"hits": "storage.cache.hits", "misses": "storage.cache.misses"}),
    ("repro.storage.nfs", "NfsServer",
     {"rpc_count": "storage.nfs.rpcs", "bytes_served": "storage.nfs.bytes"}),
    ("repro.storage.pvfs", "PvfsProxy",
     {"prefetch_issued": "storage.pvfs.prefetch_blocks"}),
    ("repro.gridnet.flows", "FlowEngine",
     {"full_allocations": "gridnet.full_allocations",
      "fill_rounds": "gridnet.fill_rounds"}),
    ("repro.middleware.gram", "GramGateway",
     {"jobs_dispatched": "middleware.gram.jobs"}),
    ("repro.vmm.disk_image", "VirtualDisk",
     {"bytes_from_base": "vmm.disk.base_bytes",
      "bytes_from_diff": "vmm.disk.diff_bytes"}),
    ("repro.obs.recorder", "FlightRecorder",
     {"samples_taken": "obs.recorder.samples"}),
)

_MISSING = object()


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, current value) for a dotted name."""
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


def discover_entry_points(layer: str) -> List[Tuple[str, str]]:
    """(module, qualname) of every entry point of one discovered layer.

    Public module-level functions and public methods of public classes,
    each taken from the module that defines it (re-exports are skipped).
    Properties, static and class methods, ``lru_cache`` objects and
    dunders are left alone.
    """
    package = importlib.import_module("repro." + layer)
    names = [package.__name__] + sorted(
        info.name for info in pkgutil.walk_packages(
            package.__path__, package.__name__ + "."))
    found = []
    for module_name in names:
        if module_name == "repro.experiments.runner":
            continue  # its own layer, named explicitly
        module = importlib.import_module(module_name)
        private_ok = layer == "experiments"
        for name, value in sorted(vars(module).items()):
            if name.startswith("__") or (name.startswith("_")
                                         and not private_ok):
                continue
            if inspect.isfunction(value) and value.__module__ == module_name:
                found.append((module_name, name))
            elif (inspect.isclass(value) and value.__module__ == module_name
                  and not name.startswith("_")):
                for attr, member in sorted(vars(value).items()):
                    if attr.startswith("_") or not inspect.isfunction(member):
                        continue
                    found.append((module_name, "%s.%s" % (name, attr)))
    return [entry for entry in found
            if "%s.%s" % entry not in PER_BLOCK_HELPERS]


class Stats:
    """Totals one process accumulates (and a worker ships as JSON)."""

    FIELDS = ("self_s", "calls", "inclusive_s", "errors", "counters")

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        #: Sum of outermost span durations: the process's busy time.
        self.busy_s = 0.0

    def clear(self) -> None:
        """Zero every total in place (wrappers hold the dicts)."""
        for field in self.FIELDS:
            getattr(self, field).clear()
        self.busy_s = 0.0

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {field: dict(getattr(self, field))
                                for field in self.FIELDS}
        data["busy_s"] = self.busy_s
        return data

    def add(self, data: Dict[str, Any], sign: float = 1.0) -> None:
        for field in self.FIELDS:
            target = getattr(self, field)
            for key, value in data[field].items():
                target[key] += sign * value
        self.busy_s += sign * data["busy_s"]


class LayerTracer:
    """Installs observing wrappers; collects per-layer totals.

    Use as a context manager around the traced iterations.  ``dump_dir``
    receives one totals file per forked worker process.
    """

    def __init__(self, dump_dir: str, clock: Callable[[], float] =
                 time.perf_counter):
        self.dump_dir = dump_dir
        self.clock = clock
        self.stats = Stats()
        self.installed = False
        self.is_worker = False
        #: Open spans, innermost last: [layer, start, time in children].
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(instance) -> (weakref, {attribute: key}, last seen values).
        self._live: Dict[int, Tuple[Any, Dict[str, str], List[float]]] = {}
        self._sim_events: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self._parsed_files: set = set()
        self._fork_hook = False
        self._worker_baseline: Dict[str, Dict[str, Any]] = {}
        #: ShardRunResult objects seen by the coordinator span.
        self.shard_runs: List[Any] = []
        #: Summed (roundtrip wall - worker round CPU) over round trips.
        self.barrier_wait_s = 0.0
        self.runner_tasks = 0
        self.runner_pool_wait_s = 0.0
        self.runner_pool_workers = 0

    # -- spans ---------------------------------------------------------------

    def _close(self, frame: List[Any]) -> float:
        """End the innermost span; charge its self time; return its length."""
        elapsed = self.clock() - frame[1]
        stack = self._stack
        stack.pop()
        self.stats.self_s[frame[0]] += elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed
        else:
            self.stats.busy_s += elapsed
            if self.is_worker:
                self._dump()
        return elapsed

    def _span_wrapper(self, fn: Callable, layer: str, key: str,
                      observe: Optional[Callable] = None) -> Callable:
        stats, stack, clock, close = (self.stats, self._stack, self.clock,
                                      self._close)
        calls, errors, inclusive = stats.calls, stats.errors, \
            stats.inclusive_s
        if inspect.isgeneratorfunction(fn):
            resumes = self._resume_loop

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[key] += 1
                generator = fn(*args, **kwargs)
                wrapped = resumes(generator, layer)
                wrapped.__name__ = generator.__name__
                wrapped.__qualname__ = generator.__qualname__
                return wrapped
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                close(frame)
                raise
            elapsed = close(frame)
            inclusive[key] += elapsed
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            return result
        return wrapper

    def _resume_loop(self, generator, layer: str):
        """Re-yield ``generator``, one span per resume."""
        stack, clock, close = self._stack, self.clock, self._close
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                if thrown is None:
                    out = generator.send(value)
                else:
                    exc, thrown = thrown, None
                    out = generator.throw(exc)
            except StopIteration as stop:
                close(frame)
                return stop.value
            except BaseException:
                close(frame)
                raise
            close(frame)
            try:
                value = yield out
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # delivered into the process
                thrown, value = exc, None

    # -- counters ------------------------------------------------------------

    def _counting_wrapper(self, fn: Callable, key: str) -> Callable:
        counters = self.stats.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _register_instance(self, obj: Any, attrs: Dict[str, str]) -> None:
        self._live[id(obj)] = (weakref.ref(obj), attrs,
                               [getattr(obj, a, 0) for a in attrs])

    def _harvest_one(self, obj: Any) -> None:
        # Keyed by id alone: during a finalizer the collector may have
        # cleared the weak reference already, but the id is still ours.
        entry = self._live.get(id(obj))
        if entry is None:
            return
        _ref, attrs, last = entry
        for index, (attr, key) in enumerate(attrs.items()):
            value = getattr(obj, attr, 0)
            self.stats.counters[key] += value - last[index]
            last[index] = value

    def harvest(self) -> None:
        """Fold counter growth of every live registered instance."""
        for ref, _attrs, _last in list(self._live.values()):
            obj = ref()
            if obj is not None:
                self._harvest_one(obj)

    def _instance_probe(self, cls: type, attrs: Dict[str, str]):
        """(``__init__``, ``__del__``) that register and harvest ``cls``."""
        base_init = cls.__init__
        tracer = self

        @functools.wraps(base_init)
        def __init__(obj, *args, **kwargs):
            base_init(obj, *args, **kwargs)
            tracer._register_instance(obj, attrs)

        def __del__(obj):
            # Harvest the final growth before the instance disappears.
            try:
                tracer._harvest_one(obj)
                tracer._live.pop(id(obj), None)
            except Exception:  # a finalizer must never raise
                pass
        return __init__, __del__

    def _observe_sim_run(self, args, _kwargs, _result, _elapsed) -> None:
        sim = args[0]
        seen = self._sim_events.get(sim, 0)
        self.stats.counters["simulation.kernel.events"] += \
            sim._next_id - seen
        self._sim_events[sim] = sim._next_id

    def _observe_shard_run(self, _args, _kwargs, result, _elapsed) -> None:
        self.shard_runs.append(result)

    def _observe_roundtrip(self, args, _kwargs, replies, elapsed) -> None:
        requests = args[1]
        for (_worker, request), reply in zip(requests, replies):
            if request[0] == "round":
                busy = sum(report["cpu"] for report in reply.values())
                self.barrier_wait_s += max(0.0, elapsed - busy)

    def _observe_replications(self, args, kwargs, _result, elapsed) -> None:
        tasks = list(args[1]) if len(args) > 1 else list(kwargs["tasks"])
        workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
        self.runner_tasks += len(tasks)
        if workers and workers > 1 and len(tasks) > 1:
            self.runner_pool_wait_s += elapsed
            self.runner_pool_workers = max(self.runner_pool_workers,
                                           workers)

    def _observe_parse(self, args, kwargs, _result, _elapsed) -> None:
        filename = kwargs.get("filename", args[1] if len(args) > 1
                              else "<unknown>")
        self._parsed_files.add(filename)

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def _patch_function(self, module_name: str, qualname: str,
                        replacement: Callable, original: Callable) -> None:
        owner, name, _current = _resolve(module_name, qualname)
        self._patch(owner, name, replacement)
        if "." in qualname:
            return
        # Modules that imported the function by name hold their own
        # reference; point those at the wrapper too.
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "")
            if other is owner or not other_name.startswith("repro"):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, attr, replacement)

    def _observer_for(self, module_name: str, qualname: str):
        return {
            "Simulation.run": self._observe_sim_run,
            "Simulation.run_until_complete": self._observe_sim_run,
            "ShardedSimulation.run": self._observe_shard_run,
            "PersistentWorkerGroup.roundtrip": self._observe_roundtrip,
            "run_replications": self._observe_replications,
            "parse": self._observe_parse,
        }.get(qualname)

    def install(self) -> "LayerTracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        targets = [(layer, module, qualname) for layer in DISCOVERED_LAYERS
                   for module, qualname in discover_entry_points(layer)]
        targets += list(EXPLICIT_ENTRY_POINTS)
        seen = set()
        for layer, module_name, qualname in targets:
            owner, name, original = _resolve(module_name, qualname)
            if (id(owner), name) in seen:
                continue  # a class bound to two names: wrap it once
            seen.add((id(owner), name))
            key = "%s.%s" % (module_name, qualname)
            wrapper = self._span_wrapper(
                original, layer, key,
                self._observer_for(module_name, qualname))
            self._patch_function(module_name, qualname, wrapper, original)
        for key, module_name, qualname in COUNT_ONLY:
            _owner, _name, original = _resolve(module_name, qualname)
            self._patch_function(module_name, qualname,
                                 self._counting_wrapper(original, key),
                                 original)
        for module_name, class_name, attrs in COUNTER_ATTRIBUTES:
            cls = getattr(importlib.import_module(module_name), class_name)
            init, finalizer = self._instance_probe(cls, attrs)
            self._patch(cls, "__init__", init)
            self._patch(cls, "__del__", finalizer)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        self.installed = True
        return self

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        self.harvest()
        for owner, name, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches = []
        self._live.clear()
        self.installed = False

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- worker processes ----------------------------------------------------

    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.is_worker = True
        del self._stack[:]
        self.stats.clear()
        self.shard_runs = []

    def _dump(self) -> None:
        self.harvest()
        path = os.path.join(self.dump_dir, "%d.json" % os.getpid())
        scratch = path + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(self.stats.to_dict(), handle)
        os.replace(scratch, path)

    def _read_worker_dumps(self) -> Dict[str, Dict[str, Any]]:
        dumps = {}
        if not os.path.isdir(self.dump_dir):
            return dumps
        for name in sorted(os.listdir(self.dump_dir)):
            if name.endswith(".json"):
                with open(os.path.join(self.dump_dir, name),
                          encoding="utf-8") as handle:
                    dumps[name] = json.load(handle)
        return dumps

    def reset(self) -> None:
        """Start counting afresh (after a warm-up iteration)."""
        self.harvest()
        self.stats.clear()
        self._parsed_files = set()
        self.shard_runs = []
        self.barrier_wait_s = 0.0
        self.runner_tasks = 0
        self.runner_pool_wait_s = 0.0
        self._worker_baseline = self._read_worker_dumps()

    def collect(self) -> Tuple[Stats, Stats]:
        """(parent totals, summed worker totals since the last reset)."""
        self.harvest()
        workers = Stats()
        for name, data in self._read_worker_dumps().items():
            workers.add(data)
            if name in self._worker_baseline:
                workers.add(self._worker_baseline[name], sign=-1.0)
        return self.stats, workers

    @property
    def parsed_files(self) -> int:
        return len(self._parsed_files)

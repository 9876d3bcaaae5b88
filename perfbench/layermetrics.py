"""Per-layer metrics of a traced run, from the tracer's totals.

Every value is per traced iteration: totals over the traced iterations
of the parent and all its worker processes, divided by their number.
A layer a workload does not reach reports 0.
"""

from __future__ import annotations

from typing import Dict, Optional

from layertrace import Stats

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    "simulation.kernel.events": "count",
    "simulation.kernel.self_s": "s",
    "simulation.kernel.ns_per_event": "ns",
    "hardware.calls": "count",
    "hardware.self_s": "s",
    "workloads.self_s": "s",
    "guestos.self_s": "s",
    "vmm.calls": "count",
    "vmm.self_s": "s",
    "vmm.disk.base_bytes": "B",
    "vmm.disk.diff_bytes": "B",
    "storage.self_s": "s",
    "storage.cache.lookups": "count",
    "storage.cache.hit_ratio": "ratio",
    "storage.cache.insert_calls": "count",
    "storage.nfs.rpcs": "count",
    "storage.nfs.bytes": "B",
    "storage.pvfs.prefetch_blocks": "count",
    "gridnet.flows_started": "count",
    "gridnet.full_allocations": "count",
    "gridnet.fill_rounds": "count",
    "gridnet.self_s": "s",
    "middleware.sessions": "count",
    "middleware.gram.jobs": "count",
    "middleware.self_s": "s",
    "obs.recorder.samples": "count",
    "obs.self_s": "s",
    "core.self_s": "s",
    "experiments.self_s": "s",
    "experiments.runner.tasks": "count",
    "experiments.runner.wait_s": "s",
    "experiments.runner.parallel_efficiency": "ratio",
    "experiments.runner.failed_tasks": "count",
    "simulation.sharded.rounds": "count",
    "simulation.sharded.messages": "count",
    "simulation.sharded.coordinator_s": "s",
    "simulation.sharded.barrier_wait_s": "s",
    "simulation.sharded.critical_path_s": "s",
    "simulation.workerpool.roundtrips": "count",
    "simulation.workerpool.roundtrip_s": "s",
    "simulation.workerpool.errors": "count",
    "analysis.files": "count",
    "analysis.parses": "count",
    "analysis.node_visits": "count",
    "analysis.parse_s": "s",
    "analysis.project_build_s": "s",
    "analysis.rules_s": "s",
    "analysis.deep_s": "s",
    "analysis.shard_s": "s",
    "analysis.scale_s": "s",
    "analysis.findings": "count",
    "trace.overhead_pct": "%",
}

_ROUNDTRIP = "repro.simulation.workerpool.PersistentWorkerGroup.roundtrip"
_REPLICATIONS = "repro.experiments.runner.run_replications"


def _critical_path(run) -> float:
    """Modelled makespan: slowest worker's summed round CPU + coordinator."""
    busy = [0.0] * max(1, run.workers)
    for index, group in enumerate(run.plan.groups):
        busy[index % len(busy)] += run.cpu.get(group, 0.0)
    return max(busy) + run.coordinator_cpu


def layer_metrics(tracer, parent, workers, iterations: int,
                  findings: Optional[int] = None) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER_UNITS` except the overhead."""
    total = Stats()
    total.add(parent.to_dict())
    total.add(workers.to_dict())
    per = 1.0 / max(1, iterations)

    def calls(prefix: str) -> float:
        return per * sum(count for key, count in total.calls.items()
                         if key.startswith(prefix))

    def self_s(layer: str) -> float:
        return per * sum(seconds for key, seconds in total.self_s.items()
                         if key == layer or key.startswith(layer + "."))

    def counter(key: str) -> float:
        return per * total.counters.get(key, 0.0)

    events = counter("simulation.kernel.events")
    kernel_s = per * total.self_s.get("simulation.kernel", 0.0)
    hits, misses = counter("storage.cache.hits"), counter(
        "storage.cache.misses")
    pool_wait = tracer.runner_pool_wait_s
    efficiency = (workers.busy_s / (tracer.runner_pool_workers * pool_wait)
                  if pool_wait > 0 else 0.0)
    runs = tracer.shard_runs
    return {
        "simulation.kernel.events": events,
        "simulation.kernel.self_s": kernel_s,
        "simulation.kernel.ns_per_event": (1e9 * kernel_s / events
                                           if events else 0.0),
        "hardware.calls": calls("repro.hardware."),
        "hardware.self_s": self_s("hardware"),
        "workloads.self_s": self_s("workloads"),
        "guestos.self_s": self_s("guestos"),
        "vmm.calls": calls("repro.vmm."),
        "vmm.self_s": self_s("vmm"),
        "vmm.disk.base_bytes": counter("vmm.disk.base_bytes"),
        "vmm.disk.diff_bytes": counter("vmm.disk.diff_bytes"),
        "storage.self_s": self_s("storage"),
        "storage.cache.lookups": hits + misses,
        "storage.cache.hit_ratio": (hits / (hits + misses)
                                    if hits + misses else 0.0),
        "storage.cache.insert_calls": counter("storage.cache.insert_calls"),
        "storage.nfs.rpcs": counter("storage.nfs.rpcs"),
        "storage.nfs.bytes": counter("storage.nfs.bytes"),
        "storage.pvfs.prefetch_blocks": counter(
            "storage.pvfs.prefetch_blocks"),
        "gridnet.flows_started": calls(
            "repro.gridnet.flows.FlowEngine.start_flow"),
        "gridnet.full_allocations": counter("gridnet.full_allocations"),
        "gridnet.fill_rounds": counter("gridnet.fill_rounds"),
        "gridnet.self_s": self_s("gridnet"),
        "middleware.sessions": calls(
            "repro.middleware.session.GridSession.establish"),
        "middleware.gram.jobs": counter("middleware.gram.jobs"),
        "middleware.self_s": self_s("middleware"),
        "obs.recorder.samples": counter("obs.recorder.samples"),
        "obs.self_s": self_s("obs"),
        "core.self_s": self_s("core"),
        "experiments.self_s": per * total.self_s.get("experiments", 0.0),
        "experiments.runner.tasks": per * tracer.runner_tasks,
        "experiments.runner.wait_s": per * pool_wait,
        "experiments.runner.parallel_efficiency": efficiency,
        "experiments.runner.failed_tasks": per * total.errors.get(
            _REPLICATIONS, 0),
        "simulation.sharded.rounds": per * sum(run.rounds for run in runs),
        "simulation.sharded.messages": per * sum(run.messages_delivered
                                                 for run in runs),
        "simulation.sharded.coordinator_s": per * parent.self_s.get(
            "simulation.sharded", 0.0),
        "simulation.sharded.barrier_wait_s": per * tracer.barrier_wait_s,
        "simulation.sharded.critical_path_s": per * sum(
            _critical_path(run) for run in runs),
        "simulation.workerpool.roundtrips": calls(_ROUNDTRIP),
        "simulation.workerpool.roundtrip_s": per * total.inclusive_s.get(
            _ROUNDTRIP, 0.0),
        "simulation.workerpool.errors": per * sum(
            count for key, count in total.errors.items()
            if key.startswith("repro.simulation.workerpool.")),
        "analysis.files": float(tracer.parsed_files),
        "analysis.parses": calls("ast.parse"),
        "analysis.node_visits": counter("analysis.node_visits"),
        "analysis.parse_s": self_s("analysis.parse"),
        "analysis.project_build_s": self_s("analysis.project_build"),
        "analysis.rules_s": self_s("analysis.rules"),
        "analysis.deep_s": self_s("analysis.deep"),
        "analysis.shard_s": self_s("analysis.shard"),
        "analysis.scale_s": self_s("analysis.scale"),
        "analysis.findings": float(findings or 0),
    }

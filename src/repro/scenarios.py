"""The scenario table: one row per experiment, behind every CLI command.

Each :class:`Scenario` row says how to render one artifact (Table 1,
Table 2, Figure 1, the fleet run, the ablations, overlay routing and
migration), its default ``--samples``, whether ``repro all`` prints
it, and — for the paper's three artifacts — the single-session world
that ``trace``, ``metrics``, ``record``, ``report`` and ``sanitize``
replay.  ``profile`` runs a row's real artifact under :mod:`cProfile`.

The experiment modules (``repro.experiments.*``) sweep many
configurations and average over samples — good for tables, bad for
traces: a trace wants *one* representative run with every subsystem
exercised.  A :class:`LifeCycleWorld` is that run: a small grid and one
complete six-step :class:`~repro.middleware.session.GridSession` life
cycle, so the exported timeline shows information-service queries,
the image data session, globusrun startup, guest execution and
teardown on one screen.  Worlds are deterministic: same name + seed
produces a byte-identical Chrome trace (no wall-clock reads anywhere
in the stack — enforced by simlint rule R2).

The experiment modules are imported when a row runs, never when this
module loads, so ``import repro.cli`` stays cheap.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.grid import VirtualGrid
from repro.core.reporting import format_table
from repro.middleware.session import SessionConfig
from repro.obs.recorder import FlightRecorder
from repro.obs.tracer import Tracer
from repro.simulation.kernel import Simulation, SimulationError
from repro.workloads.applications import synthetic_compute

__all__ = ["LIFECYCLE", "LifeCycleWorld", "SCENARIOS", "Scenario",
           "run_scenario", "scenario"]


@dataclass(frozen=True)
class LifeCycleWorld:
    """One compute host, image and data servers, one session.

    ``two_sites`` places the servers across the paper's WAN link
    (Table 1's Florida/Northwestern testbed); otherwise everything
    shares one LAN (Table 2's local configurations).
    """

    two_sites: bool
    image_access: str
    start_mode: str
    app_seconds: float
    app_name: str

    def build(self, sim: Simulation, seed: int = 0):
        """The grid, session config and workload: ``(grid, config, app)``."""
        from repro.experiments.testbed import MB, REDUCED_GUEST

        grid = VirtualGrid(sim=sim, seed=seed)
        grid.add_site("uf")
        server_site = "nw" if self.two_sites else "uf"
        if self.two_sites:
            grid.add_site("nw")
        grid.add_compute_host("compute1", site="uf")
        grid.add_image_server("images1", site=server_site)
        grid.publish_image("images1", "rh72", 256 * MB, warm_state_mb=64)
        grid.add_data_server("data1", site=server_site)
        grid.add_user("ana")
        config = SessionConfig(user="ana", image="rh72",
                               image_access=self.image_access,
                               start_mode=self.start_mode,
                               guest_profile=REDUCED_GUEST)
        return grid, config, synthetic_compute(self.app_seconds,
                                               name=self.app_name)


@dataclass(frozen=True)
class Scenario:
    """One experiment: its artifact and what the other commands replay."""

    #: The artifact's text for the parsed command line.
    artifact: Callable[[argparse.Namespace], str]
    #: ``--samples`` when the command line gives none.
    samples: int = 10
    #: Whether ``repro all`` prints it.
    in_all: bool = True
    #: The single-session life cycle of ``trace``/``metrics``/... .
    world: Optional[LifeCycleWorld] = None


def _table1(args) -> str:
    from repro.experiments.table1 import run_table1

    try:
        scale = float(args.scale) if args.scale is not None else 1.0
    except ValueError:
        raise SimulationError("--scale must be a number, got %r"
                              % (args.scale,)) from None
    rows = run_table1(scale=scale, seed=args.seed, workers=args.workers)
    return format_table(
        ["Application", "Resource", "User(s)", "Sys(s)", "Total(s)",
         "Overhead"],
        [[r.application, r.resource, "%.0f" % r.user_time,
          "%.1f" % r.sys_time, "%.0f" % r.total_time,
          "%.2f%%" % (100 * r.overhead) if r.overhead is not None
          else "N/A"] for r in rows],
        title="Table 1: macrobenchmark results")


def _table2(args) -> str:
    from repro.experiments.table2 import run_table2

    rows = run_table2(samples=args.samples, seed=args.seed,
                      workers=args.workers)
    return format_table(
        ["Start", "Storage", "Mean(s)", "Std", "Min", "Max"],
        [[r.start_mode, r.storage_mode, "%.1f" % r.mean, "%.1f" % r.std,
          "%.1f" % r.minimum, "%.1f" % r.maximum] for r in rows],
        title="Table 2: VM startup times via globusrun")


def _figure1(args) -> str:
    from repro.experiments.figure1 import run_figure1

    results = run_figure1(samples=args.samples, seed=args.seed,
                          workers=args.workers)
    return format_table(
        ["Load", "Test on", "Load on", "Mean slowdown", "Std"],
        [[r.load_level, r.test_on, r.load_on, "%.3f" % r.mean_slowdown,
          "%.3f" % r.std_slowdown] for r in results],
        title="Figure 1: microbenchmark slowdown (12 scenarios)")


def _fleet(args) -> str:
    from repro.experiments.fleet import run_fleet

    result = run_fleet(sites=args.sites, sessions=args.sessions,
                       seed=args.seed, shards=args.shards,
                       interval=args.interval, capacity=args.capacity,
                       adaptive=not args.fixed_windows)
    parts = [result.render(), result.merged_metrics().to_table(
        title="Fleet metrics (merged across %d site shard(s))"
        % len(result.sites))]
    if args.out:
        recorder = result.merged_recorder()
        count = recorder.write(args.out)
        parts.append("\nwrote %s: %d merged heartbeat(s) at %gs intervals"
                     % (args.out, count, args.interval))
    return "\n".join(parts)


def _ablations(args) -> str:
    from repro.experiments.ablations import (
        run_proxy_cache_ablation,
        run_scheduler_ablation,
        run_staging_ablation,
    )

    cache = run_proxy_cache_ablation(seed=args.seed, workers=args.workers)
    tables = [format_table(
        ["Proxy cache", "Cold(s)", "Warm mean(s)"],
        [["on" if r.proxy_cache else "off", "%.1f" % r.cold,
          "%.1f" % r.warm_mean] for r in cache],
        title="A1: proxy cache")]
    sched = run_scheduler_ablation(seed=args.seed, workers=args.workers)
    tables.append(format_table(
        ["Mechanism", "VM", "Target", "Achieved"],
        [[r.mechanism, r.vm, "%.3f" % r.target, "%.3f" % r.achieved]
         for r in sched],
        title="A2: enforcement mechanisms"))
    staging = run_staging_ablation(workers=args.workers)
    tables.append(format_table(
        ["Fraction", "On-demand(s)", "Staged(s)", "Winner"],
        [["%.2f" % p.fraction, "%.1f" % p.on_demand_time,
          "%.1f" % p.staged_time,
          "on-demand" if p.on_demand_wins else "staged"]
         for p in staging],
        title="A3: staging vs on-demand"))
    return "\n\n".join(tables)


def _overlay(args) -> str:
    from repro.experiments.overlay_experiment import run_overlay_experiment

    trials = run_overlay_experiment(seed=args.seed)
    return format_table(
        ["Trial", "Improved pairs", "Direct(ms)", "Overlay(ms)"],
        [[i, "%d/%d" % (t.pairs_improved, t.pairs),
          "%.1f" % (1e3 * t.mean_direct_latency),
          "%.1f" % (1e3 * t.mean_overlay_latency)]
         for i, t in enumerate(trials)],
        title="O1: overlay routing")


def _migration(args) -> str:
    from repro.experiments.migration_experiment import (
        run_migration_experiment,
    )

    result = run_migration_experiment(seed=args.seed)
    return format_table(
        ["Metric", "Value"],
        [["downtime", "%.1f s" % result.downtime],
         ["completion (migrated)", "%.1f s" % result.completion_time],
         ["completion (baseline)",
          "%.1f s" % result.baseline_completion_time],
         ["mounts preserved", str(result.mounts_preserved)],
         ["final host", result.final_host]],
        title="M1: migration")


#: Every experiment, in the order ``repro all`` prints them.
SCENARIOS: Dict[str, Scenario] = {
    # Macrobenchmark: cold boot across the WAN, data served from the
    # user's home institution.
    "table1": Scenario(_table1, world=LifeCycleWorld(
        two_sites=True, image_access="pvfs", start_mode="boot",
        app_seconds=30.0, app_name="macrobench")),
    # Microbenchmark: plain NFS image access, short compute probes on
    # an otherwise idle VM.
    "figure1": Scenario(_figure1, samples=150, world=LifeCycleWorld(
        two_sites=False, image_access="nfs", start_mode="boot",
        app_seconds=2.0, app_name="microbench-probe")),
    # Startup time: warm restore over a proxied LAN mount, the
    # configuration Table 2 shows winning.
    "table2": Scenario(_table2, world=LifeCycleWorld(
        two_sites=False, image_access="pvfs", start_mode="restore",
        app_seconds=5.0, app_name="startup-probe")),
    "fleet": Scenario(_fleet, in_all=False),
    "ablations": Scenario(_ablations),
    "overlay": Scenario(_overlay),
    "migration": Scenario(_migration),
}

#: The rows with a single-session life-cycle world.
LIFECYCLE = tuple(name for name, row in SCENARIOS.items() if row.world)


def scenario(name: Optional[str], lifecycle: bool = False) -> Scenario:
    """The row called ``name`` (a life-cycle row if ``lifecycle``).

    Raises :class:`SimulationError` naming the valid choices otherwise.
    """
    names = LIFECYCLE if lifecycle else tuple(SCENARIOS)
    if name not in names:
        kind = "life-cycle scenario" if lifecycle else "scenario"
        problem = ("no %s given" % kind if name is None
                   else "%r is not a %s" % (name, kind))
        raise SimulationError("%s (one of: %s)"
                              % (problem, ", ".join(names)))
    return SCENARIOS[name]


def run_scenario(name: str, seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 recorder_interval: Optional[float] = None,
                 recorder_capacity: int = 512):
    """Drive one row's life-cycle world; returns the Simulation.

    The run covers all six steps of Section 4's life cycle: establish
    (steps 1-5), application execution (step 6), a user-data sync and
    an orderly shutdown.  With ``recorder_interval`` set, a
    :class:`~repro.obs.recorder.FlightRecorder` heartbeats alongside
    the run and the return value becomes ``(sim, grid, recorder)``.
    Attaching the recorder cannot change the run: the heartbeat draws
    no randomness and mutates no model state.
    """
    world = scenario(name, lifecycle=True).world
    sim = Simulation(seed=seed, tracer=tracer)
    grid, config, app = world.build(sim, seed=seed)
    recorder = None
    if recorder_interval is not None:
        recorder = FlightRecorder(sim, interval=recorder_interval,
                                  capacity=recorder_capacity)
        recorder.start()
    # Partition-aware tracers (the shard-affinity sanitizer) learn the
    # host -> partition map once the topology exists; duck-typed so
    # this module needs no analysis imports.
    bind_grid = getattr(tracer, "bind_grid", None)
    if bind_grid is not None:
        bind_grid(grid)
    session = grid.new_session(config)

    def drive(_sim):
        yield from session.establish()
        yield from session.run_application(app)
        yield from session.shutdown()

    grid.run(drive(sim), name="scenario.%s" % name)
    if recorder is not None:
        recorder.stop()
        return sim, grid, recorder
    return sim

"""Command-line interface: regenerate the paper's artifacts.

Usage::

    python -m repro SCENARIO [--seed N] [--samples N] [--workers N]
    python -m repro all [--seed N]
    python -m repro fleet [--sites 3] [--sessions 3] [--shards 4]
                          [--interval T] [--out flight.jsonl]
    python -m repro {trace,metrics,record,report,sanitize} WORLD [--seed N]
    python -m repro profile SCENARIO [--seed N] [--top K]
    python -m repro analyze [--path SRC ...] [--deep] [--shard]
                            [--scale] [--shard-inventory FILE]
                            [--scale-inventory FILE] [--explain RULE]
                            [--json | --sarif] [--baseline FILE]

A SCENARIO is a row of the table in :mod:`repro.scenarios`: ``table1``
(``--scale F``), ``table2``, ``figure1``, ``fleet``, ``ablations``,
``overlay`` or ``migration``.  Each prints the same table the
benchmark harness archives, at the row's default ``--samples`` (150
for figure1, 10 otherwise) unless one is given; ``all`` prints every
row but fleet.  A WORLD is a row with a single-session life-cycle
world (``table1``, ``figure1``, ``table2``).

``trace`` replays that life cycle and writes a Chrome-trace-event JSON
file (``--out``; load it at ui.perfetto.dev); ``metrics`` prints the
metrics registry after the same run (``--json``).  ``record`` replays
it with a flight recorder heartbeating every ``--interval`` simulated
seconds and writes the snapshot ring as JSONL (``--capacity``,
``--out``; byte-identical per seed); ``report`` renders the same run
as an operator report — throughput, latency percentiles, utilization,
SLA violations and a per-partition rollup (``--format
text|markdown``).  See ``docs/observability.md``.  ``sanitize``
replays it under the simsan runtime determinism sanitizer and exits
non-zero on hazards or output divergence; ``--shard-model site|host``
swaps in the shard-affinity sanitizer, which additionally reports
cross-partition event deliveries (zero-delay ones are hazards,
lookahead-covered ones informational).

``profile`` runs a scenario's real artifact in this process under
:mod:`cProfile`, at the scale the scenario options set, and prints the
top functions by cumulative time (``docs/performance.md``).

``analyze`` runs the simlint static-analysis pass (see
``docs/static_analysis.md``) and exits non-zero on findings —
``--deep`` adds the interprocedural dataflow rules R11-R14,
``--shard`` the shard-affinity rules R15-R19 (``--shard-inventory``
also regenerates ``docs/shard-safety.md``) and ``--scale`` the
growth-dimension rules R22-R26 (``--scale-inventory`` also regenerates
``docs/scale-readiness.md``); ``--explain R22`` prints one rule's full
documentation.

``--workers N`` fans independent replications (Table 1's macro runs,
Table 2's samples, Figure 1's scenarios, the ablation worlds) across N
persistent worker processes (``docs/performance.md``); every artifact
is byte-identical for any worker count, including the single-world
``trace``/``metrics`` runs, which stay sequential by construction.

``--shards N`` is for ``fleet`` only, the message-coupled multi-site
scenario: one partition kernel per site under the deterministic
conservative protocol of :mod:`repro.simulation.sharded`
(``docs/sharding.md``), up to N of them in parallel, with adaptive
conservative windows (``--fixed-windows`` for the A/B schedule).  Its
artifacts are byte-identical for any shard count.  Any other command
rejects ``--shards`` other than 1 and points to ``--workers``.

Bad input (a value the model rejects, such as ``--samples 0``,
``--workers 0`` or a fleet that overfills a host) exits 2 with one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.scenarios import LIFECYCLE, SCENARIOS, run_scenario, scenario

__all__ = ["main"]


def _print_artifact(name: Optional[str], args) -> None:
    """Print one scenario's artifact, at its own default ``--samples``."""
    row = scenario(name)
    samples = row.samples if args.samples is None else args.samples
    print(row.artifact(argparse.Namespace(**dict(vars(args),
                                              samples=samples))))


def _cmd_trace(args) -> None:
    from repro.obs.chrome import export_chrome_trace
    from repro.obs.tracer import TraceRecorder

    recorder = TraceRecorder()
    sim = run_scenario(args.target, seed=args.seed, tracer=recorder)
    out = args.out or "%s-trace.json" % args.target
    count = export_chrome_trace(recorder, out)
    print("wrote %s: %d trace events, %.2f simulated seconds"
          % (out, count, sim.now))


def _cmd_metrics(args) -> None:
    sim = run_scenario(args.target, seed=args.seed)
    if args.json:
        print(sim.metrics.to_json())
    else:
        print(sim.metrics.to_table(
            title="Metrics: %s (seed %d)" % (args.target, args.seed)))


def _cmd_record(args) -> None:
    out = args.out or "%s-record.jsonl" % args.target
    sim, _grid, recorder = run_scenario(
        args.target, seed=args.seed, recorder_interval=args.interval,
        recorder_capacity=args.capacity)
    count = recorder.write(out)
    print("wrote %s: %d heartbeat(s) at %gs intervals, "
          "%.2f simulated seconds"
          % (out, count, args.interval, sim.now))


def _cmd_report(args) -> None:
    from repro.obs.report import render_report

    sim, grid, recorder = run_scenario(
        args.target, seed=args.seed, recorder_interval=args.interval,
        recorder_capacity=args.capacity)
    print(render_report(
        sim, grid=grid, recorder=recorder,
        title="Run report: %s (seed %d)" % (args.target, args.seed),
        fmt=args.format), end="")


def _cmd_profile(args) -> None:
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.runcall(_print_artifact, args.target, args)
    print("profile: %s, seed %d" % (args.target, args.seed))
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)


def _cmd_analyze(args) -> int:
    from repro.analysis.cli import main as simlint_main

    argv = list(args.path or [])
    if args.deep:
        argv.append("--deep")
    if args.shard:
        argv.append("--shard")
    if args.shard_inventory:
        argv.append("--shard-inventory=%s" % args.shard_inventory)
    if args.scale is not None:
        argv.append("--scale")
    if args.scale_inventory:
        argv.append("--scale-inventory=%s" % args.scale_inventory)
    if args.explain:
        argv.append("--explain=%s" % args.explain)
    if args.sarif:
        argv.append("--format=sarif")
    elif args.json:
        argv.append("--format=json")
    if args.baseline:
        argv.append("--baseline=%s" % args.baseline)
    return simlint_main(argv)


def _cmd_sanitize(args) -> int:
    if args.shard_model:
        from repro.analysis.shardsan import ShardAffinitySanitizer

        sanitizer = ShardAffinitySanitizer(shard_model=args.shard_model)
    else:
        from repro.analysis.sanitizer import DeterminismSanitizer

        sanitizer = DeterminismSanitizer()
    sim = run_scenario(args.target, seed=args.seed, tracer=sanitizer)
    hazards = sanitizer.finish()
    # The sanitizer must be a pure observer: replay the scenario
    # untraced and require byte-identical experiment output.
    plain = run_scenario(args.target, seed=args.seed)
    identical = (sim.now == plain.now  # simlint: disable=R6  bytewise
                 and sim.metrics.to_json() == plain.metrics.to_json())
    for hazard in hazards:
        print(hazard.render())
    crossings = getattr(sanitizer, "crossings", ())
    for crossing in crossings:
        print(crossing.render())
    suffix = ""
    if args.shard_model:
        suffix = (", %d cross-partition crossing(s) under the %s model"
                  % (len(crossings), args.shard_model))
    print("simsan: %s, seed %d: %d hazard(s), %.2f simulated seconds, "
          "output %s%s"
          % (args.target, args.seed, len(hazards), sim.now,
             "identical to untraced run" if identical
             else "DIVERGED from untraced run", suffix))
    # Crossings are informational (shardable with lookahead); only
    # hazards — including shard violations — and divergence fail.
    return 1 if hazards or not identical else 0


#: The commands that are not a scenario of their own.
_TOOLS = {
    "analyze": _cmd_analyze,
    "sanitize": _cmd_sanitize,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "record": _cmd_record,
    "report": _cmd_report,
    "profile": _cmd_profile,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'A Case For Grid "
                    "Computing On Virtual Machines' (ICDCS 2003).")
    parser.add_argument("command",
                        choices=sorted([*SCENARIOS, *_TOOLS]) + ["all"],
                        help="which artifact to regenerate")
    parser.add_argument("target", nargs="?", default=None,
                        help="profile: which scenario; trace, metrics, "
                             "record, report and sanitize: which "
                             "life-cycle world (%s)" % ", ".join(LIFECYCLE))
    parser.add_argument("--seed", type=int, default=0,
                        help="root random seed (default 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="table1/table2/figure1/ablations: "
                             "replication worker processes (default 1: "
                             "sequential; results are byte-identical "
                             "for any value)")
    parser.add_argument("--shards", type=int, default=1,
                        help="fleet: run up to N site kernels in "
                             "parallel (default 1; results are "
                             "byte-identical for any value — see "
                             "docs/sharding.md)")
    parser.add_argument("--fixed-windows", action="store_true",
                        help="fleet: disable adaptive conservative "
                             "windows (A/B the round count; artifacts "
                             "other than the rounds row are identical)")
    parser.add_argument("--sites", type=int, default=3,
                        help="fleet: number of sites (default 3)")
    parser.add_argument("--sessions", type=int, default=3,
                        help="fleet: sessions per site (default 3)")
    parser.add_argument("--out", default=None,
                        help="trace/record: output file "
                             "(default <target>-trace.json or "
                             "<target>-record.jsonl); "
                             "fleet: merged flight-record JSONL path")
    parser.add_argument("--scale", nargs="?", const="1", default=None,
                        metavar="FACTOR",
                        help="table1: application scale factor "
                             "(default 1.0); analyze: add the "
                             "growth-dimension pass (rules R22-R26)")
    parser.add_argument("--scale-inventory", default=None, metavar="FILE",
                        help="analyze: regenerate the scale-readiness "
                             "inventory at FILE (implies --scale)")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="analyze: print one rule's documentation "
                             "(e.g. --explain R22) and exit")
    parser.add_argument("--samples", type=int, default=None,
                        help="table2/figure1: sample count (default: "
                             "the scenario's own)")
    parser.add_argument("--path", action="append", default=None,
                        help="analyze: file/directory to lint (repeatable; "
                             "default: the installed repro package)")
    parser.add_argument("--json", action="store_true",
                        help="analyze: emit findings as JSON")
    parser.add_argument("--deep", action="store_true",
                        help="analyze: add the interprocedural pass "
                             "(rules R11-R14)")
    parser.add_argument("--shard", action="store_true",
                        help="analyze: add the shard-affinity pass "
                             "(rules R15-R19)")
    parser.add_argument("--shard-inventory", default=None, metavar="FILE",
                        help="analyze: regenerate the shard-safety "
                             "inventory at FILE (implies --shard)")
    parser.add_argument("--shard-model", default=None,
                        choices=("site", "host"),
                        help="sanitize: also check shard-affinity at "
                             "runtime, partitioning by site or by host")
    parser.add_argument("--sarif", action="store_true",
                        help="analyze: emit findings as SARIF 2.1.0")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="analyze: report only findings not in this "
                             "baseline file")
    parser.add_argument("--top", type=int, default=25,
                        help="profile: how many functions to print "
                             "(default 25)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="record/report: flight-recorder heartbeat "
                             "period in simulated seconds (default 1.0)")
    parser.add_argument("--capacity", type=int, default=512,
                        help="record/report: flight-recorder ring size "
                             "(default 512 heartbeats)")
    parser.add_argument("--format", default="text",
                        choices=("text", "markdown"),
                        help="report: output format (default text)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    from repro.simulation.kernel import SimulationError

    args = build_parser().parse_args(argv)
    if args.shards != 1 and args.command != "fleet":
        print("error: --shards is for fleet only, not %s; use --workers N "
              "to run independent replications in parallel"
              % args.command, file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: workers must be >= 1, got %d" % args.workers,
              file=sys.stderr)
        return 2
    try:
        if args.command in _TOOLS:
            return _TOOLS[args.command](args) or 0
        if args.command != "all":
            _print_artifact(args.command, args)
            return 0
        for name, row in SCENARIOS.items():
            if row.in_all:
                _print_artifact(name, args)
                print()
        return 0
    except SimulationError as exc:
        # The model rejected an input value: one line, no traceback.
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The simlint command line.

Usage::

    python -m repro.analysis [PATH ...] [--deep] [--shard] [--scale]
                             [--shard-inventory FILE]
                             [--scale-inventory FILE]
                             [--format text|json|sarif]
                             [--select R1,R4] [--disable R3]
                             [--baseline FILE] [--write-baseline FILE]
                             [--list-rules] [--explain RULE]

``--deep`` adds the interprocedural pass (call graph + taint fixpoint,
rules R11-R14; see :mod:`repro.analysis.dataflow`) on top of the
per-file rules.  ``--shard`` adds the shard-affinity pass (ownership
rules R15-R19; see :mod:`repro.analysis.shard`), and
``--shard-inventory FILE`` additionally regenerates the shard-safety
inventory (``docs/shard-safety.md``) from the same model.  ``--scale``
adds the growth-dimension pass (complexity rules R22-R26; see
:mod:`repro.analysis.scale`), and ``--scale-inventory FILE``
regenerates the scale-readiness inventory (``docs/scale-readiness.md``)
from the same model.  ``--explain R22`` prints one rule's full
documentation — summary, rationale, fix pattern, suppression syntax —
and exits.  ``--format sarif`` emits SARIF 2.1.0 for CI ingestion.
``--baseline`` filters findings down to the ones *not* recorded in a
baseline file (the ratchet: legacy debt is absorbed, new findings
fail); ``--write-baseline`` regenerates that file.

Exit status: 0 when the tree is clean (or all findings are baselined),
1 when findings were reported, 2 on usage errors — so CI can gate on it
directly (see ``make check``).  With no paths, the installed ``repro``
package itself is linted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.baseline import (
    filter_new,
    load_baseline,
    render_baseline,
)
from repro.analysis.core import Analyzer, Finding
from repro.analysis.rules import default_rules
from repro.analysis.sarif import render_sarif

__all__ = ["build_parser", "main", "run_analysis", "run_deep_analysis",
           "run_shard_analysis", "run_scale_analysis"]


def _default_target() -> str:
    """The repro package directory (lint ourselves by default)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="simlint: determinism & sim-correctness static "
                    "analysis for the DES stack.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the "
                             "installed repro package)")
    parser.add_argument("--deep", action="store_true",
                        help="also run the interprocedural dataflow pass "
                             "(rules R11-R14)")
    parser.add_argument("--shard", action="store_true",
                        help="also run the shard-affinity pass "
                             "(rules R15-R19)")
    parser.add_argument("--shard-inventory", default=None, metavar="FILE",
                        help="regenerate the shard-safety inventory at "
                             "FILE (implies --shard)")
    parser.add_argument("--scale", action="store_true",
                        help="also run the growth-dimension pass "
                             "(rules R22-R26)")
    parser.add_argument("--scale-inventory", default=None, metavar="FILE",
                        help="regenerate the scale-readiness inventory at "
                             "FILE (implies --scale)")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="print one rule's documentation (e.g. "
                             "--explain R22) and exit")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule codes/names to run "
                             "exclusively")
    parser.add_argument("--disable", default=None, metavar="RULES",
                        help="comma-separated rule codes/names to skip")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="report only findings not recorded in this "
                             "baseline file")
    parser.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="write the run's findings as a new baseline "
                             "and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the active rule set and exit")
    return parser


def _filter_rules(rules, select: Optional[str], disable: Optional[str]):
    if select:
        wanted = {token.strip().lower() for token in select.split(",")
                  if token.strip()}
        rules = [r for r in rules
                 if {r.code.lower(), r.name.lower()} & wanted]
    if disable:
        dropped = {token.strip().lower() for token in disable.split(",")
                   if token.strip()}
        rules = [r for r in rules
                 if not ({r.code.lower(), r.name.lower()} & dropped)]
    return rules


def _pick_rules(select: Optional[str], disable: Optional[str]):
    return _filter_rules(default_rules(), select, disable)


def _pick_deep_rules(select: Optional[str], disable: Optional[str]):
    from repro.analysis.dataflow import deep_rules

    return _filter_rules(deep_rules(), select, disable)


def _pick_shard_rules(select: Optional[str], disable: Optional[str]):
    from repro.analysis.shard import shard_rules

    return _filter_rules(shard_rules(), select, disable)


def _pick_scale_rules(select: Optional[str], disable: Optional[str]):
    from repro.analysis.scale import scale_rules

    return _filter_rules(scale_rules(), select, disable)


def _project(paths: List[str], project):
    """``project``, or the tree under ``paths`` parsed into one."""
    if project is not None:
        return project
    from repro.analysis.dataflow.symbols import build_project

    return build_project(paths or [_default_target()])


def run_analysis(paths: List[str], rules=None,
                 project=None) -> List[Finding]:
    """Run the per-file rules over ``paths`` (or the repro package).

    ``project`` is an optional pre-built
    :class:`~repro.analysis.dataflow.symbols.ProjectModel`: every pass
    reads the same parsed trees and their indexes, so a caller running
    several passes parses each file once and shares it.
    """
    return Analyzer(rules).analyze_project(_project(paths, project))


def run_deep_analysis(paths: List[str], rules=None,
                      project=None) -> List[Finding]:
    """Run the interprocedural pass over ``paths``."""
    from repro.analysis.dataflow import analyze_project
    from repro.analysis.dataflow.taint import TaintEngine

    engine = TaintEngine(_project(paths, project)).run()
    return analyze_project(paths, rules=rules, engine=engine)


def run_shard_analysis(paths: List[str], rules=None,
                       inventory: Optional[str] = None,
                       project=None) -> List[Finding]:
    """Run the shard-affinity pass; optionally write the inventory."""
    from repro.analysis.shard import analyze_shard
    from repro.analysis.shard.model import ShardModel

    model = ShardModel(_project(paths, project))
    findings = analyze_shard(paths, rules=rules, model=model)
    if inventory:
        from repro.analysis.shard.inventory import write_inventory

        write_inventory(model, inventory)
    return findings


def run_scale_analysis(paths: List[str], rules=None,
                       inventory: Optional[str] = None,
                       project=None) -> List[Finding]:
    """Run the growth-dimension pass; optionally write the inventory."""
    from repro.analysis.scale import analyze_scale
    from repro.analysis.scale.model import ScaleModel

    model = ScaleModel(_project(paths, project))
    findings = analyze_scale(paths, rules=rules, model=model)
    if inventory:
        from repro.analysis.scale.inventory import write_inventory

        write_inventory(model, inventory)
    return findings


def _render_text(findings: List[Finding], stream) -> None:
    for finding in findings:
        print(finding.format(), file=stream)
    noun = "finding" if len(findings) == 1 else "findings"
    print("simlint: %d %s" % (len(findings), noun), file=stream)


def _render_json(findings: List[Finding], stream) -> None:
    json.dump({"findings": [f.to_dict() for f in findings],
               "count": len(findings)}, stream, indent=2)
    print(file=stream)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.explain:
        from repro.analysis.explain import explain_rule

        try:
            print(explain_rule(args.explain))
        except KeyError:
            print("simlint: unknown rule %r (try --list-rules)"
                  % args.explain, file=sys.stderr)
            return 2
        return 0
    if args.shard_inventory:
        args.shard = True
    if args.scale_inventory:
        args.scale = True
    rules = _pick_rules(args.select, args.disable)
    deep = _pick_deep_rules(args.select, args.disable) if args.deep \
        else []
    shard = _pick_shard_rules(args.select, args.disable) if args.shard \
        else []
    scale = _pick_scale_rules(args.select, args.disable) if args.scale \
        else []
    if args.list_rules:
        for rule in rules:
            doc = (sys.modules[type(rule).__module__].__doc__ or "")
            headline = doc.strip().splitlines()[0] if doc.strip() else ""
            print("%s  %-16s %s" % (rule.code, rule.name, headline))
        for rule in deep + shard + scale:
            doc = (type(rule).__doc__ or "").strip()
            headline = doc.splitlines()[0] if doc else ""
            print("%s %-16s %s" % (rule.code, rule.name, headline))
        return 0
    if not rules and not deep and not shard and not scale:
        print("simlint: no rules selected", file=sys.stderr)
        return 2
    wants_deep = bool(args.deep and deep)
    wants_shard = bool(args.shard and (shard or args.shard_inventory))
    wants_scale = bool(args.scale and (scale or args.scale_inventory))
    try:
        # Parse every file once; each pass reads the same trees.
        from repro.analysis.dataflow.symbols import build_project

        project = build_project(args.paths or [_default_target()])
        findings = run_analysis(args.paths, rules, project=project) \
            if rules else []
        merged = {(f.path, f.line, f.col, f.code, f.message)
                  for f in findings}

        def _fold(extra: List[Finding]) -> None:
            for finding in extra:
                key = (finding.path, finding.line, finding.col,
                       finding.code, finding.message)
                if key not in merged:
                    merged.add(key)
                    findings.append(finding)

        if wants_deep:
            _fold(run_deep_analysis(args.paths, deep, project=project))
        if wants_shard:
            _fold(run_shard_analysis(args.paths, shard,
                                     inventory=args.shard_inventory,
                                     project=project))
        if wants_scale:
            _fold(run_scale_analysis(args.paths, scale,
                                     inventory=args.scale_inventory,
                                     project=project))
        findings.sort(key=lambda f: f.sort_key)
    except OSError as exc:
        print("simlint: cannot read %s: %s"
              % (exc.filename or "path", exc.strerror or exc),
              file=sys.stderr)
        return 2
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(render_baseline(findings))
        print("simlint: wrote baseline of %d finding(s) to %s"
              % (len(findings), args.write_baseline))
        return 0
    if args.baseline:
        try:
            known = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print("simlint: cannot use baseline %s: %s"
                  % (args.baseline, exc), file=sys.stderr)
            return 2
        findings = filter_new(findings, known)
    if args.format == "json":
        _render_json(findings, sys.stdout)
    elif args.format == "sarif":
        sys.stdout.write(render_sarif(findings,
                                      rules + deep + shard + scale))
    else:
        _render_text(findings, sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

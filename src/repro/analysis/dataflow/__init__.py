"""Whole-program dataflow analysis for simlint (the ``--deep`` pass).

Layers, bottom up:

* :mod:`~repro.analysis.dataflow.symbols` — the project symbol table
  (modules, functions, classes, import aliases);
* :mod:`~repro.analysis.dataflow.callgraph` — syntactic call
  resolution across modules, classes and ``self.*`` methods;
* :mod:`~repro.analysis.dataflow.taint` — a four-kind taint lattice
  (wall-clock, entropy, worker identity, unordered iteration)
  iterated to an interprocedural fixpoint;
* :mod:`~repro.analysis.dataflow.rules` — the deep rules R11–R14.

:func:`analyze_project` is the one-call entry point: parse, resolve,
run the fixpoint, run the deep rules, apply the standard simlint
suppression comments, and return sorted
:class:`~repro.analysis.core.Finding` objects.  Like the per-file
engine it never imports the code under analysis.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.core import Finding, project_findings
from repro.analysis.dataflow.callgraph import CallGraph, resolve_call
from repro.analysis.dataflow.rules import (
    DeepRule,
    deep_rules,
    register_deep,
    registered_deep_rule_classes,
)
from repro.analysis.dataflow.symbols import (
    ModuleInfo,
    ProjectModel,
    build_project,
)
from repro.analysis.dataflow.taint import TaintEngine

__all__ = ["analyze_project", "build_project", "build_engine",
           "CallGraph", "DeepRule", "deep_rules", "register_deep",
           "registered_deep_rule_classes", "ProjectModel", "ModuleInfo",
           "TaintEngine", "resolve_call"]


def build_engine(paths: Iterable[str]) -> TaintEngine:
    """Parse ``paths`` and run the taint fixpoint; returns the engine."""
    return TaintEngine(build_project(paths)).run()


def analyze_project(paths: Iterable[str],
                    rules: Optional[Iterable[DeepRule]] = None,
                    engine: Optional[TaintEngine] = None
                    ) -> List[Finding]:
    """Run the deep rules over every module under ``paths``.

    Suppression comments (``# simlint: disable=R11`` and
    ``disable-file=``) work exactly as for the per-file rules.  Files
    that do not parse yield one ``E0`` finding each, mirroring the
    shallow engine.
    """
    if engine is None:
        engine = build_engine(paths)
    return project_findings(engine.project,
                            deep_rules() if rules is None else rules,
                            lambda rule: rule.check_project(engine))

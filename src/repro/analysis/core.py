"""The simlint engine: findings, rule plugins, suppression, the analyzer.

The engine is deliberately self-contained (stdlib ``ast`` only) so it can
lint the simulation stack without importing it.  Each module is walked
exactly once, into an :class:`AstIndex` (node list, parent links,
per-scope node slices) that every rule and every project pass reads
instead of walking the tree again.  A :class:`Rule` declares the AST
node types it cares about (``interests``); the :class:`Analyzer`
dispatches the index's nodes to interested rules.  Rules that need
whole-module context (e.g. tracking which local names hold sets)
implement :meth:`Rule.check_module` instead of — or in addition to —
the per-node hook.

Suppression mirrors the classic lint idiom::

    self.rng = random.Random(0)  # simlint: disable=R1  calibration-only

disables the named rule(s) on that line only, and a line anywhere in the
file reading ``# simlint: disable-file=R2`` disables a rule for the whole
module.  Codes ("R1") and slugs ("global-random") are both accepted.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

__all__ = [
    "AstIndex",
    "Finding",
    "Rule",
    "RuleContext",
    "Analyzer",
    "analyze_source",
    "analyze_paths",
    "dotted_name",
    "parse_error",
]

#: Rule code used for files that do not parse.
PARSE_ERROR = "E0"

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([\w\-,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*simlint:\s*disable-file=([\w\-,\s]+)")


class Finding:
    """One rule violation at one source location."""

    def __init__(self, path: str, line: int, col: int, code: str,
                 name: str, message: str):
        self.path = path
        self.line = line
        self.col = col
        self.code = code
        self.name = name
        self.message = message

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "name": self.name,
            "message": self.message,
        }

    def format(self) -> str:
        """The one-line text rendering the CLI prints."""
        return "%s:%d:%d: %s[%s] %s" % (self.path, self.line, self.col,
                                        self.code, self.name, self.message)

    def __repr__(self) -> str:
        return "<Finding %s %s:%d>" % (self.code, self.path, self.line)


#: Node types that open a scope: :meth:`AstIndex.own` stops at them.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


class AstIndex:
    """One module's syntax tree, walked once and shared by every pass.

    * ``nodes`` — every node, in ``ast.walk`` order;
    * ``parents`` — child node -> parent node;
    * :meth:`own` — the nodes of one scope (the module, or any def,
      lambda or class in it) without descending into nested scopes, in
      the stack-pop order simlint has always walked them, optionally
      narrowed to some node types;
    * :meth:`is_generator` — whether a scope yields.

    Each scope's own nodes are a contiguous slice of one list, so the
    index holds each node once, not once per scope.  Rules and passes
    read it instead of calling ``ast.walk``.
    """

    def __init__(self, tree: ast.Module):
        self.tree = tree
        children: Dict[ast.AST, List[ast.AST]] = {}
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.nodes: List[ast.AST] = [tree]
        for node in self.nodes:  # grows while iterated: breadth-first
            kids = list(ast.iter_child_nodes(node))
            if kids:
                children[node] = kids
                for kid in kids:
                    self.parents[kid] = node
                self.nodes.extend(kids)
        self._owned: List[ast.AST] = []
        self._spans: Dict[ast.AST, Tuple[int, int]] = {}
        self._generators: Set[ast.AST] = set()
        scopes: List[ast.AST] = [tree]
        for scope in scopes:  # grows while iterated, like ``nodes``
            start = len(self._owned)
            todo = list(children.get(scope, ()))
            while todo:
                node = todo.pop()
                self._owned.append(node)
                if isinstance(node, SCOPES):
                    scopes.append(node)
                else:
                    if isinstance(node, (ast.Yield, ast.YieldFrom)):
                        self._generators.add(scope)
                    todo.extend(children.get(node, ()))
            self._spans[scope] = (start, len(self._owned))

    def own(self, scope: ast.AST, *types: Type[ast.AST]) -> List[ast.AST]:
        """``scope``'s own nodes, or only those of the given ``types``."""
        start, stop = self._spans[scope]
        if not types:
            return self._owned[start:stop]
        return [node for node in self._owned[start:stop]
                if isinstance(node, types)]

    def nested(self, scope: ast.AST) -> List[ast.AST]:
        """Every node under ``scope``, nested scopes included."""
        found: List[ast.AST] = []
        todo = [scope]
        while todo:
            for node in self.own(todo.pop()):
                found.append(node)
                if isinstance(node, SCOPES):
                    todo.append(node)
        return found

    def is_generator(self, scope: ast.AST) -> bool:
        """Does ``scope`` yield, not counting nested function bodies?"""
        return scope in self._generators


class RuleContext:
    """Per-module facts shared by every rule while one file is analyzed."""

    def __init__(self, path: str, source: str, index: AstIndex):
        self.path = path
        self.source = source
        self.index = index
        self.tree = index.tree
        self.parents = index.parents

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest FunctionDef/AsyncFunctionDef containing ``node``."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None

    def is_generator(self, func: ast.AST) -> bool:
        """True if ``func`` contains a yield of its own (a sim process)."""
        return self.index.is_generator(func)

    def in_simulation_process(self, node: ast.AST) -> bool:
        """True when ``node`` sits inside a generator function."""
        func = self.enclosing_function(node)
        return func is not None and self.is_generator(func)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """Base class for simlint rules (the plugin interface).

    Subclasses set ``code`` (stable "R<n>" identifier used in suppression
    comments and CI baselines), ``name`` (human slug) and either
    ``interests`` + :meth:`check` for per-node rules or
    :meth:`check_module` for whole-module analyses.
    """

    code: str = "R0"
    name: str = "abstract-rule"
    #: AST node classes this rule wants to see (per-node dispatch).
    interests: Tuple[Type[ast.AST], ...] = ()

    def check(self, node: ast.AST,
              ctx: RuleContext) -> Iterator[Finding]:  # pragma: no cover
        """Yield findings for one node of an interested type."""
        return iter(())

    def check_module(self, tree: ast.Module,
                     ctx: RuleContext) -> Iterator[Finding]:
        """Yield findings needing whole-module context (default: none)."""
        return iter(())

    def finding(self, ctx: RuleContext, node: ast.AST,
                message: str) -> Finding:
        """Build a Finding for ``node`` attributed to this rule."""
        return Finding(ctx.path, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0) + 1,
                       self.code, self.name, message)

    def __repr__(self) -> str:
        return "<Rule %s %s>" % (self.code, self.name)


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Map line number -> suppressed tokens, plus file-wide tokens."""
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_FILE_RE.search(line)
        if match:
            whole_file.update(_tokens(match.group(1)))
            continue
        match = _SUPPRESS_RE.search(line)
        if match:
            per_line.setdefault(lineno, set()).update(_tokens(match.group(1)))
    return per_line, whole_file


def _tokens(spec: str) -> Set[str]:
    # "R1, R4  justifying comment" -> {"r1", "r4"}: the first word of
    # each comma-separated chunk is the code; the rest is prose.
    return {token.split()[0].lower() for token in spec.split(",")
            if token.split()}


def parse_error(path: str, exc: SyntaxError) -> Finding:
    """The one ``E0`` finding for a file that does not parse."""
    return Finding(path, exc.lineno or 1, (exc.offset or 0) + 1,
                   PARSE_ERROR, "parse-error",
                   "file does not parse: %s" % exc.msg)


class Analyzer:
    """Runs a rule set over source text, files, or directory trees."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        if rules is None:
            from repro.analysis.rules import default_rules
            rules = default_rules()
        self.rules: List[Rule] = sorted(rules, key=lambda rule: rule.code)
        self._dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.interests:
                self._dispatch.setdefault(node_type, []).append(rule)

    # -- single module -------------------------------------------------------

    def analyze_source(self, source: str,
                       path: str = "<string>") -> List[Finding]:
        """Lint one module's source text."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [parse_error(path, exc)]
        return self.analyze_module(path, source, AstIndex(tree))

    def analyze_module(self, path: str, source: str,
                       index: AstIndex) -> List[Finding]:
        """Lint one parsed module through its index."""
        ctx = RuleContext(path, source, index)
        findings: List[Finding] = []
        for node in index.nodes:
            for rule in self._dispatch.get(type(node), ()):
                findings.extend(rule.check(node, ctx))
        for rule in self.rules:
            findings.extend(rule.check_module(index.tree, ctx))
        return unsuppressed(findings, {path: source})

    # -- trees ---------------------------------------------------------------

    def analyze_project(self, project) -> List[Finding]:
        """Lint every file of a parsed
        :class:`~repro.analysis.dataflow.symbols.ProjectModel`."""
        findings = list(project.parse_errors.values())
        for module in project.files.values():
            findings.extend(self.analyze_module(module.path, module.source,
                                                module.index))
        findings.sort(key=lambda f: f.sort_key)
        return findings

    def analyze_paths(self, paths: Iterable[str]) -> List[Finding]:
        """Lint files and/or directory trees (``.py`` files, sorted walk)."""
        from repro.analysis.dataflow.symbols import build_project

        return self.analyze_project(build_project(paths))


def project_findings(project, rules: Iterable, check) -> List[Finding]:
    """Finish one project pass (deep, shard or scale).

    One ``E0`` per unparsable file, then ``check(rule)``'s findings for
    each rule in code order with duplicates dropped, filtered through
    the modules' suppression comments and sorted.
    """
    findings = [project.parse_errors[path]
                for path in sorted(project.parse_errors)]
    seen = set()
    for rule in sorted(rules, key=lambda r: r.code):
        for finding in check(rule):
            key = (finding.path, finding.line, finding.col, finding.code,
                   finding.message)
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    return unsuppressed(findings, {module.path: module.source
                                   for module in project.files.values()})


def unsuppressed(findings: List[Finding],
                 sources: Dict[str, str]) -> List[Finding]:
    """``findings`` minus those their file's comments suppress, sorted."""
    parsed: Dict[str, Tuple[Dict[int, Set[str]], Set[str]]] = {}
    kept = []
    for finding in findings:
        if finding.path not in parsed:
            parsed[finding.path] = _parse_suppressions(
                sources.get(finding.path, ""))
        if not _suppressed(finding, *parsed[finding.path]):
            kept.append(finding)
    kept.sort(key=lambda f: f.sort_key)
    return kept


def _suppressed(finding: Finding, per_line: Dict[int, Set[str]],
                whole_file: Set[str]) -> bool:
    identifiers = {finding.code.lower(), finding.name.lower()}
    if identifiers & whole_file:
        return True
    return bool(identifiers & per_line.get(finding.line, set()))


def analyze_source(source: str, path: str = "<string>",
                   rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Convenience: lint source text with the default (or given) rules."""
    return Analyzer(rules).analyze_source(source, path=path)


def analyze_paths(paths: Iterable[str],
                  rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Convenience: lint paths with the default (or given) rules."""
    return Analyzer(rules).analyze_paths(paths)

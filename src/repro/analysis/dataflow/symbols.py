"""The project symbol table: modules, functions, classes, imports.

simlint's per-file rules (R1–R10) see one module at a time.  The deep
rules (R11–R14) need to follow values across function and module
boundaries, which starts with knowing *what exists*: every module in
the analyzed tree, every function and method it defines, every class
and its bases, and what each imported name refers to.  This module
builds that table from source text alone — like the rest of the
analysis package it never imports the code it analyzes, so a broken
tree can still be analyzed.

Module names are derived structurally: a file's dotted name is its
path relative to the outermost ancestor directory that still contains
an ``__init__.py``.  That makes the table equally happy analyzing
``src/repro`` and a throwaway fixture package in a temp directory.
"""

from __future__ import annotations

import ast
import os
import tokenize
import weakref
from typing import Dict, Iterable, List, Optional

from repro.analysis.core import AstIndex, Finding, dotted_name, parse_error

__all__ = ["FunctionInfo", "ClassInfo", "ModuleInfo", "ProjectModel",
           "module_name_for", "build_project"]


def module_name_for(path: str) -> str:
    """The dotted module name for ``path`` (see module docstring)."""
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
    return ".".join(reversed(parts)) or stem


class _InModule:
    """A definition's weak link back to the module that owns it.

    A module holds its functions and classes; a strong link back would
    make every module a reference cycle, so a dropped project (trees,
    indexes and all) would wait for the cyclic garbage collector
    instead of being freed at once.
    """

    __slots__ = ()

    @property
    def module(self) -> "ModuleInfo":
        return self._module()


class FunctionInfo(_InModule):
    """One function or method definition."""

    __slots__ = ("name", "qualname", "_module", "node", "class_name",
                 "is_generator", "params")

    def __init__(self, name: str, module: "ModuleInfo",
                 node: ast.AST, class_name: Optional[str] = None):
        self.name = name
        self._module = weakref.ref(module)
        self.node = node
        self.class_name = class_name
        local = name if class_name is None else "%s.%s" % (class_name, name)
        #: Fully qualified: ``pkg.mod.func`` or ``pkg.mod.Class.method``.
        self.qualname = "%s.%s" % (module.name, local)
        self.is_generator = module.index.is_generator(node)
        self.params = [arg.arg for arg in node.args.args]

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def __repr__(self) -> str:
        return "<FunctionInfo %s>" % self.qualname


class ClassInfo(_InModule):
    """One class definition and the dotted names of its bases."""

    __slots__ = ("name", "qualname", "_module", "node", "bases")

    def __init__(self, name: str, module: "ModuleInfo", node: ast.ClassDef):
        self.name = name
        self._module = weakref.ref(module)
        self.node = node
        self.qualname = "%s.%s" % (module.name, name)
        self.bases: List[str] = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted:
                self.bases.append(dotted)

    def __repr__(self) -> str:
        return "<ClassInfo %s>" % self.qualname


class ModuleInfo:
    """One parsed module: tree, its index, imports, functions, classes."""

    def __init__(self, name: str, path: str, source: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.source = source
        self.tree = tree
        #: The one walk of ``tree`` every pass reads (see AstIndex).
        self.index = AstIndex(tree)
        #: Local alias -> dotted target ("np" -> "numpy",
        #: "heappush" -> "heapq.heappush").
        self.imports: Dict[str, str] = {}
        #: Local qualname ("func" or "Class.method") -> FunctionInfo.
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._collect()

    # -- construction --------------------------------------------------------

    def _collect(self) -> None:
        for node in self.tree.body:
            self._collect_stmt(node)

    def _collect_stmt(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                self.imports[local] = target
                if alias.asname is None and "." in alias.name:
                    # ``import a.b.c`` also makes the full dotted path
                    # usable as written.
                    self.imports[alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = self._resolve_from(node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.imports[local] = "%s.%s" % (base, alias.name) \
                    if base else alias.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(node.name, self, node)
            self.functions[node.name] = info
        elif isinstance(node, ast.ClassDef):
            klass = ClassInfo(node.name, self, node)
            self.classes[node.name] = klass
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    info = FunctionInfo(child.name, self, child,
                                        class_name=node.name)
                    self.functions["%s.%s" % (node.name, child.name)] = info
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING guards and optional-dependency try/except
            # still contribute imports and definitions.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._collect_stmt(child)

    def _resolve_from(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        # Relative import: resolve against this module's package.
        parts = self.name.split(".")
        if self.path.endswith("__init__.py"):
            package = parts
        else:
            package = parts[:-1]
        package = package[:len(package) - (node.level - 1)]
        if node.module:
            package = package + node.module.split(".")
        return ".".join(package)

    def __repr__(self) -> str:
        return "<ModuleInfo %s (%d functions)>" % (
            self.name, len(self.functions))


class ProjectModel:
    """Every analyzed module, with whole-project lookups."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Path -> ModuleInfo for every parsed file, in build order.
        self.files: Dict[str, ModuleInfo] = {}
        #: Fully qualified name -> FunctionInfo, for every function.
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Files that failed to parse: path -> their ``E0`` finding.
        self.parse_errors: Dict[str, Finding] = {}

    def add_module(self, module: ModuleInfo) -> None:
        self.modules[module.name] = module
        self.files[module.path] = module
        for info in module.functions.values():
            self.functions[info.qualname] = info
        for klass in module.classes.values():
            self.classes[klass.qualname] = klass

    def add_source(self, source: str, path: str) -> Optional[ModuleInfo]:
        """Parse and add one module; records (not raises) parse errors."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors[path] = parse_error(path, exc)
            return None
        module = ModuleInfo(module_name_for(path), path, source, tree)
        self.add_module(module)
        return module

    # -- lookups -------------------------------------------------------------

    def expand(self, module: ModuleInfo, dotted: str) -> str:
        """Resolve a name as written in ``module`` to a project-wide
        dotted name, following import aliases by longest prefix."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in module.imports:
                rest = parts[cut:]
                return ".".join([module.imports[prefix]] + rest)
        return dotted

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def method(self, klass: ClassInfo,
               name: str) -> Optional[FunctionInfo]:
        """Look up ``name`` on ``klass``, walking project-known bases."""
        seen = set()
        todo = [klass]
        while todo:
            current = todo.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            info = current.module.functions.get(
                "%s.%s" % (current.name, name))
            if info is not None:
                return info
            for base in current.bases:
                resolved = self.expand(current.module, base)
                base_class = self.classes.get(resolved)
                if base_class is None:
                    # A bare base name defined in the same module.
                    base_class = current.module.classes.get(base)
                if base_class is not None:
                    todo.append(base_class)
        return None

    def __repr__(self) -> str:
        return "<ProjectModel %d modules, %d functions>" % (
            len(self.modules), len(self.functions))


def build_project(paths: Iterable[str]) -> ProjectModel:
    """Parse every ``.py`` file under ``paths`` into a ProjectModel."""
    project = ProjectModel()
    for path in paths:
        if os.path.isdir(path):
            for directory, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        full = os.path.join(directory, filename)
                        project.add_source(_read(full), full)
        else:
            project.add_source(_read(path), path)
    return project


def _read(path: str) -> str:
    with tokenize.open(path) as handle:
        return handle.read()

"""R3: never iterate a set where order can reach the event queue.

Set iteration order depends on hash values; with ``PYTHONHASHSEED``
unset, strings hash differently on every interpreter start, and objects
hash by address on every run.  Any set iteration that schedules events,
draws random numbers, or otherwise feeds simulation state therefore
destroys run-to-run reproducibility.  Wrapping the set in ``list()``
changes nothing — only ``sorted()`` (or replacing the set with an
insertion-ordered dict) imposes a stable order.

The rule flags direct iteration over set displays, set comprehensions
and ``set()``/``frozenset()`` calls, plus iteration over local names and
``self.*`` attributes that were assigned such expressions.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.core import Finding, Rule, RuleContext
from repro.analysis.rules import register

__all__ = ["SetIterationRule"]

#: Wrappers that preserve the underlying (hash) iteration order.
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "enumerate",
                               "reversed"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                   ast.DictComp)


def _unwrap(expr: ast.AST) -> ast.AST:
    """Strip list()/tuple()/... wrappers that keep set order visible."""
    while (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
           and expr.func.id in _ORDER_PRESERVING and expr.args):
        expr = expr.args[0]
    return expr


def _is_set_expr(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset"))


def _iterated_exprs(node: ast.AST) -> List[ast.AST]:
    """The iterable expressions a For statement/comprehension consumes."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, _COMPREHENSIONS):
        return [generator.iter for generator in node.generators]
    return []


@register
class SetIterationRule(Rule):
    """Flag set iteration feeding simulation logic."""

    code = "R3"
    name = "set-iteration"
    interests = (ast.For, ast.AsyncFor) + _COMPREHENSIONS

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        for expr in _iterated_exprs(node):
            if _is_set_expr(_unwrap(expr)):
                yield self.finding(
                    ctx, node,
                    "iterating a set: order is hash-dependent and breaks "
                    "reproducibility; use sorted() or an ordered dict")

    # -- name/attribute propagation -----------------------------------------

    def check_module(self, tree: ast.Module,
                     ctx: RuleContext) -> Iterator[Finding]:
        index = ctx.index
        scopes: List[ast.AST] = [tree]
        scopes.extend(node for node in index.nodes
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
        for scope in scopes:
            yield from self._check_scope(index.own(scope), ctx)
        for node in index.nodes:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(index.nested(node), ctx)

    def _check_scope(self, nodes: List[ast.AST],
                     ctx: RuleContext) -> Iterator[Finding]:
        set_names: Set[str] = set()
        for node in nodes:
            for name, value in _assignments(node):
                if _is_set_expr(value):
                    set_names.add(name)
        if not set_names:
            return
        for node in nodes:
            for expr in _iterated_exprs(node):
                expr = _unwrap(expr)
                if isinstance(expr, ast.Name) and expr.id in set_names:
                    yield self.finding(
                        ctx, node,
                        "'%s' holds a set: iteration order is "
                        "hash-dependent; use sorted() or an ordered dict"
                        % expr.id)

    def _check_class(self, nodes: List[ast.AST],
                     ctx: RuleContext) -> Iterator[Finding]:
        set_attrs: Set[str] = set()
        for node in nodes:
            for name, value in _self_assignments(node):
                if _is_set_expr(value):
                    set_attrs.add(name)
        if not set_attrs:
            return
        for node in nodes:
            for expr in _iterated_exprs(node):
                expr = _unwrap(expr)
                if (isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                        and expr.attr in set_attrs):
                    yield self.finding(
                        ctx, node,
                        "'self.%s' holds a set: iteration order is "
                        "hash-dependent; use sorted() or an ordered dict"
                        % expr.attr)


def _assignments(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """(name, value) pairs bound by a plain local assignment."""
    pairs: List[Tuple[str, ast.AST]] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                pairs.append((target.id, node.value))
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            pairs.append((node.target.id, node.value))
    return pairs


def _self_assignments(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """(attr, value) pairs bound by ``self.attr = ...`` assignments."""
    pairs: List[Tuple[str, ast.AST]] = []
    targets: List[ast.AST] = []
    value: ast.AST = None
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets, value = [node.target], node.value
    for target in targets:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            pairs.append((target.attr, value))
    return pairs

"""The shard-affinity rules R15–R19 (the ``--shard`` pass).

Where R11–R14 chase host nondeterminism, these five rules chase
*ownership*: state that the sharded parallel engine (ROADMAP item 1)
could not partition by site or host without silent coupling.

* **R15** ``process-global-mutable-state`` — a module- or class-level
  mutable that is actually written at runtime.  Read-only lookup
  tables stay silent; a dict that any code path mutates is visible to
  every shard in the process.
* **R16** ``cross-entity-direct-mutation`` — a host-family method
  directly writing attributes of a site-family object (or vice versa)
  without an intervening kernel event.  These writes are exactly the
  edges that need lookahead-mediated events once entities live on
  different cores.  Resolution is by parameter annotation — the
  deliberate, documented approximation of this pass.
* **R17** ``unkeyed-process-cache`` — memo state whose lifetime is the
  process, not a simulation: cache-named module mutables that are
  written, ``functools.cache``/``lru_cache(maxsize=None)`` sites, and
  ``lru_cache`` on methods of non-frozen classes (instance-identity
  keys pin objects for the process lifetime).  Bounded ``lru_cache``
  on a frozen dataclass method is the sanctioned pattern and stays
  silent.
* **R18** ``non-mergeable-accumulator`` — a statistics class with a
  sample-intake method (``add``/``observe``/``record``/``inc``/
  ``sample``) mutating numeric instance state but no ``merge`` method
  (own or inherited from a project-known base): per-shard parts of it
  cannot be folded deterministically.
* **R19** ``shared-event-queue-escape`` — scheduling through another
  component's ``.sim`` handle (``other.sim.timeout(...)``), or
  triggering (``succeed``/``fail``) an event reached through a
  foreign-family parameter: both push work onto a timeline the caller
  does not own.

Shard rules register with :func:`register_shard` and yield the same
:class:`~repro.analysis.core.Finding` objects as every other pass, so
suppressions, SARIF export and the baseline ratchet apply unchanged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Type

from repro.analysis.core import Finding, dotted_name
from repro.analysis.shard.model import (
    HOST,
    SITE,
    CacheSite,
    MutableLocation,
    ShardModel,
    _MUTATOR_METHODS,
    _is_self_attr,
)

__all__ = ["ShardRule", "register_shard", "shard_rules",
           "registered_shard_rule_classes",
           "ProcessGlobalMutableStateRule",
           "CrossEntityDirectMutationRule", "UnkeyedProcessCacheRule",
           "NonMergeableAccumulatorRule", "SharedEventQueueEscapeRule"]

#: Import-time registry of shard rule classes; append-only, populated
#: by the ``register_shard`` decorations below and never written after
#: import.  # simlint: disable-file=R15
_SHARD_REGISTRY: List[Type["ShardRule"]] = []


def register_shard(rule_class: Type["ShardRule"]) -> Type["ShardRule"]:
    """Class decorator: add a ShardRule subclass to the shard rule set."""
    if not (isinstance(rule_class, type)
            and issubclass(rule_class, ShardRule)):
        raise TypeError("register_shard() expects a ShardRule subclass, "
                        "got %r" % (rule_class,))
    if any(existing.code == rule_class.code
           for existing in _SHARD_REGISTRY):
        raise ValueError("duplicate shard rule code %s" % rule_class.code)
    _SHARD_REGISTRY.append(rule_class)
    return rule_class


def registered_shard_rule_classes() -> List[Type["ShardRule"]]:
    """The registered classes, sorted by code."""
    return sorted(_SHARD_REGISTRY,
                  key=lambda cls: (len(cls.code), cls.code))


def shard_rules() -> List["ShardRule"]:
    """Fresh instances of every registered shard rule."""
    return [cls() for cls in registered_shard_rule_classes()]


class ShardRule:
    """Base class for shard-affinity rules.

    Subclasses set ``code``/``name`` and implement :meth:`check_model`,
    yielding :class:`~repro.analysis.core.Finding` objects over a
    :class:`~repro.analysis.shard.model.ShardModel`.
    """

    code: str = "R0"
    name: str = "abstract-shard-rule"

    def check_model(self, model: ShardModel) -> Iterator[Finding]:
        """Yield findings over the shard-affinity model."""
        return iter(())  # pragma: no cover

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(path, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0) + 1,
                       self.code, self.name, message)

    def __repr__(self) -> str:
        return "<ShardRule %s %s>" % (self.code, self.name)


def _mutation_summary(location: MutableLocation) -> str:
    sites = location.mutations
    first = min(sites, key=lambda s: (s.module.path, s.node.lineno))
    extra = "" if len(sites) == 1 \
        else " and %d more site(s)" % (len(sites) - 1)
    return "written at %s%s" % (first.where, extra)


@register_shard
class ProcessGlobalMutableStateRule(ShardRule):
    """R15: a module/class-level mutable that is written at runtime."""

    code = "R15"
    name = "process-global-mutable-state"

    def check_model(self, model: ShardModel) -> Iterator[Finding]:
        for location in model.sorted_locations():
            if not location.mutations or location.is_cache_named:
                continue  # read-only tables are fine; caches are R17's
            scope = "class-level" if location.class_name else \
                "module-level"
            what = "binding %r is rebound through `global`," \
                if location.kind == "binding" else "mutable %r is"
            yield self.finding(
                location.module.path, location.node,
                ("%s " + what + " %s — process-global state is shared "
                 "by every shard; own it by a Simulation "
                 "(sim.model_cache) or justify why it never couples "
                 "worlds") % (scope, location.label,
                              _mutation_summary(location)))


@register_shard
class CrossEntityDirectMutationRule(ShardRule):
    """R16: host-family code mutating a site-family object, or back."""

    code = "R16"
    name = "cross-entity-direct-mutation"

    def check_model(self, model: ShardModel) -> Iterator[Finding]:
        for module_name in sorted(model.project.modules):
            module = model.project.modules[module_name]
            family = model.family(module_name)
            if family not in (HOST, SITE):
                continue  # shared orchestration may touch anything
            for key in sorted(module.functions):
                info = module.functions[key]
                yield from self._check_function(model, module, family,
                                                info)

    def _check_function(self, model: ShardModel, module, family,
                        info) -> Iterator[Finding]:
        foreign = _foreign_params(model, module, family, info)
        if not foreign:
            return
        for node in module.index.own(info.node, ast.Assign, ast.AugAssign,
                                     ast.Call):
            target: Optional[ast.AST] = None
            verb = "writes"
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for candidate in targets:
                    if isinstance(candidate, (ast.Attribute,
                                              ast.Subscript)):
                        target = candidate
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATOR_METHODS:
                    target = node.func
                    verb = "mutates"
            if target is None:
                continue
            root = _chain_root(target)
            if root is None or root not in foreign:
                continue
            other_family, other_class = foreign[root]
            yield self.finding(
                module.path, node,
                "%s-affine %s directly %s state of %s-affine %s "
                "(parameter %r) — route the change through a kernel "
                "event so the sharded engine can mediate it with "
                "lookahead" % (family, info.qualname, verb,
                               other_family, other_class, root))


def _foreign_params(model: ShardModel, module, family, info):
    """Params annotated with a class of the *other* concrete family."""
    foreign = {}
    for param in info.params:
        if param in ("self", "cls"):
            continue
        klass = model.annotated_class(module, info.node, param)
        if klass is None:
            continue
        other = model.class_family(klass)
        if other in (HOST, SITE) and other != family:
            foreign[param] = (other, klass.name)
    return foreign


def _chain_root(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@register_shard
class UnkeyedProcessCacheRule(ShardRule):
    """R17: memo state whose lifetime is the process, not a simulation."""

    code = "R17"
    name = "unkeyed-process-cache"

    def check_model(self, model: ShardModel) -> Iterator[Finding]:
        for location in model.sorted_locations():
            if location.mutations and location.is_cache_named:
                yield self.finding(
                    location.module.path, location.node,
                    "process-wide cache %r (%s) outlives every "
                    "simulation — key it by a simulation-owned "
                    "generation (sim.model_cache) or document why "
                    "value-keyed sharing cannot couple worlds"
                    % (location.label, _mutation_summary(location)))
        for site in model.cache_sites:
            yield from self._check_cache_site(site)

    def _check_cache_site(self, site: CacheSite) -> Iterator[Finding]:
        info = site.function
        if site.explicit_unbounded:
            yield self.finding(
                info.module.path, site.node,
                "unbounded functools cache on %s() grows for the "
                "process lifetime and is shared by every shard; give "
                "it a maxsize and value-typed keys" % info.qualname)
        elif info.class_name is not None and not site.frozen_dataclass:
            yield self.finding(
                info.module.path, site.node,
                "lru_cache on method %s() of a non-frozen class keys "
                "by instance identity: entries pin instances "
                "process-wide and never hit across worlds; make the "
                "class a frozen dataclass or move the memo onto the "
                "instance" % info.qualname)


#: Method names that take one sample into a statistics object.
_INTAKE_NAMES = ("add", "observe", "record", "inc", "sample")


@register_shard
class NonMergeableAccumulatorRule(ShardRule):
    """R18: a sample-taking stats class without a deterministic merge."""

    code = "R18"
    name = "non-mergeable-accumulator"

    def check_model(self, model: ShardModel) -> Iterator[Finding]:
        for qualname in sorted(model.project.classes):
            klass = model.project.classes[qualname]
            intakes = [name for name in _INTAKE_NAMES
                       if self._is_intake(klass, name)]
            if not intakes:
                continue
            if model.project.method(klass, "merge") is not None:
                continue
            yield self.finding(
                klass.module.path, klass.node,
                "%s accumulates samples via %s() but defines no "
                "merge(): per-shard parts cannot be folded back "
                "deterministically — add a merge and fold parts in "
                "creation order" % (klass.name,
                                    "/".join(intakes)))

    def _is_intake(self, klass, name: str) -> bool:
        info = klass.module.functions.get("%s.%s" % (klass.name, name))
        if info is None:
            return False
        for node in info.module.index.own(info.node, ast.AugAssign,
                                          ast.Call):
            if isinstance(node, ast.AugAssign) and \
                    _is_self_attr(node.target):
                return True
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "append" and \
                    _is_self_attr(node.func.value):
                return True
        return False


#: ``sim`` factory methods that enqueue onto a timeline.
_SCHEDULING_FACTORIES = frozenset({"timeout", "event", "spawn",
                                   "process", "all_of", "any_of"})


@register_shard
class SharedEventQueueEscapeRule(ShardRule):
    """R19: events pushed onto a timeline the caller does not own."""

    code = "R19"
    name = "shared-event-queue-escape"

    def check_model(self, model: ShardModel) -> Iterator[Finding]:
        for module_name in sorted(model.project.modules):
            module = model.project.modules[module_name]
            family = model.family(module_name)
            if family not in (HOST, SITE):
                continue
            for key in sorted(module.functions):
                info = module.functions[key]
                foreign = _foreign_params(model, module, family, info)
                params = set(info.params) - {"self", "cls"}
                for node in module.index.own(info.node, ast.Call):
                    if not isinstance(node.func, ast.Attribute):
                        continue
                    yield from self._check_call(module, family, info,
                                                node, params, foreign)

    def _check_call(self, module, family, info, node: ast.Call,
                    params, foreign) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        # (a) other.sim.timeout(...) — scheduling through a foreign
        # component's sim handle.
        if (len(parts) >= 3 and parts[-2] == "sim"
                and parts[-1] in _SCHEDULING_FACTORIES
                and parts[0] in params):
            yield self.finding(
                module.path, node,
                "%s schedules onto %r's timeline through its .sim "
                "handle (%s) — in the sharded engine that queue "
                "belongs to another partition; deliver the work as a "
                "latency-mediated event instead"
                % (info.qualname, parts[0], dotted))
            return
        # (b) foreign.done.succeed(...) — triggering an event owned by
        # an entity of the other family.
        if parts[-1] in ("succeed", "fail") and len(parts) >= 2 \
                and parts[0] in foreign:
            other_family, other_class = foreign[parts[0]]
            yield self.finding(
                module.path, node,
                "%s %ss an event owned by %s-affine %s (parameter %r) "
                "directly — completion must be delivered through the "
                "owner's event queue to stay shardable"
                % (info.qualname, parts[-1], other_family, other_class,
                   parts[0]))

"""shardcheck — the shard-affinity pass (the ``--shard`` flag).

Classifies every mutable location in the analyzed tree on the
three-value affinity lattice (shard-local / shard-crossing /
process-global; see :mod:`repro.analysis.shard.model`) and runs the
ownership rules R15–R19 (:mod:`repro.analysis.shard.rules`) over it.
:func:`analyze_shard` mirrors :func:`repro.analysis.dataflow.
analyze_project`: parse, classify, run the rules, apply the standard
simlint suppression comments, return sorted Finding objects — never
importing the code under analysis.

:mod:`repro.analysis.shard.inventory` renders the whole model as
``docs/shard-safety.md``, the work-list the sharded-engine refactor
consumes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.core import Finding, project_findings
from repro.analysis.shard.model import (
    CROSSING,
    GLOBAL,
    LOCAL,
    ShardModel,
    build_shard_model,
    family_of_module,
)
from repro.analysis.shard.rules import (
    ShardRule,
    register_shard,
    registered_shard_rule_classes,
    shard_rules,
)

__all__ = ["analyze_shard", "build_shard_model", "ShardModel",
           "ShardRule", "shard_rules", "register_shard",
           "registered_shard_rule_classes", "family_of_module",
           "LOCAL", "CROSSING", "GLOBAL"]


def analyze_shard(paths: Iterable[str],
                  rules: Optional[Iterable[ShardRule]] = None,
                  model: Optional[ShardModel] = None) -> List[Finding]:
    """Run the shard rules over every module under ``paths``.

    Suppression comments (``# simlint: disable=R15`` and
    ``disable-file=``) work exactly as for the per-file and deep
    rules; unparsable files yield one ``E0`` finding each.
    """
    if model is None:
        model = build_shard_model(paths)
    return project_findings(model.project,
                            shard_rules() if rules is None else rules,
                            lambda rule: rule.check_model(model))

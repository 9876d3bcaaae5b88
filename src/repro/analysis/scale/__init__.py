"""scalecheck — the growth-dimension pass (the ``--scale`` flag).

Infers a growth dimension for every container the analyzed tree
constructs (bounded < per-host < per-site < per-session; see
:mod:`repro.analysis.scale.model`) and runs the complexity rules
R22–R26 (:mod:`repro.analysis.scale.rules`) over it: per-event linear
scans, unbounded accumulation, quadratic membership, kernel-loop
allocation, and hot-path cache rebuilds.  :func:`analyze_scale`
mirrors :func:`repro.analysis.shard.analyze_shard`: parse, classify,
run the rules, apply the standard simlint suppression comments, return
sorted Finding objects — never importing the code under analysis.

:mod:`repro.analysis.scale.inventory` renders the whole model as
``docs/scale-readiness.md``, the work-list the brokered task-queue
layer (ROADMAP item 2) consumes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.core import Finding, project_findings
from repro.analysis.scale.model import (
    BOUNDED,
    PER_HOST,
    PER_SITE,
    POPULATION,
    ScaleModel,
    build_scale_model,
    dim_order,
)
from repro.analysis.scale.rules import (
    ScaleRule,
    register_scale,
    registered_scale_rule_classes,
    scale_rules,
)

__all__ = ["analyze_scale", "build_scale_model", "ScaleModel",
           "ScaleRule", "scale_rules", "register_scale",
           "registered_scale_rule_classes", "dim_order",
           "BOUNDED", "PER_HOST", "PER_SITE", "POPULATION"]


def analyze_scale(paths: Iterable[str],
                  rules: Optional[Iterable[ScaleRule]] = None,
                  model: Optional[ScaleModel] = None) -> List[Finding]:
    """Run the scale rules over every module under ``paths``.

    Suppression comments (``# simlint: disable=R22`` and
    ``disable-file=``) work exactly as for the per-file, deep and
    shard rules; unparsable files yield one ``E0`` finding each.
    """
    if model is None:
        model = build_scale_model(paths)
    return project_findings(model.project,
                            scale_rules() if rules is None else rules,
                            lambda rule: rule.check_model(model))

"""Physical query execution: Volcano operators, planner, and context.

Compiles a parsed twig query + NoK decomposition into an explicit tree of
composable iterator operators so results stream out incrementally —
instead of materializing every intermediate list. See
:mod:`repro.exec.planner` for the compilation pipeline and the secure
plan rewrite, :mod:`repro.exec.operators` for the one operator set
(batch-at-a-time, over the array kernels of :mod:`repro.exec.kernels`),
and :mod:`repro.exec.context` for the shared execution state and
statistics — including the decoded run list through which both secure
semantics answer ACCESS.
"""

from repro.exec.context import EvalStats, ExecutionContext, OperatorStats, QueryResult
from repro.exec.operators import (
    AccessFilter,
    Limit,
    NPMMatch,
    Operator,
    PageSkipScan,
    Project,
    STDJoin,
    StaticEmpty,
    TagIndexScan,
)
from repro.exec.planner import PhysicalPlan, Planner, apply_access_rewrite
from repro.exec.resultcache import ResultCache

__all__ = [
    "AccessFilter",
    "EvalStats",
    "ExecutionContext",
    "Limit",
    "NPMMatch",
    "Operator",
    "OperatorStats",
    "PageSkipScan",
    "PhysicalPlan",
    "Planner",
    "Project",
    "QueryResult",
    "ResultCache",
    "STDJoin",
    "StaticEmpty",
    "TagIndexScan",
    "apply_access_rewrite",
]

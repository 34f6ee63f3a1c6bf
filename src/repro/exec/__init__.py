"""Physical query execution: Volcano operators, planner, and context.

Compiles a parsed twig query + NoK decomposition into an explicit tree of
composable iterator operators so results stream out incrementally —
instead of materializing every intermediate list. See
:mod:`repro.exec.planner` for the compilation pipeline and the
secure-semantics plan rewrites, :mod:`repro.exec.operators` for the one
operator set (batch-at-a-time, over the array kernels of
:mod:`repro.exec.kernels`), and :mod:`repro.exec.context` for the shared
execution state, statistics and the view-semantics
:class:`~repro.exec.context.PathAccessIndex`.
"""

from repro.exec.context import EvalStats, ExecutionContext, OperatorStats, QueryResult
from repro.exec.operators import (
    AccessFilter,
    Limit,
    NPMMatch,
    Operator,
    PageSkipScan,
    PathCheck,
    Project,
    RootVerify,
    STDJoin,
    StaticEmpty,
    TagIndexScan,
)
from repro.exec.planner import (
    PhysicalPlan,
    Planner,
    apply_cho_rewrite,
    apply_view_rewrite,
)
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
    "PathCheck",
    "PhysicalPlan",
    "Planner",
    "Project",
    "QueryResult",
    "ResultCache",
    "RootVerify",
    "STDJoin",
    "StaticEmpty",
    "TagIndexScan",
    "apply_cho_rewrite",
    "apply_view_rewrite",
]

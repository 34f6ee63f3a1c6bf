"""Compiling twig queries into physical operator plans.

The :class:`Planner` turns a parsed pattern tree plus its NoK
decomposition into a tree of Volcano operators:

1. each NoK subtree becomes ``TagIndexScan → NPMMatch`` — the scan's
   candidates have passed the root's whole node test against the
   plan's document, so no operator reads a page to re-check a root;
2. every ancestor–descendant edge of the decomposition folds the child
   subtree's plan into its parent via an :class:`~repro.exec.operators.STDJoin`
   (children joined bottom-up, in decomposition-edge order);
3. the secure *rewrite* :func:`apply_access_rewrite` then transforms the
   tree — security is a plan transformation, not an ``if`` branch inside
   an evaluator. It inserts an
   :class:`~repro.exec.operators.AccessFilter` (the ε-NoK
   pre-condition) directly above every scan: above the
   ``TagIndexScan`` in memory, and over a block store above the
   :class:`~repro.exec.operators.PageSkipScan` it first puts over the
   ``TagIndexScan``. One rewrite serves both semantics: the context's
   run list is node-level under Cho and path-level under view
   (Gabillon–Bruno), so under view the filters prune the view and every
   binding a join sees already has an accessible root path;

4. a :class:`~repro.exec.operators.Project` (distinct returning-node
   positions) and an optional :class:`~repro.exec.operators.Limit` cap
   the plan.

The resulting :class:`PhysicalPlan` executes lazily (`execute()` yields
positions as they are found), runs to completion (`run()` returns a
:class:`~repro.exec.context.QueryResult`), and renders itself
(`explain()` / `explain(analyze=True)` with per-operator row counts and
timings).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterator, List, Optional, Union

from repro.exec.context import ExecutionContext, QueryResult
from repro.exec.kernels import active_kernels
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
from repro.nok.decompose import Decomposition, decompose
from repro.nok.pattern import CHILD, PatternTree, parse_query


class PhysicalPlan:
    """A compiled, executable operator tree plus its execution context."""

    def __init__(
        self,
        root: Operator,
        ctx: ExecutionContext,
        pattern: PatternTree,
        decomposition: Decomposition,
        prepass: Optional[str] = None,
    ):
        self.root = root
        self.ctx = ctx
        self.pattern = pattern
        self.decomposition = decomposition
        self.executed = False
        #: static pre-evaluation verdict: "allow" (filters dropped),
        #: "deny" (plan answers empty with no store I/O), or None
        self.prepass = prepass

    def operators(self) -> List[Operator]:
        """All plan operators, preorder."""
        return list(self.root.walk())

    def execute(self) -> Iterator[int]:
        """Stream distinct returning-node positions as they are found.

        Page-read deltas and wall time are folded into ``ctx.stats`` when
        the stream is exhausted or closed; ``wall_time`` is the root
        operator's inclusive time (consumer think-time excluded).
        """
        self.executed = True
        io_before = self.ctx.io_snapshot()
        self.ctx.stats.kernel_backend = active_kernels().name
        try:
            for batch in self.root.execute(self.ctx):
                yield from batch
        finally:
            io_after = self.ctx.io_snapshot()
            stats = self.ctx.stats
            stats.logical_page_reads += io_after[0] - io_before[0]
            stats.physical_page_reads += io_after[1] - io_before[1]
            stats.decoded_cache_hits += io_after[2] - io_before[2]
            stats.pages_decoded_columnar += io_after[3] - io_before[3]
            stats.wall_time = self.root.stats.time

    def run(self) -> QueryResult:
        """Execute to completion and package a :class:`QueryResult`."""
        started = perf_counter()
        positions = sorted(self.execute())
        elapsed = perf_counter() - started
        stats = self.ctx.stats
        if stats.wall_time == 0.0:
            stats.wall_time = elapsed
        n_bindings = self._bindings_seen()
        return QueryResult(
            positions=positions, n_bindings=n_bindings, stats=stats
        )

    def _bindings_seen(self) -> int:
        for op in self.root.walk():
            if isinstance(op, Project):
                return op.stats.extra.get("bindings_in", 0)
        return 0

    def explain(self, analyze: bool = False) -> str:
        """Render the plan tree, with live counters when ``analyze``."""
        lines: List[str] = []
        if self.prepass == "allow":
            lines.append(
                "static pre-pass: access class fully accessible"
                " -- access filters dropped"
            )
        elif self.prepass == "deny":
            lines.append(
                "static pre-pass: access class fully denied"
                " -- empty answer, no store reads"
            )
        self._render(self.root, 0, analyze, lines)
        if analyze:
            stats = self.ctx.stats
            backend = stats.kernel_backend or active_kernels().name
            lines.append(
                f"kernels: {backend}"
                f" (columnar pages decoded={stats.pages_decoded_columnar})"
            )
        return "\n".join(lines)

    def _render(
        self, op: Operator, depth: int, analyze: bool, lines: List[str]
    ) -> None:
        detail = op.describe()
        text = "  " * depth + ("-> " if depth else "") + op.name
        if detail:
            text += f" [{detail}]"
        if analyze:
            text += (
                f"  (rows={op.stats.rows_out}"
                f" time={op.stats.time * 1000.0:.3f}ms"
            )
            for counter, value in sorted(op.stats.extra.items()):
                text += f" {counter}={value}"
            batches = op.stats.extra.get("batches", 0)
            if batches:
                text += f" rows/batch={op.stats.rows_out / batches:.1f}"
            text += ")"
        lines.append(text)
        for child in op.children:
            self._render(child, depth + 1, analyze, lines)


# -- the secure rewrite --------------------------------------------------------


def _transform(op: Operator, fn: Callable[[Operator], Operator]) -> Operator:
    """Bottom-up tree rewrite: children first, then the node itself."""
    op.children = [_transform(child, fn) for child in op.children]
    return fn(op)


def apply_access_rewrite(root: Operator, ctx: ExecutionContext) -> Operator:
    """Secure evaluation, under either semantics, as a plan transformation.

    Every candidate root gains the ε-NoK ACCESS pre-condition
    (:class:`AccessFilter`); over a block store every scan gains
    header-driven page skipping (:class:`PageSkipScan`). Joins need
    nothing extra — every binding delivered by ε-NoK already passed its
    check, which under view semantics is the whole root path's (the
    context's run list decides which).
    """

    def rewrite(op: Operator) -> Operator:
        if not isinstance(op, TagIndexScan):
            return op
        return AccessFilter(PageSkipScan(op) if ctx.store is not None else op)

    return _transform(root, rewrite)


class Planner:
    """Compiles pattern trees into :class:`PhysicalPlan` objects."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx

    def plan(
        self,
        query: Union[str, PatternTree],
        ordered: bool = False,
        limit: Optional[int] = None,
    ) -> PhysicalPlan:
        """Compile a query (string or pattern tree) into a physical plan."""
        pattern = parse_query(query) if isinstance(query, str) else query
        dec = decompose(pattern)
        return self.plan_from(pattern, dec, ordered=ordered, limit=limit)

    def plan_from(
        self,
        pattern: PatternTree,
        dec: Decomposition,
        ordered: bool = False,
        limit: Optional[int] = None,
    ) -> PhysicalPlan:
        """Build a fresh operator tree from pre-compiled artifacts.

        ``pattern`` and ``dec`` are the data-independent halves of a
        compile (what the :class:`~repro.exec.plancache.PlanCache`
        stores, shared read-only across plans); the operator tree is
        stateful and therefore always built anew.

        For secure plans a static pre-evaluation pass inspects the
        class's decoded run list first: a fully accessible class needs
        no access machinery (the rewrite is skipped — every filter would
        pass every row), and a fully denied class compiles to a single
        :class:`~repro.exec.operators.StaticEmpty` root that answers
        without touching the store. Both verdicts land in ``EvalStats``
        (``static_allow`` / ``static_deny``) and in ``explain()``.
        """
        prepass = self._static_prepass()
        if prepass == "deny":
            return PhysicalPlan(
                StaticEmpty(), self.ctx, pattern, dec, prepass=prepass
            )
        root = self._plan_subtree(dec, 0, pattern, ordered)
        if self.ctx.secure and prepass != "allow":
            root = apply_access_rewrite(root, self.ctx)
        root = Project(root, pattern.returning_node)
        if limit is not None:
            root = Limit(root, limit)
        return PhysicalPlan(root, self.ctx, pattern, dec, prepass=prepass)

    def _plan_subtree(
        self,
        dec: Decomposition,
        index: int,
        pattern: PatternTree,
        ordered: bool,
    ) -> Operator:
        subtree = dec.subtrees[index]
        anchored = index == 0 and pattern.root_axis == CHILD
        op: Operator = TagIndexScan(subtree.root, anchored=anchored)
        op = NPMMatch(op, subtree, ordered)
        for edge in dec.children_of(index):
            child_plan = self._plan_subtree(dec, edge.child_subtree, pattern, ordered)
            op = STDJoin(
                op,
                child_plan,
                edge.parent_node,
                dec.subtrees[edge.child_subtree].root,
            )
        return op

    def _static_prepass(self) -> Optional[str]:
        """Class-level allow/deny decided before any operator is built.

        The verdict reads the query's decoded run list *through the run
        cache* (so repeated compiles of one epoch share the decode and
        the hit/miss accounting stays honest): all positions accessible
        means every access filter would pass every row under either
        semantics — drop them; none accessible means no binding can
        survive — the plan is statically empty. Partial accessibility
        returns None and the secure rewrite applies.
        """
        ctx = self.ctx
        if not ctx.secure:
            return None
        run_list = ctx.run_list()
        if run_list is None or run_list.hi <= run_list.lo:
            return None
        accessible = run_list.count_accessible()
        if accessible == 0:
            ctx.stats.static_deny = 1
            return "deny"
        if accessible == run_list.hi - run_list.lo:
            ctx.stats.static_allow = 1
            ctx.neutralize_access()
            return "allow"
        return None

"""Tests for the physical plan compiler: structure, rewrites, correctness.

The planner must (a) emit the right operator tree for each query shape,
(b) apply the secure rewrite as a plan transformation, and
(c) produce answers identical to the legacy evaluation semantics — for
every benchmark query, under both Cho and view semantics, over both the
in-memory document and the block store.
"""

import pytest

from repro.acl.model import AccessMatrix
from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.bench.queries import QUERIES
from repro.bench.reporting import format_plan_table
from repro.exec import (
    AccessFilter,
    Limit,
    NPMMatch,
    PageSkipScan,
    Project,
    STDJoin,
    TagIndexScan,
)
from repro.nok.engine import QueryEngine
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document


@pytest.fixture(scope="module")
def xdoc():
    return generate_document(XMarkConfig(n_items=40, seed=7))


@pytest.fixture(scope="module")
def matrix(xdoc):
    config = SyntheticACLConfig(accessibility_ratio=0.7, seed=11)
    return generate_synthetic_acl(xdoc, config, n_subjects=2)


def _ops(plan, kind):
    return [op for op in plan.operators() if isinstance(op, kind)]


@pytest.fixture(scope="module")
def partial_matrix(xdoc):
    # Subject 0's root path is accessible but one subtree is revoked, so
    # path accessibility is partial and the static pre-pass cannot
    # resolve the class — the secure rewrite must actually appear.
    matrix = AccessMatrix(len(xdoc), 2)
    matrix.grant_range(0, 0, len(xdoc))
    for pos in range(100, 200):
        matrix.set_accessible(0, pos, False)
    return matrix


class TestPlanShape:
    def test_single_subtree_plan(self, xdoc):
        engine = QueryEngine.build(xdoc)
        plan = engine.compile(QUERIES["Q1"])
        assert isinstance(plan.root, Project)
        assert len(_ops(plan, NPMMatch)) == 1
        assert len(_ops(plan, STDJoin)) == 0
        assert len(_ops(plan, TagIndexScan)) == 1
        # Non-secure plans carry no access machinery at all.
        assert len(_ops(plan, AccessFilter)) == 0
        assert len(_ops(plan, PageSkipScan)) == 0

    def test_join_plan_has_one_std_join(self, xdoc):
        engine = QueryEngine.build(xdoc)
        plan = engine.compile(QUERIES["Q5"])  # //listitem//keyword
        assert len(_ops(plan, STDJoin)) == 1
        assert len(_ops(plan, NPMMatch)) == 2

    def test_anchored_scan_for_child_root_axis(self, xdoc):
        engine = QueryEngine.build(xdoc)
        plan = engine.compile("/site/regions")
        scans = _ops(plan, TagIndexScan)
        assert len(scans) == 1 and scans[0].anchored

    def test_limit_caps_plan(self, xdoc):
        engine = QueryEngine.build(xdoc)
        plan = engine.compile("//item", limit=3)
        assert isinstance(plan.root, Limit)
        assert plan.run().n_answers == 3

    def test_cho_rewrite_adds_access_filters(self, xdoc, matrix):
        in_memory = QueryEngine.build(xdoc, matrix)
        stored = QueryEngine.build(xdoc, matrix, use_store=True, page_size=256)
        for engine, scan in ((in_memory, TagIndexScan), (stored, PageSkipScan)):
            plan = engine.compile(QUERIES["Q5"], subject=0, semantics=CHO)
            # one AccessFilter per NoK subtree, directly above its scan
            filters = _ops(plan, AccessFilter)
            assert len(filters) == 2
            assert all(isinstance(f.child, scan) for f in filters)
            # and the matcher directly above the filter: nothing re-reads
            # a page to re-check a root the scan already tested
            assert all(isinstance(m.child, AccessFilter) for m in _ops(plan, NPMMatch))

    @pytest.mark.parametrize("use_store", (False, True), ids=("memory", "store"))
    def test_view_plan_has_the_cho_plan_shape(self, xdoc, partial_matrix, use_store):
        # one rewrite serves both semantics: a view plan differs from the
        # Cho plan only in the run list its filters read
        engine = QueryEngine.build(
            xdoc, partial_matrix, use_store=use_store, page_size=256
        )

        def shape(semantics):
            plan = engine.compile(QUERIES["Q5"], subject=0, semantics=semantics)
            assert plan.prepass is None
            return [
                (op.name, [child.name for child in op.children])
                for op in plan.operators()
            ]

        assert shape(VIEW) == shape(CHO)
        assert ("STDJoin", ["NPMMatch", "NPMMatch"]) in shape(VIEW)

    def test_fully_blocked_view_compiles_to_static_empty(self, xdoc, matrix):
        # the synthetic matrix denies subject 0 the document root, so
        # under view semantics no root path is accessible: the static
        # pre-pass answers empty without building the operator tree
        engine = QueryEngine.build(xdoc, matrix)
        plan = engine.compile(QUERIES["Q5"], subject=0, semantics=VIEW)
        assert plan.prepass == "deny"
        assert plan.run().n_answers == 0
        assert "fully denied" in plan.explain()

    def test_page_skip_only_over_store(self, xdoc, matrix):
        in_memory = QueryEngine.build(xdoc, matrix)
        stored = QueryEngine.build(xdoc, matrix, use_store=True, page_size=256)
        assert len(_ops(in_memory.compile("//item", subject=0), PageSkipScan)) == 0
        plan = stored.compile("//item", subject=0)
        skips = _ops(plan, PageSkipScan)
        assert len(skips) == 1
        assert isinstance(skips[0].child, TagIndexScan)

    def test_explain_renders_tree(self, xdoc, partial_matrix):
        engine = QueryEngine.build(xdoc, partial_matrix)
        plan = engine.compile(QUERIES["Q5"], subject=0, semantics=VIEW)
        text = plan.explain()
        for name in ("Project", "STDJoin", "NPMMatch", "AccessFilter", "TagIndexScan"):
            assert name in text
        assert "rows=" not in text  # analyze=False

    def test_explain_analyze_shows_counters(self, xdoc, matrix):
        engine = QueryEngine.build(xdoc, matrix)
        result, text = engine.explain_analyze(QUERIES["Q5"], subject=0)
        assert result.n_answers >= 0
        assert "rows=" in text and "time=" in text

    def test_plan_table_report(self, xdoc):
        engine = QueryEngine.build(xdoc)
        plan = engine.compile("//item")
        plan.run()
        table = format_plan_table("Q plan", plan)
        assert "operator" in table and "TagIndexScan" in table


class TestPlanCorrectness:
    @pytest.mark.parametrize("qid", sorted(QUERIES))
    def test_matches_reference_all_semantics(self, xdoc, matrix, qid):
        engine = QueryEngine.build(xdoc, matrix)
        masks = matrix.masks()
        plain = set(engine.evaluate(QUERIES[qid]).positions)
        assert plain == evaluate_reference(xdoc, _pattern(qid))
        for semantics in (CHO, VIEW):
            got = set(
                engine.evaluate(QUERIES[qid], subject=0, semantics=semantics).positions
            )
            want = evaluate_reference(xdoc, _pattern(qid), masks, 0, semantics)
            assert got == want, (qid, semantics)

    @pytest.mark.parametrize("qid", sorted(QUERIES))
    @pytest.mark.parametrize("semantics", [CHO, VIEW])
    def test_store_matches_in_memory(self, xdoc, matrix, qid, semantics):
        """Acceptance: identical bindings in memory and over the store."""
        in_memory = QueryEngine.build(xdoc, matrix)
        stored = QueryEngine.build(
            xdoc, matrix, use_store=True, page_size=256, buffer_capacity=8
        )
        a = in_memory.evaluate(QUERIES[qid], subject=0, semantics=semantics)
        b = stored.evaluate(QUERIES[qid], subject=0, semantics=semantics)
        assert a.positions == b.positions, (qid, semantics)
        assert a.n_bindings == b.n_bindings, (qid, semantics)

    def test_stream_order_is_discovery_order_with_same_set(self, xdoc, matrix):
        engine = QueryEngine.build(xdoc, matrix)
        streamed = list(engine.stream("//item", subject=0))
        drained = engine.evaluate("//item", subject=0).positions
        assert sorted(streamed) == drained

    def test_user_level_subjects_union(self, xdoc, matrix):
        engine = QueryEngine.build(xdoc, matrix)
        either = set(engine.evaluate("//item", subject=(0, 1)).positions)
        s0 = set(engine.evaluate("//item", subject=0).positions)
        s1 = set(engine.evaluate("//item", subject=1).positions)
        assert either == s0 | s1


def _pattern(qid):
    from repro.nok.pattern import parse_query

    return parse_query(QUERIES[qid])

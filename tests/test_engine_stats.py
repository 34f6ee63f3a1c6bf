"""Tests for evaluation statistics and result metadata."""

import pytest

from repro.acl.model import AccessMatrix
from repro.bench.queries import QUERIES
from repro.nok.engine import EvalStats, QueryEngine, QueryResult
from repro.xmark.generator import XMarkConfig, generate_document
from repro.xmltree.builder import tree
from repro.xmltree.document import Document


@pytest.fixture
def engine():
    doc = Document.from_tree(
        tree(("r", ("a", ("b",)), ("a", ("b",)), ("a",)))
    )
    matrix = AccessMatrix(len(doc), 1)
    matrix.grant_range(0, 0, len(doc))
    return QueryEngine.build(doc, matrix, use_store=True, page_size=128)


class TestEvalStats:
    def test_wall_time_recorded(self, engine):
        result = engine.evaluate("//a")
        assert result.stats.wall_time > 0

    def test_candidates_counted(self, engine):
        result = engine.evaluate("//a")
        assert result.stats.candidates == 3

    def test_no_access_checks_when_non_secure(self, engine):
        result = engine.evaluate("//a/b")
        assert result.stats.access_checks == 0

    def test_fully_granted_subject_resolved_statically(self, engine):
        # subject 0 is granted everywhere, so the static pre-pass proves
        # the access class fully accessible and drops the per-node
        # filters: the correct answer with zero runtime access checks
        result = engine.evaluate("//a/b", subject=0)
        assert result.stats.static_allow == 1
        assert result.stats.access_checks == 0
        assert result.n_answers == 2

    def test_access_checks_when_partially_granted(self, engine):
        # revoke one node: the class is neither fully allowed nor fully
        # denied, so the filters stay and every candidate is checked
        engine.store.update_subject_range(3, 4, 0, False)
        result = engine.evaluate("//a/b", subject=0)
        assert result.stats.static_allow == 0
        assert result.stats.static_deny == 0
        assert result.stats.access_checks > 0

    def test_as_dict(self):
        stats = EvalStats(wall_time=1.5, access_checks=3)
        d = stats.as_dict()
        assert d["wall_time"] == 1.5
        assert d["access_checks"] == 3
        assert "candidates" in d

    def test_page_reads_per_query_isolated(self, engine):
        first = engine.evaluate("//a")
        engine.store.drop_caches()
        second = engine.evaluate("//a")
        # counters are per-evaluation deltas, not cumulative
        assert second.stats.physical_page_reads <= first.stats.physical_page_reads + 2


    def test_explain_analyze_reports_pins_of_the_matcher(self):
        # a store-backed Q1: every pin is a page lookup, and page lookups
        # are what ``logical_page_reads`` counts
        doc = generate_document(XMarkConfig(n_items=40, seed=2))
        matrix = AccessMatrix(len(doc), 1)
        matrix.grant_range(0, 0, len(doc))
        engine = QueryEngine.build(doc, matrix, use_store=True, page_size=512)
        plan = engine.compile(QUERIES["Q1"])
        result = plan.run()
        (npm,) = [op for op in plan.operators() if op.name == "NPMMatch"]
        pins = npm.stats.extra["pins"]
        assert 0 < pins <= result.stats.logical_page_reads
        assert f"pins={pins}" in plan.explain(analyze=True)
        # in memory there are no pages to pin
        memory = QueryEngine.build(doc, matrix).compile(QUERIES["Q1"])
        memory.run()
        assert "pins=" not in memory.explain(analyze=True)


class TestQueryResult:
    def test_n_answers_is_distinct_positions(self):
        result = QueryResult(positions=[1, 4, 9], n_bindings=7)
        assert result.n_answers == 3
        assert result.n_bindings == 7

    def test_empty_result(self):
        result = QueryResult()
        assert result.n_answers == 0
        assert result.positions == []

    def test_bindings_at_least_answers(self, engine):
        result = engine.evaluate("//a/b")
        assert result.n_bindings >= result.n_answers


class TestStreamHelpers:
    def test_masks_in_document_order(self):
        from repro.dol.stream import masks_in_document_order
        from repro.xmltree import parser

        events = parser.iterparse("<a><b/><c><d/></c></a>")
        masks = list(
            masks_in_document_order(events, lambda pos, tag, path: pos * 10)
        )
        assert masks == [0, 10, 20, 30]

"""Tests for QueryEngine.explain plan descriptions."""

from repro.bench.queries import QUERIES
from repro.nok.engine import QueryEngine


class TestExplain:
    def test_single_subtree_plan(self, xmark_doc):
        engine = QueryEngine.build(xmark_doc)
        plan = engine.explain(QUERIES["Q1"])
        assert "NoK subtrees: 1" in plan
        assert "AD joins: 0" in plan
        assert "<site>" in plan
        assert "(query root)" in plan

    def test_join_plan(self, xmark_doc):
        engine = QueryEngine.build(xmark_doc)
        plan = engine.explain(QUERIES["Q4"])
        assert "NoK subtrees: 2" in plan
        assert "AD joins: 1" in plan
        assert "join order (bottom-up): 1 -> 0" in plan

    def test_candidate_counts_match_index(self, xmark_doc):
        engine = QueryEngine.build(xmark_doc)
        plan = engine.explain("//keyword")
        n = len(xmark_doc.positions_with_tag("keyword"))
        assert f"{n} index candidates" in plan

    def test_returning_marker(self, xmark_doc):
        engine = QueryEngine.build(xmark_doc)
        plan = engine.explain("//listitem//keyword")
        lines = [l for l in plan.splitlines() if "[returning]" in l]
        assert len(lines) == 1
        assert "<keyword>" in lines[0]

    def test_every_table1_query_explains(self, xmark_doc):
        engine = QueryEngine.build(xmark_doc)
        for qid, query in QUERIES.items():
            plan = engine.explain(query)
            assert plan.startswith("query: /"), qid

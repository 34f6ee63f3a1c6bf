"""Unit and oracle tests for the end-to-end query engine."""

import pytest

from repro.acl.model import AccessMatrix
from repro.bench.queries import QUERIES
from repro.errors import ReproError
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmltree.builder import tree
from repro.xmltree.document import Document


@pytest.fixture
def doc():
    return Document.from_tree(
        tree(
            (
                "site",
                ("region", ("item", ("name", "anvil")), ("item", ("name", "rope"))),
                ("region", ("item", ("name", "anvil"), ("note",))),
            )
        )
    )


class TestNonSecure:
    def test_child_path(self, doc):
        result = QueryEngine.build(doc).evaluate("/site/region/item")
        assert result.positions == [2, 4, 7]

    def test_predicate(self, doc):
        result = QueryEngine.build(doc).evaluate("/site/region/item[note]")
        assert result.positions == [7]

    def test_value_predicate(self, doc):
        result = QueryEngine.build(doc).evaluate('/site/region/item[name = "anvil"]')
        assert result.positions == [2, 7]

    def test_descendant_root(self, doc):
        result = QueryEngine.build(doc).evaluate("//item")
        assert result.positions == [2, 4, 7]

    def test_descendant_join(self, doc):
        result = QueryEngine.build(doc).evaluate("//region//name")
        assert result.positions == [3, 5, 8]

    def test_root_mismatch_returns_nothing(self, doc):
        assert QueryEngine.build(doc).evaluate("/other/x").positions == []

    def test_answers_count(self, doc):
        result = QueryEngine.build(doc).evaluate("//item")
        assert result.n_answers == 3
        assert result.n_bindings >= 3


class TestSecure:
    @pytest.fixture
    def engine(self, doc):
        matrix = AccessMatrix(len(doc), 2)
        matrix.grant_range(0, 0, len(doc))  # subject 0 sees everything
        # subject 1: everything except the first region's subtree
        matrix.grant_range(1, 0, 1)
        matrix.grant_range(1, 6, len(doc))
        return QueryEngine.build(doc, matrix)

    def test_full_access_equals_non_secure(self, doc, engine):
        plain = QueryEngine.build(doc).evaluate("/site/region/item")
        secure = engine.evaluate("/site/region/item", subject=0)
        assert plain.positions == secure.positions

    def test_partial_access_filters(self, engine):
        result = engine.evaluate("/site/region/item", subject=1)
        assert result.positions == [7]

    def test_inaccessible_root_kills_query(self, doc):
        matrix = AccessMatrix(len(doc), 1)  # nothing accessible
        engine = QueryEngine.build(doc, matrix)
        assert engine.evaluate("/site/region", subject=0).positions == []

    def test_secure_without_dol_rejected(self, doc):
        with pytest.raises(ReproError):
            QueryEngine.build(doc).evaluate("/site", subject=0)

    def test_store_and_engine_share_labeling(self, doc):
        from repro.dol.labeling import DOL
        from repro.storage.nokstore import NoKStore

        masks = [1] * len(doc)
        store = NoKStore(doc, DOL.from_masks(masks, 1), page_size=128)
        with pytest.raises(ReproError, match="share one labeling"):
            QueryEngine(doc, labeling=DOL.from_masks(masks, 1), store=store)

    def test_unknown_semantics_rejected(self, engine):
        with pytest.raises(ReproError):
            engine.evaluate("/site", subject=0, semantics="bogus")

    def test_access_checks_counted(self, engine):
        result = engine.evaluate("/site/region/item", subject=1)
        assert result.stats.access_checks > 0


class TestChoVsViewSemantics:
    """The paper's Section 4.2 example: answers from inside an inaccessible
    subtree are allowed under Cho semantics but not under view semantics."""

    @pytest.fixture
    def setup(self, doc):
        matrix = AccessMatrix(len(doc), 1)
        matrix.grant_range(0, 0, len(doc))
        matrix.set_accessible(0, 1, False)  # first region inaccessible
        return QueryEngine.build(doc, matrix)

    def test_cho_allows_descendants_of_blocked_nodes(self, setup):
        # //item does not bind the region, so items below it survive.
        result = setup.evaluate("//item", subject=0, semantics=CHO)
        assert result.positions == [2, 4, 7]

    def test_view_prunes_blocked_subtrees(self, setup):
        result = setup.evaluate("//item", subject=0, semantics=VIEW)
        assert result.positions == [7]

    def test_cho_still_blocks_bound_nodes(self, setup):
        # /site/region binds the region itself -> only the accessible one.
        result = setup.evaluate("/site/region", subject=0, semantics=CHO)
        assert result.positions == [6]


class TestOracleAgreement:
    """Engine answers must equal the brute-force reference on XMark."""

    @pytest.mark.parametrize("qid", list(QUERIES))
    def test_non_secure(self, xmark_doc, qid):
        engine = QueryEngine.build(xmark_doc)
        got = set(engine.evaluate(QUERIES[qid]).positions)
        want = evaluate_reference(xmark_doc, parse_query(QUERIES[qid]))
        assert got == want

    @pytest.mark.parametrize("qid", list(QUERIES))
    @pytest.mark.parametrize("semantics", [CHO, VIEW])
    def test_secure(self, xmark_doc, xmark_acl, qid, semantics):
        engine = QueryEngine.build(xmark_doc, xmark_acl)
        for subject in range(xmark_acl.n_subjects):
            got = set(
                engine.evaluate(QUERIES[qid], subject=subject, semantics=semantics).positions
            )
            want = evaluate_reference(
                xmark_doc, parse_query(QUERIES[qid]), xmark_acl.masks(), subject, semantics
            )
            assert got == want, (qid, subject, semantics)

    @pytest.mark.parametrize("qid", list(QUERIES))
    def test_store_backed_secure(self, xmark_doc, xmark_acl, qid):
        engine = QueryEngine.build(
            xmark_doc, xmark_acl, use_store=True, page_size=512, buffer_capacity=16
        )
        got = set(engine.evaluate(QUERIES[qid], subject=2).positions)
        want = evaluate_reference(
            xmark_doc, parse_query(QUERIES[qid]), xmark_acl.masks(), 2, CHO
        )
        assert got == want

    def test_view_subset_of_cho(self, xmark_doc, xmark_acl):
        engine = QueryEngine.build(xmark_doc, xmark_acl)
        for qid in QUERIES:
            cho = set(engine.evaluate(QUERIES[qid], subject=0, semantics=CHO).positions)
            view = set(engine.evaluate(QUERIES[qid], subject=0, semantics=VIEW).positions)
            assert view <= cho, qid


class TestStoreStatistics:
    def test_io_counted_with_store(self, xmark_doc, xmark_acl):
        engine = QueryEngine.build(
            xmark_doc, xmark_acl, use_store=True, page_size=512, buffer_capacity=8
        )
        # ``[name]``: the matcher reads each candidate's page
        result = engine.evaluate("//item[name]", subject=0)
        assert result.stats.logical_page_reads > 0
        assert result.stats.physical_page_reads > 0

    def test_static_deny_answers_without_store_reads(self, xmark_doc):
        matrix = AccessMatrix(len(xmark_doc), 1)  # all denied
        engine = QueryEngine.build(xmark_doc, matrix, use_store=True, page_size=512)
        result = engine.evaluate("//item", subject=0)
        assert result.positions == []
        # the static pre-pass proves the class fully denied before any
        # operator is built: no candidates, no page reads at all
        assert result.stats.static_deny == 1
        assert result.stats.candidates == 0
        assert result.stats.logical_page_reads == 0
        assert result.stats.physical_page_reads == 0

    def test_page_skip_counted_when_partially_denied(self, xmark_doc):
        # deny everything except one early subtree: entire later pages
        # are inaccessible and the header check prunes their candidates
        matrix = AccessMatrix(len(xmark_doc), 1)
        matrix.grant_range(0, 0, 40)
        engine = QueryEngine.build(xmark_doc, matrix, use_store=True, page_size=512)
        result = engine.evaluate("//item", subject=0)
        assert result.stats.static_deny == 0
        assert result.stats.candidates_skipped_by_header > 0

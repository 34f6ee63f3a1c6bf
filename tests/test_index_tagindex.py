"""The tag index: per-tag sorted position arrays memoized on a Document.

``Document.positions_with_tag`` is the index ``TagIndexScan`` seeds NoK
matching from. The property below holds it to a linear scan; the
regression tests pin that a plan reads the index of the document it
evaluates — the snapshot's — so an edit can never leave it stale.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dol.labeling import DOL
from repro.exec.context import ExecutionContext
from repro.exec.operators import TagIndexScan
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.secured import SecuredDocument
from repro.storage.nokstore import NoKStore
from repro.xmltree.builder import tree
from repro.xmltree.document import Document
from repro.xmltree.node import Node

from tests.conftest import random_document


def linear_scan(doc: Document, name: str):
    return [pos for pos in range(len(doc)) if doc.tag_name(pos) == name]


@given(
    seed=st.integers(min_value=0, max_value=99_999),
    n_nodes=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=100, deadline=None)
def test_positions_match_linear_scan(seed, n_nodes):
    doc = random_document(random.Random(seed), n_nodes)
    names = [doc.tag_dict.name_of(t) for t in range(len(doc.tag_dict))]
    for name in names + ["absent"]:
        assert list(doc.positions_with_tag(name)) == linear_scan(doc, name)


class TestTagLookup:
    def test_positions_match_scan(self, xmark_doc):
        for tag in ("item", "keyword", "parlist", "bold"):
            assert list(xmark_doc.positions_with_tag(tag)) == linear_scan(xmark_doc, tag)

    def test_positions_sorted(self, xmark_doc):
        positions = list(xmark_doc.positions_with_tag("item"))
        assert positions == sorted(positions)

    def test_absent_tag(self, xmark_doc):
        assert len(xmark_doc.positions_with_tag("nonexistent")) == 0

    def test_memoized(self, xmark_doc):
        assert xmark_doc.positions_with_tag("item") is xmark_doc.positions_with_tag("item")


class TestValueLookup:
    def test_tag_value_pairs(self, small_doc):
        def scan(query):
            ctx = ExecutionContext(small_doc)
            op = TagIndexScan(parse_query(query).root)
            return [pos for batch in op.execute(ctx) for pos in batch]

        assert scan('//name = "anvil"') == [2]
        assert scan('//price = "10"') == [3, 6]
        assert scan('//name = "missing"') == []


def _secured_store():
    """``<site><a><b/></a><a><b/></a></site>`` over a small-page store."""
    doc = Document.from_tree(tree(("site", ("a", ("b",)), ("a", ("b",)))))
    dol = DOL.from_masks([1] * len(doc), 1)
    store = NoKStore(doc, dol, page_size=96)
    return SecuredDocument(doc, dol, store), store


class TestIndexFollowsTheSnapshot:
    def test_engine_built_before_an_edit_sees_it(self):
        secured, store = _secured_store()
        engine = QueryEngine(store.doc, store=store)
        secured.insert_subtree(0, 0, Node("b"), [1])
        pattern = parse_query("//b")
        got = set(engine.evaluate(pattern).positions)
        assert got == evaluate_reference(store.doc, pattern) == {1, 3, 5}

    def test_snapshot_pinned_before_an_edit_reads_its_own_document(self):
        secured, store = _secured_store()
        old = store.snapshot()
        secured.insert_subtree(0, 0, Node("b"), [1])
        engine = QueryEngine(store.doc, store=store)
        pattern = parse_query("//b")
        got = set(engine.evaluate(pattern, snapshot=old).positions)
        assert got == evaluate_reference(old.doc, pattern) == {2, 4}

    def test_explain_counts_the_current_document(self):
        secured, store = _secured_store()
        engine = QueryEngine(store.doc, store=store)
        secured.insert_subtree(0, 0, Node("b"), [1])
        assert "3 index candidates" in engine.explain("//b")

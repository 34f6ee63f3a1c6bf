"""The view-semantics path accessibility index: what it computes, and
that it is built once per (epoch, access class) and never outlives its
epoch."""

import pytest

from repro.acl.model import AccessMatrix
from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.exec import context
from repro.exec.context import PathAccessIndex
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document
from repro.xmltree.document import NO_NODE


class TestPathAccessIndex:
    def make_index(self, doc, vector, subject=0):
        dol = DOL.from_masks([int(v) for v in vector], 1)
        return PathAccessIndex(doc, dol, subject)

    def test_all_accessible(self, paper_doc):
        index = self.make_index(paper_doc, [True] * 12)
        assert all(index.deepest_blocked[pos] == NO_NODE for pos in range(12))
        assert index.path_accessible(0, 11)

    def test_blocked_node_recorded(self, paper_doc):
        vector = [True] * 12
        vector[7] = False  # h blocked
        index = self.make_index(paper_doc, vector)
        assert index.deepest_blocked[7] == 7
        assert index.deepest_blocked[8] == 7  # i inherits the block
        assert index.deepest_blocked[4] == NO_NODE

    def test_node_accessible(self, paper_doc):
        vector = [True] * 12
        vector[7] = False
        index = self.make_index(paper_doc, vector)
        assert not index.node_accessible(7)
        assert index.node_accessible(8)

    def test_path_blocked_in_middle(self, paper_doc):
        vector = [True] * 12
        vector[4] = False  # e blocked: a -> e -> h path is broken
        index = self.make_index(paper_doc, vector)
        assert not index.path_accessible(0, 7)
        assert not index.path_accessible(4, 7)  # e itself is blocked
        # but within e's subtree, h -> i is fine
        assert index.path_accessible(7, 8)

    def test_block_above_ancestor_ignored(self, paper_doc):
        vector = [True] * 12
        vector[0] = False  # the root itself
        index = self.make_index(paper_doc, vector)
        # path from e (4) down to i (8) doesn't include the root
        assert index.path_accessible(4, 8)

    def test_deeper_block_overrides(self, paper_doc):
        vector = [True] * 12
        vector[4] = False
        vector[7] = False
        index = self.make_index(paper_doc, vector)
        assert index.deepest_blocked[8] == 7


# -- the index as a per-(epoch, class) cached artifact -------------------------

JOIN_QUERY = "//listitem//keyword"
VIEW_QUERIES = (JOIN_QUERY, "//item[name]/quantity", "//item")


@pytest.fixture(scope="module")
def doc():
    return generate_document(XMarkConfig(n_items=24, seed=17))


@pytest.fixture(scope="module")
def masks(doc):
    """Three synthetic subjects plus subject 3, a copy of subject 1."""
    matrix = generate_synthetic_acl(
        doc,
        SyntheticACLConfig(accessibility_ratio=0.6, propagation_ratio=0.3, seed=5),
        n_subjects=3,
    )
    return [m | (m >> 1 & 1) << 3 for m in matrix.masks()]


def build_engine(doc, masks, use_store):
    return QueryEngine.build(
        doc, AccessMatrix.from_masks(masks, 4), use_store=use_store, page_size=256,
    )


@pytest.fixture
def builds(monkeypatch):
    """Every PathAccessIndex constructed while the test runs."""
    built = []

    class Counted(PathAccessIndex):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(context, "PathAccessIndex", Counted)
    return built


@pytest.mark.parametrize("use_store", (False, True), ids=("memory", "store"))
def test_one_index_per_epoch_and_class(doc, masks, builds, use_store):
    engine = build_engine(doc, masks, use_store)
    for query in VIEW_QUERIES:
        engine.evaluate(query, subject=1, semantics=VIEW)
    assert len(builds) == 1
    # subject 3 has subject 1's rights: same class, same index
    twin = engine.evaluate(JOIN_QUERY, subject=3, semantics=VIEW)
    assert twin.positions == engine.evaluate(JOIN_QUERY, subject=1, semantics=VIEW).positions
    assert len(builds) == 1
    engine.evaluate(JOIN_QUERY, subject=0, semantics=VIEW)  # another class
    assert len(builds) == 2
    # cho never needs one
    engine.evaluate(JOIN_QUERY, subject=2, semantics=CHO)
    assert len(builds) == 2


@pytest.mark.parametrize("use_store", (False, True), ids=("memory", "store"))
def test_first_view_query_after_a_revoke_leaks_nothing(
    doc, masks, builds, use_store
):
    engine = build_engine(doc, masks, use_store)
    before = engine.evaluate(JOIN_QUERY, subject=1, semantics=VIEW)
    assert len(builds) == 1
    # revoke an ancestor of an answer: only the path test can prune it
    start = doc.parent[before.positions[0]]
    end = doc.subtree_end(start)
    if use_store:
        engine.store.update_subject_range(start, end, 1, False)
    else:
        engine.labeling.set_subject_accessibility(start, end, 1, False)
    after_masks = [
        m & ~0b10 if start <= pos < end else m for pos, m in enumerate(masks)
    ]
    for query in VIEW_QUERIES:
        got = engine.evaluate(query, subject=1, semantics=VIEW)
        assert not [pos for pos in got.positions if start <= pos < end]
        assert got.positions == sorted(evaluate_reference(
            doc, parse_query(query), after_masks, 1, VIEW
        ))
    assert len(builds) == 2  # the commit forced exactly one rebuild


@pytest.mark.parametrize("use_store", (False, True), ids=("memory", "store"))
def test_brownout_tier_builds_a_private_index(doc, masks, builds, use_store):
    engine = build_engine(doc, masks, use_store)
    shared = engine.evaluate(JOIN_QUERY, subject=1, semantics=VIEW)
    cached = engine.run_cache.stats()["size"]
    for _ in range(2):
        private = engine.evaluate(
            JOIN_QUERY, subject=1, semantics=VIEW, use_run_cache=False
        )
        assert private.positions == shared.positions
    assert len(builds) == 3  # one shared, one per shed request
    assert engine.run_cache.stats()["size"] == cached

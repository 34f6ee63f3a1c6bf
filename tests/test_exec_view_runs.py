"""The view run list as a per-(epoch, access class) cached artifact: it
is built once per (epoch, class) from the class's cached Cho list, and
never outlives its epoch. What :func:`~repro.labeling.runs.view_runs`
computes is pinned in ``tests/test_access_runs.py``."""

import pytest

from repro.acl.model import AccessMatrix
from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.labeling import runs
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document

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
    """Every view run list built while the test runs."""
    built = []
    view_runs = runs.view_runs

    def counted(cho, subtree_end):
        built.append(view_runs(cho, subtree_end))
        return built[-1]

    monkeypatch.setattr(runs, "view_runs", counted)
    return built


@pytest.mark.parametrize("use_store", (False, True), ids=("memory", "store"))
def test_one_view_list_per_epoch_and_class(doc, masks, builds, use_store):
    engine = build_engine(doc, masks, use_store)
    for query in VIEW_QUERIES:
        engine.evaluate(query, subject=1, semantics=VIEW)
    assert len(builds) == 1
    # subject 3 has subject 1's rights: same class, same list
    twin = engine.evaluate(JOIN_QUERY, subject=3, semantics=VIEW)
    assert twin.positions == engine.evaluate(JOIN_QUERY, subject=1, semantics=VIEW).positions
    assert len(builds) == 1
    engine.evaluate(JOIN_QUERY, subject=0, semantics=VIEW)  # another class
    assert len(builds) == 2
    # cho never needs one
    engine.evaluate(JOIN_QUERY, subject=2, semantics=CHO)
    assert len(builds) == 2


@pytest.mark.parametrize("use_store", (False, True), ids=("memory", "store"))
def test_view_list_reads_the_cached_cho_list(doc, masks, builds, use_store):
    engine = build_engine(doc, masks, use_store)
    engine.evaluate(JOIN_QUERY, subject=1, semantics=CHO)
    before = engine.run_cache.stats()
    engine.evaluate(JOIN_QUERY, subject=1, semantics=VIEW)
    after = engine.run_cache.stats()
    assert len(builds) == 1
    # the view key missed once; its build found the Cho list already cached
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 1
    assert after["size"] == before["size"] + 1


@pytest.mark.parametrize("use_store", (False, True), ids=("memory", "store"))
def test_first_view_query_after_a_revoke_leaks_nothing(
    doc, masks, builds, use_store
):
    engine = build_engine(doc, masks, use_store)
    before = engine.evaluate(JOIN_QUERY, subject=1, semantics=VIEW)
    assert len(builds) == 1
    # revoke the subtree of an answer's parent: the path-based
    # AccessFilter, reading the rebuilt view list, must prune all of it
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
def test_brownout_tier_builds_a_private_list(doc, masks, builds, use_store):
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

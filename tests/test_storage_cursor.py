"""The page-pinned cursor: next-of-kin navigation served from one page.

A :class:`~repro.storage.cursor.PageCursor` must be observationally the
document's own navigation — across page boundaries, codecs, epochs and
corrupt pages — while reaching storage only when it leaves its page.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.errors import PageCorruptionError, StorageError
from repro.nok.engine import QueryEngine
from repro.storage.nokstore import NoKStore
from repro.storage.persist import open_store, save_store
from repro.xmark.generator import XMarkConfig, generate_document
from repro.xmltree.document import NO_NODE
from tests.conftest import random_document

CODECS = ("none", "zlib", "structure-delta")


@st.composite
def cursor_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=99_999))
    n = draw(st.integers(min_value=1, max_value=60))
    rng = random.Random(seed)
    doc = random_document(rng, n)
    masks = [rng.randrange(8) for _ in range(n)]
    page_size = draw(st.sampled_from([64, 96, 128]))  # <= 9 entries a page
    codec = draw(st.sampled_from(CODECS))
    # the last node, a run crossing every page boundary, then anywhere
    walk = [n - 1, *range(n)] + draw(
        st.lists(st.integers(min_value=-2, max_value=n + 1), max_size=40)
    )
    return doc, masks, page_size, codec, walk


@given(cursor_cases())
@settings(max_examples=80, deadline=None)
def test_one_cursor_equals_document_navigation(case):
    doc, masks, page_size, codec, walk = case
    store = NoKStore(
        doc, DOL.from_masks(masks, 3), page_size=page_size, codec=codec
    )
    n = len(doc)
    for owner in (store, store.snapshot()):
        cursor = owner.cursor()
        for pos in walk:
            if not 0 <= pos < n:
                for read in (cursor.tag_id, cursor.first_child,
                             cursor.following_sibling, cursor.subtree_end):
                    with pytest.raises(StorageError):
                        read(pos)
                continue
            assert cursor.tag_id(pos) == doc.tags[pos]
            assert cursor.tag_name(pos) == doc.tag_name(pos)
            assert cursor.first_child(pos) == doc.first_child(pos)
            assert cursor.following_sibling(pos) == doc.following_sibling(pos)
            assert cursor.subtree_end(pos) == doc.subtree_end(pos)
        assert 0 < cursor.pins


def test_sibling_on_a_later_page_and_pins_count_page_changes(paper_doc):
    """Four entries a page: a b c d | e f g h | i j k l. A walk over one
    page pins once, however many fields it reads; d's sibling e is on
    the next page."""
    store = NoKStore(paper_doc, DOL.from_masks([1] * 12, 1), page_size=64)
    assert store.entries_per_page == 4
    cursor = store.cursor()
    for pos in range(4):
        cursor.tag_id(pos), cursor.first_child(pos), cursor.subtree_end(pos)
    assert cursor.pins == 1
    assert cursor.following_sibling(3) == 4  # d -> e, re-pins
    assert cursor.pins == 2
    assert cursor.following_sibling(7) == NO_NODE  # h's subtree ends the document
    assert cursor.pins == 2
    assert cursor.following_sibling(11) == NO_NODE  # the last node
    assert cursor.pins == 3
    assert cursor.text(3) == paper_doc.text(3)
    with pytest.raises(StorageError):
        cursor.text(12)


def test_point_navigation_of_store_and_snapshot_is_the_cursor(paper_doc):
    store = NoKStore(paper_doc, DOL.from_masks([1] * 12, 1), page_size=64)
    for owner in (store, store.snapshot()):
        for pos in range(12):
            assert owner.first_child(pos) == paper_doc.first_child(pos)
            assert owner.following_sibling(pos) == paper_doc.following_sibling(pos)
            assert owner.tag_name(pos) == paper_doc.tag_name(pos)
        with pytest.raises(StorageError):
            owner.following_sibling(12)


@pytest.fixture
def xmark_store():
    doc = generate_document(XMarkConfig(n_items=30, seed=7))
    matrix = generate_synthetic_acl(
        doc, SyntheticACLConfig(accessibility_ratio=0.7, seed=3), n_subjects=2
    )
    return doc, matrix


def test_cursor_keeps_its_epoch_across_a_commit(xmark_store):
    doc, matrix = xmark_store
    store = NoKStore(doc, DOL.from_matrix(matrix), page_size=256)
    engine = QueryEngine(doc, labeling=store.labeling, store=store)
    old_snap = store.snapshot()
    before = engine.evaluate("//item[name]", subject=0, snapshot=old_snap)
    assert before.positions
    old_cursor = old_snap.cursor()
    target = before.positions[0]
    old_cursor.tag_id(target)  # pinned before the commit
    old_codes = [old_snap.access_code_at(pos) for pos in range(len(doc))]

    store.update_subject_range(0, len(doc), 0, False)

    new_snap = store.snapshot()
    assert new_snap.epoch == old_snap.epoch + 1
    # structure is unchanged by an accessibility update; what each side
    # resolves its pins to is its own epoch's page image
    new_cursor = new_snap.cursor()
    for pos in range(len(doc)):
        assert old_cursor.tag_id(pos) == new_cursor.tag_id(pos) == doc.tags[pos]
    assert [old_snap.access_code_at(p) for p in range(len(doc))] == old_codes
    assert not any(new_snap.accessible(0, p) for p in range(len(doc)))
    # a query pinned to the old snapshot still answers the old epoch
    again = engine.evaluate("//item[name]", subject=0, snapshot=old_snap)
    assert again.positions == before.positions
    assert engine.evaluate("//item[name]", subject=0).positions == []


PAGE_SIZE = 512


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def test_corrupt_page_at_a_pin_costs_the_candidate_once(xmark_store, tmp_path):
    """The rot sits on the page *after* a candidate's own page, so the
    candidate's root test (answered by the tag index, no page read)
    passes and the matcher meets the bad page at a pin, mid-walk over
    the candidate's children."""
    doc, matrix = xmark_store
    path = str(tmp_path / "store.db")
    built = NoKStore(doc, DOL.from_matrix(matrix), path=path, page_size=PAGE_SIZE)
    save_store(built)
    built.close()
    store = open_store(path)
    engine = QueryEngine(store.doc, labeling=store.labeling, store=store)
    clean = engine.evaluate("//item[name]").positions
    victim = next(
        pos for pos in clean
        if store.page_of(pos) != store.page_of(doc.subtree_end(pos) - 1)
    )
    bad_page = store.page_of(victim) + 1
    _flip_byte(path, bad_page * PAGE_SIZE + 40)
    store.drop_caches()

    cursor = store.snapshot().cursor()
    cursor.tag_id(victim)
    with pytest.raises(PageCorruptionError):
        cursor.tag_id(bad_page * store.entries_per_page)
    pins = cursor.pins
    assert cursor.tag_id(victim) == doc.tags[victim]  # still on its page
    assert cursor.pins == pins

    with pytest.raises(PageCorruptionError):
        engine.evaluate("//item[name]")
    store.clear_quarantine()
    result = engine.evaluate("//item[name]", strict=False)
    assert result.stats.corrupted_pages == [bad_page]
    assert result.stats.candidates_skipped_corrupt >= 1
    assert victim not in result.positions
    assert set(result.positions) < set(clean)
    # candidates whose walk never comes near the bad page are all answered
    first_bad = bad_page * store.entries_per_page
    last_bad = first_bad + store.entries_per_page
    untouched = [
        pos for pos in clean
        if doc.subtree_end(pos) < first_bad or pos >= last_bad
    ]
    assert untouched and set(untouched) <= set(result.positions)
    store.close()

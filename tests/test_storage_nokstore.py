"""Unit tests for the integrated NoK + DOL block store."""

import pytest

from repro.acl.model import AccessMatrix
from repro.dol.labeling import DOL
from repro.errors import StorageError
from repro.storage.headers import HEADER_SIZE
from repro.storage.nokstore import NoKStore
from repro.xmltree.document import NO_NODE


def make_store(doc, masks, n_subjects=2, page_size=96, buffer_capacity=4):
    dol = DOL.from_masks(masks, n_subjects)
    return NoKStore(doc, dol, page_size=page_size, buffer_capacity=buffer_capacity)


@pytest.fixture
def store(paper_doc):
    # 12 nodes, tiny pages so the document spans several blocks.
    masks = [0b11, 0b11, 0b01, 0b01, 0b01, 0b11, 0b11, 0b00, 0b00, 0b10, 0b10, 0b11]
    return make_store(paper_doc, masks)


class TestLayout:
    def test_multiple_pages(self, store):
        assert store.n_pages > 1
        assert store.n_pages == -(-store.n_nodes // store.entries_per_page)

    def test_page_of(self, store):
        assert store.page_of(0) == 0
        assert store.page_of(store.entries_per_page) == 1

    def test_entries_round_trip_structure(self, store, paper_doc):
        for pos in range(store.n_nodes):
            entry = store.entry(pos)
            assert entry.tag_id == paper_doc.tags[pos]
            assert entry.depth == paper_doc.depth[pos]
            assert entry.subtree == paper_doc.subtree[pos]

    def test_first_entry_of_each_page_is_transition(self, store):
        for page_id in range(store.n_pages):
            first = page_id * store.entries_per_page
            assert store.entry(first).is_transition

    def test_headers_match_pages(self, store):
        for page_id in range(store.n_pages):
            first = page_id * store.entries_per_page
            header = store.headers.get(page_id)
            assert header.first_code == store.labeling.code_at(first)

    def test_dol_document_mismatch_rejected(self, paper_doc):
        dol = DOL.from_masks([1, 0], 1)
        with pytest.raises(StorageError):
            NoKStore(paper_doc, dol)


class TestNavigation:
    def test_matches_document(self, store, paper_doc):
        for pos in range(store.n_nodes):
            assert store.first_child(pos) == paper_doc.first_child(pos)
            assert store.following_sibling(pos) == paper_doc.following_sibling(pos)
            assert store.tag_name(pos) == paper_doc.tag_name(pos)

    def test_last_node(self, store):
        assert store.first_child(11) == NO_NODE
        assert store.following_sibling(11) == NO_NODE

    def test_texts_served(self, small_doc):
        store = make_store(small_doc, [1] * len(small_doc), n_subjects=1)
        assert store.text(2) == "anvil"


class TestAccessChecks:
    def test_accessibility_matches_dol(self, store):
        for pos in range(store.n_nodes):
            for subject in (0, 1):
                assert store.accessible(subject, pos) == store.labeling.accessible(
                    subject, pos
                )

    def test_check_costs_no_extra_io(self, store):
        store.drop_caches()
        store.reset_io_stats()
        store.entry(5)  # load the page by navigation
        reads_before = store.pager.stats.reads
        store.accessible(0, 5)
        store.accessible(1, 5)
        assert store.pager.stats.reads == reads_before

    def test_page_skip_detection(self, paper_doc):
        # All nodes denied for subject 1 -> every page skippable for it.
        store = make_store(paper_doc, [0b01] * 12)
        for page_id in range(store.n_pages):
            assert store.page_fully_inaccessible(page_id, 1)
            assert not store.page_fully_inaccessible(page_id, 0)

    def test_subtree_skip(self, paper_doc):
        store = make_store(paper_doc, [0b01] * 12)
        assert store.subtree_fully_inaccessible(0, 1)
        assert not store.subtree_fully_inaccessible(0, 0)


class TestUpdates:
    def test_update_reflects_in_checks(self, store):
        cost = store.update_subject_range(2, 7, 1, True)
        for pos in range(2, 7):
            assert store.accessible(1, pos)
        assert cost.transition_delta <= 2

    def test_update_rewrites_only_touched_pages(self, store):
        epp = store.entries_per_page
        cost = store.update_subject_range(0, epp, 0, False)
        # range plus its boundary position -> at most 2 pages
        assert cost.pages_rewritten <= 2

    def test_update_range_mask(self, store):
        store.update_range_mask(3, 6, 0b10)
        assert not store.accessible(0, 4)
        assert store.accessible(1, 4)

    def test_update_persists_through_cache_drop(self, store):
        store.update_range_mask(0, 12, 0b00)
        store.drop_caches()
        assert not store.accessible(0, 6)

    def test_headers_updated(self, paper_doc):
        store = make_store(paper_doc, [0b11] * 12)
        store.update_range_mask(0, 12, 0b00)
        for page_id in range(store.n_pages):
            assert store.page_fully_inaccessible(page_id, 0)


class TestIOAccounting:
    def test_reads_counted(self, store):
        store.drop_caches()
        store.reset_io_stats()
        store.entry(0)
        assert store.buffer.stats.logical_reads == 1
        assert store.pager.stats.reads == 1
        store.entry(1)  # same page
        assert store.pager.stats.reads == 1
        assert store.buffer.stats.logical_reads == 2

    def test_scan_with_tiny_buffer_evicts(self, paper_doc):
        store = make_store(paper_doc, [1] * 12, n_subjects=1, buffer_capacity=1)
        store.drop_caches()
        store.reset_io_stats()
        for pos in range(store.n_nodes):
            store.entry(pos)
        assert store.pager.stats.reads == store.n_pages

    def test_context_manager_closes(self, paper_doc, tmp_path):
        dol = DOL.from_masks([1] * 12, 1)
        path = str(tmp_path / "store.db")
        with NoKStore(paper_doc, dol, path=path, page_size=256) as store:
            store.entry(3)

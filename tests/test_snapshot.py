"""Snapshot isolation of the block store (``NoKStore.snapshot``).

The contract under test (DESIGN.md §10): a snapshot is an immutable view
of one epoch — committed updates bump the store's epoch and publish a
successor, while any snapshot taken earlier keeps answering exactly as
the store did at its epoch, for navigation, accessibility probes, and
the page-skip test alike.
"""

import pytest

from repro.acl.model import AccessMatrix
from repro.dol.labeling import DOL
from repro.errors import StorageError
from repro.nok.engine import QueryEngine
from repro.storage.nokstore import NoKStore
from repro.storage.snapshot import StoreSnapshot

MASKS = [0b11, 0b11, 0b01, 0b01, 0b01, 0b11, 0b11, 0b00, 0b00, 0b10, 0b10, 0b11]


@pytest.fixture
def store(paper_doc):
    dol = DOL.from_masks(MASKS, 2)
    with NoKStore(paper_doc, dol, page_size=96, buffer_capacity=4) as store:
        yield store


def masks_via(view) -> list:
    """Per-position accessibility bitmask as the view answers it."""
    return [
        (1 if view.accessible(0, pos) else 0)
        | (2 if view.accessible(1, pos) else 0)
        for pos in range(view.n_nodes)
    ]


class TestLifecycle:
    def test_snapshot_is_lazy_and_shared(self, store):
        assert store._snapshot is None  # nothing until first demand
        snap = store.snapshot()
        assert snap is store.snapshot()
        assert snap.epoch == 0
        assert snap.is_current

    def test_update_without_snapshot_still_bumps_epoch(self, store):
        store.update_subject_range(2, 5, 0, False)
        assert store.epoch == 1
        assert store._snapshot is None  # still lazy: no reader ever asked

    def test_commit_publishes_successor(self, store):
        old = store.snapshot()
        store.update_subject_range(2, 5, 0, False)
        new = store.snapshot()
        assert new is not old
        assert (old.epoch, new.epoch) == (0, 1)
        assert not old.is_current
        assert new.is_current
        assert old._next is new

    def test_repr_names_epoch(self, store):
        assert "epoch=0" in repr(store.snapshot())


class TestIsolation:
    def test_old_snapshot_unaffected_by_accessibility_update(self, store):
        snap = store.snapshot()
        before = masks_via(snap)
        assert before == MASKS
        store.update_subject_range(0, store.n_nodes, 0, False)
        assert masks_via(snap) == MASKS  # frozen at epoch 0
        assert masks_via(store.snapshot()) == [m & 0b10 for m in MASKS]
        assert masks_via(store) == [m & 0b10 for m in MASKS]

    def test_overlay_holds_preimages_of_rewritten_pages(self, store):
        snap = store.snapshot()
        cost = store.update_subject_range(0, store.n_nodes, 0, False)
        assert cost.pages_rewritten == store.n_pages
        assert snap.frozen_page_count() == store.n_pages
        # pre-image codes still decode through the snapshot's own codebook
        for pos in range(snap.n_nodes):
            assert snap.access_code_at(pos) == snap.labeling.code_at(pos)

    def test_chain_walk_across_multiple_commits(self, store):
        epoch0 = store.snapshot()
        store.update_subject_range(2, 5, 0, False)
        epoch1 = store.snapshot()
        store.update_subject_range(5, 9, 1, True)
        store.update_range_mask(0, 3, 0b01)
        assert store.epoch == 3
        assert masks_via(epoch0) == MASKS
        expected1 = list(MASKS)
        for pos in range(2, 5):
            expected1[pos] &= 0b10
        assert masks_via(epoch1) == expected1

    def test_snapshot_headers_keep_old_skip_test(self, store):
        snap = store.snapshot()
        skippable_before = [
            snap.page_fully_inaccessible(page_id, 0)
            for page_id in range(snap.n_pages)
        ]
        store.update_subject_range(0, store.n_nodes, 0, True)
        assert [
            snap.page_fully_inaccessible(page_id, 0)
            for page_id in range(snap.n_pages)
        ] == skippable_before

    def test_navigation_matches_document(self, store, paper_doc):
        snap = store.snapshot()
        store.update_subject_range(0, 4, 1, False)
        for pos in range(snap.n_nodes):
            assert snap.tag_id(pos) == paper_doc.tags[pos]
            assert snap.first_child(pos) == store.first_child(pos)
            assert snap.following_sibling(pos) == store.following_sibling(pos)
            assert snap.subtree_end(pos) == paper_doc.subtree_end(pos)

    def test_out_of_range_rejected(self, store):
        snap = store.snapshot()
        with pytest.raises(StorageError):
            snap.entry(store.n_nodes)
        with pytest.raises(StorageError):
            snap.accessible(0, -1)


class TestEngineBinding:
    def test_pinned_snapshot_evaluates_old_epoch(self, small_doc):
        masks = [0b1] * len(small_doc)
        matrix = AccessMatrix.from_masks(masks, 1)
        engine = QueryEngine.build(small_doc, matrix, use_store=True, page_size=128)
        store = engine.store
        try:
            pinned = store.snapshot()
            before = engine.evaluate("//item/name", subject=0)
            store.update_subject_range(0, len(small_doc), 0, False)
            after = engine.evaluate("//item/name", subject=0)
            again = engine.evaluate("//item/name", subject=0, snapshot=pinned)
            assert after.positions == []
            assert again.positions == before.positions
        finally:
            store.close()

    def test_default_binding_is_current_snapshot(self, small_doc):
        masks = [0b1] * len(small_doc)
        matrix = AccessMatrix.from_masks(masks, 1)
        engine = QueryEngine.build(small_doc, matrix, use_store=True, page_size=128)
        try:
            plan = engine.compile("//item")
            assert isinstance(plan.ctx.store, StoreSnapshot)
            assert plan.ctx.store.epoch == engine.store.epoch
        finally:
            engine.store.close()


class TestQuarantineSharing:
    def test_quarantine_is_physical_and_shared(self, store):
        snap = store.snapshot()
        store.quarantine(0)
        from repro.errors import PageCorruptionError

        with pytest.raises(PageCorruptionError):
            snap.entry(0)
        assert 0 in snap.quarantined

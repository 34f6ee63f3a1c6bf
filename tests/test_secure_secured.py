"""Unit tests for SecuredDocument — coordinated document + DOL updates."""

import pytest

from repro.acl.model import AccessMatrix
from repro.dol.labeling import DOL
from repro.errors import AccessControlError
from repro.secure.secured import SecuredDocument
from repro.storage.nokstore import NoKStore
from repro.xmltree.builder import tree
from repro.xmltree.document import Document


def make(masks=None, with_store=False, page_size=96):
    doc = Document.from_tree(
        tree(("a", ("b", ("c",)), ("d",), ("e", ("f",), ("g",))))
    )
    masks = masks if masks is not None else [0b11, 0b01, 0b01, 0b11, 0b10, 0b10, 0b10]
    dol = DOL.from_masks(masks, 2)
    store = NoKStore(doc, dol, page_size=page_size) if with_store else None
    return SecuredDocument(doc, dol, store)


class TestAccessibilityUpdates:
    def test_subtree_grant(self):
        sd = make()
        report = sd.set_subtree_accessibility(4, 0, True)  # e's subtree for s0
        assert sd.masks()[4:7] == [0b11, 0b11, 0b11]
        assert report.transition_delta <= 2
        sd.validate()

    def test_node_mask(self):
        sd = make()
        sd.set_node_mask(3, 0b00)
        assert sd.masks()[3] == 0
        assert not sd.accessible(0, 3)


class TestStructuralUpdates:
    def test_insert_labeled_subtree(self):
        sd = make()
        report = sd.insert_subtree(0, 1, tree(("x", ("y",))), masks=[0b10, 0b10])
        assert report.position == 3
        assert report.size == 2
        names = [sd.doc.tag_name(i) for i in range(len(sd.doc))]
        assert names == ["a", "b", "c", "x", "y", "d", "e", "f", "g"]
        assert sd.masks() == [0b11, 0b01, 0b01, 0b10, 0b10, 0b11, 0b10, 0b10, 0b10]
        assert report.transition_delta <= 2
        sd.validate()

    def test_insert_wrong_mask_count_rejected(self):
        sd = make()
        with pytest.raises(AccessControlError):
            sd.insert_subtree(0, 0, tree(("x", ("y",))), masks=[1])

    def test_delete_subtree(self):
        sd = make()
        sd.delete_subtree(1)  # remove b(c)
        assert [sd.doc.tag_name(i) for i in range(len(sd.doc))] == [
            "a", "d", "e", "f", "g",
        ]
        assert sd.masks() == [0b11, 0b11, 0b10, 0b10, 0b10]
        sd.validate()

    def test_move_subtree(self):
        sd = make()
        report = sd.move_subtree(1, 4)  # b(c) appended under e
        assert [sd.doc.tag_name(i) for i in range(len(sd.doc))] == [
            "a", "d", "e", "f", "g", "b", "c",
        ]
        # the moved nodes carry their ACLs along
        assert sd.masks() == [0b11, 0b11, 0b10, 0b10, 0b10, 0b01, 0b01]
        assert report.position == 5
        sd.validate()

    def test_updates_compose(self):
        sd = make()
        sd.insert_subtree(3, 0, tree(("k",)), masks=[0b11])
        sd.set_subtree_accessibility(0, 1, False)
        sd.delete_subtree(1)
        sd.validate()
        assert sd.labeling.n_nodes == len(sd.doc)


class TestStoreBackedEdits:
    def test_insert_updates_store(self):
        sd = make(with_store=True)
        report = sd.insert_subtree(0, 3, tree(("x",)), masks=[0b01])
        assert report.pages_rewritten >= 1
        store = sd.store
        assert store.n_nodes == 8
        assert store.tag_name(7) == "x"
        assert store.accessible(0, 7)
        assert not store.accessible(1, 7)

    def test_delete_shrinks_store(self):
        sd = make(with_store=True)
        pages_before = sd.store.n_pages
        sd.delete_subtree(4)  # drop e's 3-node subtree
        assert sd.store.n_nodes == 4
        assert sd.store.n_pages <= pages_before
        # navigation still consistent with the edited document
        for pos in range(sd.store.n_nodes):
            assert sd.store.tag_name(pos) == sd.doc.tag_name(pos)
            assert sd.store.first_child(pos) == sd.doc.first_child(pos)

    def test_store_access_matches_dol_after_move(self):
        sd = make(with_store=True)
        sd.move_subtree(1, 4)
        for pos in range(sd.store.n_nodes):
            for subject in (0, 1):
                assert sd.store.accessible(subject, pos) == sd.labeling.accessible(
                    subject, pos
                )

    def test_store_queryable_after_edits(self):
        from repro.nok.engine import QueryEngine

        sd = make(with_store=True)
        sd.insert_subtree(3, 0, tree(("q", ("r",))), masks=[0b11, 0b11])
        engine = QueryEngine(sd.doc, labeling=sd.labeling, store=sd.store)
        result = engine.evaluate("//q/r", subject=0)
        assert result.n_answers == 1

    def test_paged_values_rebuilt_after_structural_edit(self):
        from repro.secure.secured import SecuredDocument
        from repro.xmltree.builder import tree as build

        doc = Document.from_tree(
            build(("site", ("item", ("name", "anvil")), ("item", ("name", "rope"))))
        )
        dol = DOL.from_masks([1] * len(doc), 1)
        store = NoKStore(doc, dol, page_size=96, paged_values=True)
        sd = SecuredDocument(doc, dol, store)
        sd.delete_subtree(1)  # remove the first item
        assert store.text(2) == "rope"  # served from the rebuilt value heap
        assert store.n_nodes == 3

    def test_mismatched_store_rejected(self):
        doc = Document.from_tree(tree(("a", ("b",))))
        dol = DOL.from_masks([1, 1], 1)
        other_dol = DOL.from_masks([1, 1], 1)
        store = NoKStore(doc, other_dol, page_size=96)
        with pytest.raises(AccessControlError):
            SecuredDocument(doc, dol, store)

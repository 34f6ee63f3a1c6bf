"""Unit tests for the flattened Document representation."""

import pytest

from repro.errors import TreeError
from repro.xmltree.builder import tree
from repro.xmltree.document import NO_NODE, Document, TagDictionary


class TestTagDictionary:
    def test_intern_is_idempotent(self):
        d = TagDictionary()
        assert d.intern("a") == d.intern("a") == 0
        assert d.intern("b") == 1
        assert len(d) == 2

    def test_name_roundtrip(self):
        d = TagDictionary()
        for name in ("item", "name", "price"):
            assert d.name_of(d.intern(name)) == name

    def test_get_unknown(self):
        d = TagDictionary()
        assert d.get("missing") is None
        assert "missing" not in d
        with pytest.raises(KeyError):
            d.id_of("missing")


class TestFlattening:
    def test_document_order(self, paper_doc):
        names = [paper_doc.tag_name(i) for i in range(len(paper_doc))]
        assert names == list("abcdefghijkl")

    def test_parent_links(self, paper_doc):
        assert paper_doc.parent[0] == NO_NODE
        # b, c, d, e are children of a (position 0)
        assert paper_doc.parent[1] == paper_doc.parent[2] == 0
        # f (5), g (6), h (7) are children of e (4)
        assert paper_doc.parent[5] == paper_doc.parent[7] == 4

    def test_subtree_sizes(self, paper_doc):
        assert paper_doc.subtree[0] == 12
        assert paper_doc.subtree[4] == 8  # e
        assert paper_doc.subtree[7] == 5  # h
        assert paper_doc.subtree[1] == 1  # b

    def test_depths(self, paper_doc):
        assert paper_doc.depth[0] == 0
        assert paper_doc.depth[4] == 1
        assert paper_doc.depth[8] == 3  # i

    def test_roundtrip_to_tree(self, paper_tree, paper_doc):
        assert paper_doc.to_tree().structurally_equal(paper_tree)

    def test_texts_preserved(self, small_doc):
        assert small_doc.text(2) == "anvil"
        assert small_doc.text(5) == "hammer"

    def test_empty_arrays_rejected(self):
        with pytest.raises(TreeError):
            Document([], [], [], [], [], TagDictionary())

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(TreeError):
            Document([0], [], [1], [0], [""], TagDictionary())


class TestNavigation:
    def test_first_child(self, paper_doc):
        assert paper_doc.first_child(0) == 1
        assert paper_doc.first_child(1) == NO_NODE  # b is a leaf
        assert paper_doc.first_child(4) == 5  # e -> f

    def test_following_sibling(self, paper_doc):
        assert paper_doc.following_sibling(1) == 2  # b -> c
        assert paper_doc.following_sibling(3) == 4  # d -> e
        assert paper_doc.following_sibling(4) == NO_NODE  # e is last child
        assert paper_doc.following_sibling(7) == NO_NODE  # h is last

    def test_children(self, paper_doc):
        assert list(paper_doc.children(0)) == [1, 2, 3, 4]
        assert list(paper_doc.children(7)) == [8, 9, 10, 11]
        assert list(paper_doc.children(1)) == []

    def test_is_ancestor(self, paper_doc):
        assert paper_doc.is_ancestor(0, 11)
        assert paper_doc.is_ancestor(4, 8)
        assert not paper_doc.is_ancestor(8, 4)
        assert not paper_doc.is_ancestor(4, 4)
        assert not paper_doc.is_ancestor(1, 2)

    def test_ancestors(self, paper_doc):
        assert list(paper_doc.ancestors(8)) == [7, 4, 0]
        assert list(paper_doc.ancestors(0)) == []

    def test_descendants_range(self, paper_doc):
        assert list(paper_doc.descendants(4)) == [5, 6, 7, 8, 9, 10, 11]
        assert list(paper_doc.descendants(1)) == []

    def test_positions_with_tag(self, small_doc):
        assert list(small_doc.positions_with_tag("item")) == [1, 4]
        assert list(small_doc.positions_with_tag("absent")) == []


class TestValidate:
    def test_valid_document_passes(self, paper_doc):
        paper_doc.validate()

    def test_corrupt_parent_detected(self, paper_doc):
        paper_doc.parent[5] = 9
        with pytest.raises(TreeError):
            paper_doc.validate()

    def test_corrupt_subtree_detected(self, paper_doc):
        paper_doc.subtree[0] = 3
        with pytest.raises(TreeError):
            paper_doc.validate()

    def test_corrupt_depth_detected(self, paper_doc):
        paper_doc.depth[2] = 5
        with pytest.raises(TreeError):
            paper_doc.validate()

"""Unit tests for the view-semantics path accessibility index."""

from repro.dol.labeling import DOL
from repro.exec.context import PathAccessIndex
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

"""Flattened document-order representation of an XML tree.

A :class:`Document` stores the tree as parallel arrays indexed by *document
position* — the preorder (document-order) rank of each node, starting at 0
for the root. This mirrors the succinct storage scheme used by the NoK query
processor [Zhang et al., ICDE'04] and makes the DOL transition-node
computation a linear scan.

Arrays (all length ``n``):

- ``tags[i]``      — interned tag id of node ``i`` (see :class:`TagDictionary`)
- ``parent[i]``    — position of the parent, ``-1`` for the root
- ``subtree[i]``   — size of the subtree rooted at ``i`` (>= 1)
- ``depth[i]``     — root depth is 0
- ``texts[i]``     — text content (optional; empty string when absent)
- ``attrs[i]``     — attribute dict (optional; empty when absent)

Derived navigation (the *next-of-kin* primitives used by NoK matching):

- first child of ``i`` is ``i + 1`` iff ``subtree[i] > 1``
- following sibling of ``i`` is ``i + subtree[i]`` iff that position exists
  and has the same parent.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TreeError
from repro.xmltree.node import Node

NO_NODE = -1


class TagDictionary:
    """Bidirectional mapping between tag names and small integer ids."""

    def __init__(self) -> None:
        self._name_to_id: Dict[str, int] = {}
        self._id_to_name: List[str] = []

    def intern(self, name: str) -> int:
        """Return the id for ``name``, assigning a new one if needed."""
        tag_id = self._name_to_id.get(name)
        if tag_id is None:
            tag_id = len(self._id_to_name)
            self._name_to_id[name] = tag_id
            self._id_to_name.append(name)
        return tag_id

    def id_of(self, name: str) -> int:
        """Return the id for ``name``; raises :class:`KeyError` if unknown."""
        return self._name_to_id[name]

    def get(self, name: str) -> Optional[int]:
        """Return the id for ``name`` or ``None`` if it was never interned."""
        return self._name_to_id.get(name)

    def name_of(self, tag_id: int) -> str:
        """Return the name for ``tag_id``."""
        return self._id_to_name[tag_id]

    def __len__(self) -> int:
        return len(self._id_to_name)

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id


class Document:
    """Immutable flattened XML document in document order."""

    def __init__(
        self,
        tags: List[int],
        parent: List[int],
        subtree: List[int],
        depth: List[int],
        texts: List[str],
        tag_dict: TagDictionary,
        attrs: Optional[List[Dict[str, str]]] = None,
    ):
        n = len(tags)
        if not (len(parent) == len(subtree) == len(depth) == len(texts) == n):
            raise TreeError("document arrays must have equal length")
        if attrs is not None and len(attrs) != n:
            raise TreeError("document arrays must have equal length")
        if n == 0:
            raise TreeError("a document must contain at least a root node")
        self.tags = tags
        self.parent = parent
        self.subtree = subtree
        self.depth = depth
        self.texts = texts
        self.attrs = attrs if attrs is not None else [{} for _ in range(n)]
        self.tag_dict = tag_dict
        #: the tag index: tag id -> sorted positions, built on first use
        self._by_tag: Optional[Dict[int, array]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tree(
        cls, root: Node, tag_dict: Optional[TagDictionary] = None
    ) -> "Document":
        """Flatten a :class:`Node` tree into document-order arrays."""
        tag_dict = tag_dict if tag_dict is not None else TagDictionary()
        tags: List[int] = []
        parent: List[int] = []
        subtree: List[int] = []
        depth: List[int] = []
        texts: List[str] = []
        attrs: List[Dict[str, str]] = []

        # Iterative preorder carrying (node, parent position, depth); a
        # post-visit fixes subtree sizes once all descendants are numbered.
        stack: List[Tuple[Node, int, int]] = [(root, NO_NODE, 0)]
        order: List[Node] = []
        while stack:
            node, par, dep = stack.pop()
            pos = len(tags)
            order.append(node)
            tags.append(tag_dict.intern(node.tag))
            parent.append(par)
            subtree.append(1)
            depth.append(dep)
            texts.append(node.text)
            attrs.append(dict(node.attrs))
            for child in reversed(node.children):
                stack.append((child, pos, dep + 1))

        for pos in range(len(tags) - 1, 0, -1):
            subtree[parent[pos]] += subtree[pos]

        return cls(tags, parent, subtree, depth, texts, tag_dict, attrs)

    def to_tree(self) -> Node:
        """Rebuild a mutable :class:`Node` tree (inverse of from_tree)."""
        nodes = [
            Node(self.tag_dict.name_of(self.tags[i]), self.texts[i], self.attrs[i])
            for i in range(len(self))
        ]
        for i in range(1, len(self)):
            nodes[self.parent[i]].append(nodes[i])
        return nodes[0]

    # -- basic properties --------------------------------------------------

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def n_nodes(self) -> int:
        """Number of element nodes in the document."""
        return len(self.tags)

    def tag_name(self, pos: int) -> str:
        """Tag name of the node at document position ``pos``."""
        return self.tag_dict.name_of(self.tags[pos])

    def text(self, pos: int) -> str:
        """Text content of the node at position ``pos``."""
        return self.texts[pos]

    def attrs_of(self, pos: int) -> Dict[str, str]:
        """Attributes of the node at position ``pos``."""
        return self.attrs[pos]

    # -- next-of-kin navigation -------------------------------------------

    def first_child(self, pos: int) -> int:
        """Position of the first child, or ``NO_NODE`` if ``pos`` is a leaf."""
        return pos + 1 if self.subtree[pos] > 1 else NO_NODE

    def following_sibling(self, pos: int) -> int:
        """Position of the next sibling, or ``NO_NODE`` if there is none."""
        nxt = pos + self.subtree[pos]
        if nxt < len(self.tags) and self.parent[nxt] == self.parent[pos]:
            return nxt
        return NO_NODE

    def children(self, pos: int) -> Iterator[int]:
        """Yield the positions of the children of ``pos`` in order."""
        child = self.first_child(pos)
        while child != NO_NODE:
            yield child
            child = self.following_sibling(child)

    def subtree_end(self, pos: int) -> int:
        """One past the last position of the subtree rooted at ``pos``."""
        return pos + self.subtree[pos]

    def is_ancestor(self, anc: int, desc: int) -> bool:
        """True iff ``anc`` is a proper ancestor of ``desc``.

        Uses the interval property of preorder numbering: descendants of a
        node occupy the contiguous range ``(anc, anc + subtree[anc])``.
        """
        return anc < desc < self.subtree_end(anc)

    def descendants(self, pos: int) -> range:
        """Positions of all proper descendants of ``pos`` (contiguous)."""
        return range(pos + 1, self.subtree_end(pos))

    def ancestors(self, pos: int) -> Iterator[int]:
        """Yield proper ancestors of ``pos``, nearest first."""
        cur = self.parent[pos]
        while cur != NO_NODE:
            yield cur
            cur = self.parent[cur]

    def positions_with_tag(self, name: str) -> array:
        """Sorted positions whose tag is ``name`` — the tag index.

        The first call builds one ``array('q')`` per tag id in a single
        pass over ``tags`` and memoizes them on this (immutable)
        document, so every plan reads the index of the document it
        evaluates. The returned array is shared by all callers and must
        not be mutated; an absent tag yields a fresh empty array.
        """
        by_tag = self._by_tag
        if by_tag is None:
            by_tag = {}
            for pos, tag_id in enumerate(self.tags):
                positions = by_tag.get(tag_id)
                if positions is None:
                    positions = by_tag[tag_id] = array("q")
                positions.append(pos)
            self._by_tag = by_tag
        positions = by_tag.get(self.tag_dict.get(name))
        return positions if positions is not None else array("q")

    def validate(self) -> None:
        """Check internal consistency; raises :class:`TreeError` on damage."""
        n = len(self)
        if self.parent[0] != NO_NODE or self.depth[0] != 0:
            raise TreeError("root must have no parent and depth 0")
        for i in range(1, n):
            par = self.parent[i]
            if not 0 <= par < i:
                raise TreeError(f"node {i} has invalid parent {par}")
            if self.depth[i] != self.depth[par] + 1:
                raise TreeError(f"node {i} has inconsistent depth")
            if not par < i < self.subtree_end(par):
                raise TreeError(f"node {i} lies outside its parent's subtree")
        for i in range(n):
            if not 1 <= self.subtree[i] <= n - i:
                raise TreeError(f"node {i} has invalid subtree size")

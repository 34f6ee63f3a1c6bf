"""Next-of-kin navigation over pages: a cursor pinned to one columnar page.

ε-NoK matching (Algorithm 1) walks FIRST-CHILD / FOLLOWING-SIBLING, and
in document order those neighbours almost always live on the page the
walk is already on — the point of the paper's block layout (§3.2). A
:class:`PageCursor` therefore keeps the structural columns of one decoded
page (:class:`~repro.storage.codecs.PageColumns`) and answers every
navigation primitive for a position in ``[lo, hi)`` from them with one
range test and an array index. Only a position outside the pinned page
costs a page lookup, through the owner's ``_page`` — the sole place a
cursor reaches storage, so whatever the owner checks there (quarantine,
snapshot overlay resolution, the post-read re-check) runs at every pin.

The owner is a :class:`~repro.storage.nokstore.NoKStore` or a
:class:`~repro.storage.snapshot.StoreSnapshot`; both mix in
:class:`PageNavigation` and :class:`PageAccess`, which are all the
navigation and access-check code they have.
Decoded pages are never mutated (a writer invalidates and re-decodes),
so the columns a cursor holds stay the image of the epoch it pinned them
in. A cursor is single-threaded scratch state: one per plan execution,
never stored on anything shared.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.xmltree.document import NO_NODE


class PageCursor:
    """The next-of-kin interface of the matcher, served from a pinned page.

    ``pins`` counts page lookups made so far — the pages-per-match figure
    ``EXPLAIN ANALYZE`` reports for :class:`~repro.exec.operators.NPMMatch`.
    """

    __slots__ = (
        "_owner", "_per_page", "_n_nodes", "_name_of",
        "_lo", "_hi", "_tags", "_depths", "_subtrees", "pins",
    )

    def __init__(self, owner):
        self._owner = owner
        self._per_page = owner.entries_per_page
        self._n_nodes = owner.n_nodes
        self._name_of = owner.doc.tag_dict.name_of
        self._lo = self._hi = 0  # empty range: the first read pins
        self._tags = self._depths = self._subtrees = None
        self.pins = 0

    def _pin(self, pos: int) -> None:
        """Move to the page holding ``pos`` (bounds-checked first).

        The fields change only after the lookup returned, so a
        :class:`~repro.errors.PageCorruptionError` leaves the cursor on
        the page it was on.
        """
        self._owner._check(pos)
        page_id = pos // self._per_page
        columns = self._owner._page(page_id)
        self.pins += 1
        self._lo = page_id * self._per_page
        self._hi = self._lo + columns.n
        self._tags = columns.tags
        self._depths = columns.depths
        self._subtrees = columns.subtrees

    def tag_id(self, pos: int) -> int:
        if not self._lo <= pos < self._hi:
            self._pin(pos)
        return self._tags[pos - self._lo]

    def tag_name(self, pos: int) -> str:
        if not self._lo <= pos < self._hi:
            self._pin(pos)
        return self._name_of(self._tags[pos - self._lo])

    def first_child(self, pos: int) -> int:
        """FIRST-CHILD of Algorithm 1; ``NO_NODE`` for leaves."""
        if not self._lo <= pos < self._hi:
            self._pin(pos)
        return pos + 1 if self._subtrees[pos - self._lo] > 1 else NO_NODE

    def following_sibling(self, pos: int) -> int:
        """FOLLOWING-SIBLING of Algorithm 1; ``NO_NODE`` at the end.

        The node after ``pos``'s subtree is its sibling iff it sits at
        the same depth; it may be on a later page, which re-pins.
        """
        if not self._lo <= pos < self._hi:
            self._pin(pos)
        offset = pos - self._lo
        depth = self._depths[offset]
        nxt = pos + self._subtrees[offset]
        if nxt >= self._n_nodes:
            return NO_NODE
        if not self._lo <= nxt < self._hi:
            self._pin(nxt)
        return nxt if self._depths[nxt - self._lo] == depth else NO_NODE

    def subtree_end(self, pos: int) -> int:
        if not self._lo <= pos < self._hi:
            self._pin(pos)
        return pos + self._subtrees[pos - self._lo]

    # Values live outside the structure pages: the owner serves them (and
    # bounds-checks) exactly as it does without a cursor.

    def text(self, pos: int) -> str:
        return self._owner.text(pos)

    def attrs_of(self, pos: int):
        return self._owner.attrs_of(pos)


class PageNavigation:
    """Navigation methods of a page owner, each one cursor read.

    Mixed into the store and its snapshots so point callers keep the
    next-of-kin interface; anything that walks should hold a
    :meth:`cursor` instead and pay for a page lookup only when it leaves
    the page. The owner supplies ``_page``, ``n_nodes`` and
    ``entries_per_page``.
    """

    def _check(self, pos: int) -> None:
        if not 0 <= pos < self.n_nodes:
            raise StorageError(f"position {pos} out of range")

    def page_of(self, pos: int) -> int:
        """Page index holding document position ``pos``."""
        self._check(pos)
        return pos // self.entries_per_page

    def entry(self, pos: int):
        """The stored :class:`~repro.storage.encoding.NodeEntry` of ``pos``."""
        self._check(pos)
        page = self._page(pos // self.entries_per_page)
        return page.entry_at(pos % self.entries_per_page)

    def page_columns(self, page_id: int):
        """The columnar decode of one page — the batch executor's face.

        A sorted candidate batch groups its positions by page and reads
        each page group's tag/subtree columns by slice, no per-entry
        objects.
        """
        return self._page(page_id)

    def cursor(self) -> PageCursor:
        """A fresh, unpinned cursor over this owner's pages."""
        return PageCursor(self)

    def tag_id(self, pos: int) -> int:
        return self.cursor().tag_id(pos)

    def tag_name(self, pos: int) -> str:
        return self.cursor().tag_name(pos)

    def first_child(self, pos: int) -> int:
        return self.cursor().first_child(pos)

    def following_sibling(self, pos: int) -> int:
        return self.cursor().following_sibling(pos)

    def subtree_end(self, pos: int) -> int:
        return self.cursor().subtree_end(pos)


class PageAccess:
    """The ACCESS check of Algorithm 1 and the Section 3.3 page-skip tests.

    An access check reads the code embedded on the node's own page — the
    first node of every page carries its governing code — so it never
    costs I/O beyond the page the caller is already reading; the skip
    tests read only the in-memory header table. The owner supplies
    ``_page``, ``labeling`` (for its codebook), ``headers`` and ``doc``.
    """

    def access_code_at(self, pos: int) -> int:
        """Access control code governing ``pos``, read off its page."""
        self._check(pos)
        page = self._page(pos // self.entries_per_page)
        return page.codes[pos % self.entries_per_page]

    def accessible(self, subject: int, pos: int) -> bool:
        """ACCESS of Algorithm 1 for one subject."""
        return self.labeling.codebook.accessible(self.access_code_at(pos), subject)

    def accessible_any(self, subjects, pos: int) -> bool:
        """User-level ACCESS: true if any of the subjects is granted."""
        mask = self.labeling.codebook.decode(self.access_code_at(pos))
        return any(mask >> subject & 1 for subject in subjects)

    def page_fully_inaccessible(self, page_id: int, subject: int) -> bool:
        """Header-only page-skip test — costs no I/O."""
        return self.headers.page_fully_inaccessible(
            page_id, subject, self.labeling.codebook
        )

    def page_fully_inaccessible_any(self, page_id: int, subjects) -> bool:
        """Page-skip test for a user holding several subjects."""
        return all(
            self.page_fully_inaccessible(page_id, subject) for subject in subjects
        )

    def subtree_fully_inaccessible(self, pos: int, subject: int) -> bool:
        """True if every page covering the subtree can be header-skipped.

        A sufficient (not necessary) condition used by the secure matcher
        to avoid reading pages of entirely inaccessible regions.
        """
        self._check(pos)
        first_page = pos // self.entries_per_page
        last_page = (self.doc.subtree_end(pos) - 1) // self.entries_per_page
        return all(
            self.page_fully_inaccessible(page_id, subject)
            for page_id in range(first_page, last_page + 1)
        )

"""Snapshot-isolated read views of a :class:`~repro.storage.nokstore.NoKStore`.

Concurrent serving (DESIGN.md §10) needs many readers to evaluate secure
queries against one resident store while Section 3.4 updates commit
underneath them. A :class:`StoreSnapshot` is the mechanism: an immutable
view of the store at one *epoch*, carrying its own frozen copies of the
mutable logical state — the document, the DOL (cloned via
:meth:`~repro.dol.labeling.DOL.clone`), and the page-header
table — plus a copy-on-write **page overlay** for physical bytes.

Lifecycle
---------
``store.snapshot()`` returns the current snapshot (shared by every reader
at that epoch; creation is lazy, so a store that is never read
concurrently pays nothing). When a writer commits an update, it runs
under the store's single-writer lock and, *before* rewriting any page,
copies that page's current bytes into the outgoing snapshot's overlay
("copy-on-write at update commit"). It then publishes a fresh snapshot
with a bumped epoch and links the old one to it. In-flight readers keep
the old snapshot: their labeling/header/document objects were never
mutated, and any page the writer touched resolves through the overlay
chain to its pre-update image — a reader never blocks on a writer and
never observes a half-applied update.

Page resolution for a snapshot at epoch *E*: walk the chain of successor
snapshots looking for an overlay entry (the bytes page *p* had when the
first post-*E* writer was about to change it); if no overlay holds *p*,
the store's live bytes are still exactly the epoch-*E* bytes and the read
goes through the shared latched buffer pool. Overlay pre-images are the
*stored* form of the page — compressed, on a v3 store — captured verbatim
and decoded on demand through the store's codec layer, so copy-on-write
cost is one page-size copy regardless of codec. A re-check after the live
read closes the race with a writer installing the overlay concurrently:
pre-images are always published *before* the page is rewritten, so "no
overlay after the read" proves the read saw epoch-*E* bytes.

The snapshot exposes the full reader API of :class:`NoKStore` (navigation
primitives, accessibility probes, the header page-skip test), so the
execution layer binds an :class:`~repro.exec.context.ExecutionContext` to
a snapshot exactly as it would to the store itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.dol.labeling import DOL
from repro.errors import PageCorruptionError
from repro.storage.cursor import PageAccess, PageNavigation
from repro.storage.headers import PageHeaderTable
from repro.xmltree.document import Document

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.codecs import PageColumns
    from repro.storage.nokstore import NoKStore


class StoreSnapshot(PageNavigation, PageAccess):
    """An immutable, epoch-stamped read view of one :class:`NoKStore`.

    Duck-types the store's reader API so planners, operators and the NoK
    matcher run against it unchanged. All mutating store operations are
    absent by design — a snapshot cannot be written.
    """

    def __init__(
        self,
        store: "NoKStore",
        epoch: int,
        doc: Document,
        labeling: DOL,
        headers: PageHeaderTable,
        n_data_pages: int,
    ):
        self._store = store
        self.epoch = epoch
        self.doc = doc
        self.labeling = labeling
        self.headers = headers
        self._n_data_pages = n_data_pages
        #: a snapshot never changes, so its sizes are plain attributes
        self.n_nodes = len(doc)
        self.entries_per_page = store.entries_per_page
        self.page_size = store.page_size
        #: pre-update page images, installed by the writer that
        #: superseded this snapshot, *before* it rewrote each page
        self._overlay: Dict[int, bytes] = {}
        self._overlay_decoded: Dict[int, "PageColumns"] = {}
        #: the snapshot that superseded this one (None while current)
        self._next: Optional["StoreSnapshot"] = None

    # -- identity ----------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self._n_data_pages

    @property
    def is_current(self) -> bool:
        """True while no update has committed since this snapshot."""
        return self._next is None

    @property
    def quarantined(self):
        """Corrupt-page set — physical state, shared with the store."""
        return self._store.quarantined

    @property
    def buffer(self):
        """The store's shared buffer pool (for I/O accounting)."""
        return self._store.buffer

    @property
    def pager(self):
        """The store's shared pager (for I/O accounting)."""
        return self._store.pager

    def quarantine(self, page_id: int) -> None:
        """Mark a page corrupt (degraded mode) — delegates to the store;
        corruption is a physical property, true in every epoch."""
        self._store.quarantine(page_id)

    # -- page access -------------------------------------------------------

    def _frozen_bytes(self, page_id: int) -> Optional[bytes]:
        """Pre-image bytes for this epoch, walking the successor chain."""
        snap: Optional[StoreSnapshot] = self
        while snap is not None:
            data = snap._overlay.get(page_id)
            if data is not None:
                return data
            snap = snap._next
        return None

    def _page(self, page_id: int) -> "PageColumns":
        if page_id in self._store.quarantined:
            raise PageCorruptionError(page_id, detail="page is quarantined")
        decoded = self._overlay_decoded.get(page_id)
        if decoded is not None:
            return decoded
        frozen = self._frozen_bytes(page_id)
        if frozen is None:
            decoded = self._store._page(page_id)
            # Re-check: a writer may have installed the pre-image while
            # we read. Writers install overlays strictly before
            # rewriting, so finding none now proves the live read
            # returned this epoch's bytes.
            frozen = self._frozen_bytes(page_id)
            if frozen is None:
                return decoded
        decoded = self._store._decode(frozen)
        # Benign race between readers: the decode is deterministic, so
        # concurrent inserts of the same page are interchangeable.
        self._overlay_decoded[page_id] = decoded
        return decoded

    # -- values (navigation and access checks: the storage.cursor mixins) --

    def text(self, pos: int) -> str:
        """Node text, from the snapshot's frozen document arrays.

        Value pages are not versioned: a structural update rebuilds the
        store's value heap in place, so a snapshot always serves texts
        from the document it captured.
        """
        self._check(pos)
        return self.doc.texts[pos]

    def attrs_of(self, pos: int):
        self._check(pos)
        return self.doc.attrs[pos]

    # -- internals ---------------------------------------------------------

    def frozen_page_count(self) -> int:
        """Pages this snapshot holds as copy-on-write pre-images."""
        return len(self._overlay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "current" if self.is_current else "superseded"
        return (
            f"StoreSnapshot(epoch={self.epoch}, {state}, "
            f"n_nodes={self.n_nodes}, frozen_pages={len(self._overlay)})"
        )

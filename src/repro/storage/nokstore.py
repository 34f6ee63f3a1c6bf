"""The integrated NoK + DOL physical store (Section 3.2).

A :class:`NoKStore` lays a flattened document out on fixed-size pages in
document order. Each page holds fixed-width :class:`NodeEntry` records (tag,
depth, subtree size) with the DOL access control codes *embedded*: a node
that is a transition node carries its code in its entry, and the first node
of every page is treated as a transition node regardless (its code also
lives in the page header, mirrored in memory).

Consequences, each measurable through the I/O counters:

- an accessibility check for a node whose page is already loaded costs no
  I/O (the governing transition is on the same page);
- a page whose header code denies the subject and whose change bit is clear
  can be skipped entirely;
- an accessibility update to a subtree of N nodes rewrites only the
  ~N/B pages that hold it (update locality).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.dol.labeling import DOL
from repro.dol.updates import DOLUpdater
from repro.errors import PageCorruptionError, PageFormatError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.codecs import PageColumns, resolve_page_format
from repro.storage.cursor import PageAccess, PageNavigation
from repro.storage.encoding import ENTRY_SIZE, NodeEntry
from repro.storage.headers import HEADER_SIZE, PageHeader, PageHeaderTable
from repro.storage.pagecache import DEFAULT_DECODED_CACHE_BYTES, DecodedPageCache
from repro.storage.pager import CHECKSUM_SIZE, DEFAULT_PAGE_SIZE, Pager
from repro.storage.snapshot import StoreSnapshot
from repro.storage.wal import WriteAheadLog
from repro.xmltree.document import Document


def entries_per_page_for(page_size: int) -> int:
    """Node entries that fit one page beside the header and CRC trailer."""
    return (page_size - HEADER_SIZE - CHECKSUM_SIZE) // ENTRY_SIZE


def wal_path_for(path: str) -> str:
    """Default write-ahead-log location for a page file."""
    return path + ".wal"


@dataclass
class UpdateCost:
    """Physical cost report for a store update."""

    pages_rewritten: int
    transition_delta: int


class NoKStore(PageNavigation, PageAccess):
    """Block-oriented document store with the DOL's access codes embedded
    in its pages (the paper's design)."""

    def __init__(
        self,
        doc: Document,
        labeling: DOL,
        path: Optional[str] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_capacity: int = 64,
        paged_values: bool = False,
        codec=None,
        decoded_cache_bytes: int = DEFAULT_DECODED_CACHE_BYTES,
    ):
        if labeling.n_nodes != len(doc):
            raise StorageError("labeling and document disagree on node count")
        if len(labeling.codebook) > 0xFFFF:
            raise StorageError("codebook too large for u16 embedded codes")
        self.doc = doc
        self.labeling = labeling
        self.page_size = page_size
        #: the codec layer for page interiors: ``None``/"none" is the
        #: plain v2 layout, a codec name or per-container dict selects
        #: compressed v3 pages (see :mod:`repro.storage.codecs`)
        self.page_format = resolve_page_format(codec)
        self.entries_per_page = entries_per_page_for(page_size)
        if self.entries_per_page < 1:
            raise StorageError("page size too small for even one node entry")
        self.pager = Pager(path, page_size)
        self.wal: Optional[WriteAheadLog] = None
        self.values = None
        try:
            if path is not None:
                self.wal = WriteAheadLog(wal_path_for(path))
            # Decoded pages live in their own bounded LRU, deliberately
            # *not* tied to buffer frames: evicting raw bytes no longer
            # throws away the (much more expensive) decode. The budget is
            # in decoded bytes — columnar pages are charged what their
            # arrays actually weigh.
            self._decoded = DecodedPageCache(decoded_cache_bytes)
            self._columnar_decodes = 0
            self.quarantined: Set[int] = set()
            #: WAL-recovery outcome stamped by ``open_store`` (``None``
            #: for freshly built stores) — the health model reads it
            self.last_recovery = None
            self.buffer = BufferPool(
                self.pager,
                buffer_capacity,
                wal=self.wal,
            )
            self.headers = PageHeaderTable()
            self._init_concurrency()
            if paged_values:
                from repro.storage.valuestore import ValueStore

                self.values = ValueStore(
                    doc.texts,
                    path=path + ".values" if path else None,
                    page_size=page_size,
                    codec="zlib" if self.page_format.compressed else None,
                )
            self._build()
        except BaseException:
            # Don't leak any file handle when construction fails mid-way.
            self.pager.close()
            if self.wal is not None:
                self.wal.close()
            if self.values is not None:
                self.values.close()
            raise

    # -- construction -----------------------------------------------------------

    @classmethod
    def attach(
        cls,
        doc: Document,
        labeling: DOL,
        pager,
        headers: PageHeaderTable,
        buffer_capacity: int = 64,
        wal: Optional[WriteAheadLog] = None,
        codec=None,
        entries_per_page: Optional[int] = None,
        decoded_cache_bytes: int = DEFAULT_DECODED_CACHE_BYTES,
    ) -> "NoKStore":
        """Wrap already-written pages (used when reopening a saved store).

        ``codec`` and ``entries_per_page`` come from the catalog: a
        compressed store records both (its density was chosen at build
        time), an untagged catalog is a plain v2 store at the fixed-width
        density.
        """
        if labeling.n_nodes != len(doc):
            raise StorageError("labeling and document disagree on node count")
        store = cls.__new__(cls)
        store.doc = doc
        store.labeling = labeling
        store.page_size = pager.page_size
        store.page_format = resolve_page_format(codec)
        store.entries_per_page = entries_per_page or entries_per_page_for(
            pager.page_size
        )
        store.pager = pager
        store.wal = wal
        store._decoded = DecodedPageCache(decoded_cache_bytes)
        store._columnar_decodes = 0
        store.quarantined = set()
        store.last_recovery = None
        store.buffer = BufferPool(
            pager,
            buffer_capacity,
            wal=wal,
        )
        store.headers = headers
        store.values = None
        store._n_data_pages = len(headers)
        store._init_concurrency()
        return store

    def _init_concurrency(self) -> None:
        """Single-writer lock + snapshot publication state.

        The writer lock is the *outermost* storage lock (see DESIGN.md
        §10): every Section 3.4 update holds it across labeling mutation,
        page rewrite and snapshot publication. Readers never take it —
        they bind to the published :class:`StoreSnapshot`, whose
        acquisition after the first call is a plain reference load.
        """
        self._writer_lock = threading.RLock()
        self._epoch = 0
        self._snapshot: Optional[StoreSnapshot] = None

    @classmethod
    def open(
        cls,
        path: str,
        catalog_path: Optional[str] = None,
        buffer_capacity: int = 64,
    ) -> "NoKStore":
        """Reopen a saved store (see :func:`repro.storage.persist.open_store`)."""
        from repro.storage.persist import open_store

        return open_store(path, catalog_path, buffer_capacity)

    @property
    def n_nodes(self) -> int:
        return len(self.doc)

    @property
    def n_pages(self) -> int:
        """Pages currently holding document data.

        May be fewer than the pager's allocated pages after a shrinking
        structural update (page files do not shrink in place).
        """
        return self._n_data_pages

    # -- snapshots (concurrent serving; DESIGN.md §10) ---------------------------

    @property
    def epoch(self) -> int:
        """Monotonic commit counter; bumped by every committed update."""
        return self._epoch

    def snapshot(self) -> StoreSnapshot:
        """The current immutable read view of this store.

        The first call materializes it (under the writer lock, so the
        clone cannot tear against a committing update); afterwards every
        committed update publishes a successor, and acquiring the current
        snapshot is a single reference load — readers never block on
        writers.
        """
        snap = self._snapshot
        if snap is not None:
            return snap
        with self._writer_lock:
            if self._snapshot is None:
                self._snapshot = self._make_snapshot()
            return self._snapshot

    def _make_snapshot(self) -> StoreSnapshot:
        return StoreSnapshot(
            self,
            self._epoch,
            self.doc,
            self.labeling.clone(),
            self.headers.clone(),
            self._n_data_pages,
        )

    def _freeze_pages(self, first_page: int, last_page_exclusive: int) -> None:
        """Copy-on-write: stash pre-images into the outgoing snapshot.

        Must run (writer lock held) *before* any page in the range is
        rewritten — snapshot readers rely on "overlay installed before
        rewrite" to close their read/recheck race. A no-op while no
        snapshot has ever been taken (single-threaded usage pays nothing).
        """
        prior = self._snapshot
        if prior is None:
            return
        for page_id in range(first_page, min(last_page_exclusive, self.pager.n_pages)):
            if page_id in prior._overlay:
                continue
            data = self.buffer.peek(page_id)
            if data is None:
                data = self.pager.read_page_raw(page_id)
            prior._overlay[page_id] = data

    def _publish_snapshot(self) -> None:
        """Commit point for readers: bump the epoch and atomically swap in
        a fresh snapshot, linking the outgoing one to its successor.

        Runs with the writer lock held, after the update fully applied.
        In-flight readers keep the outgoing snapshot: its labeling,
        headers and document were cloned/immutable, and its page overlay
        was filled by :meth:`_freeze_pages` before any byte changed.
        """
        self._epoch += 1
        prior = self._snapshot
        if prior is None:
            return
        successor = self._make_snapshot()
        prior._next = successor
        self._snapshot = successor

    def _build(self) -> None:
        rendered = self._render_all_pages()
        self._n_data_pages = 0
        for data, header in rendered:
            page_id = self.pager.allocate()
            self.pager.write_page(page_id, data)
            self.headers.append(header)
            self._n_data_pages += 1
        self.reset_io_stats()

    def _render_all_pages(self) -> "List[tuple[bytes, PageHeader]]":
        """Render the whole document, choosing the density for v3 pages.

        A compressed page packs as many entries as its *encoded*
        structure container plus worst-case codes room allow, so density
        is data-dependent: start at the format's hard ceiling and back
        off geometrically until every page satisfies the fit invariant.
        The plain format renders at the fixed-width density and any
        overflow is a real error.
        """
        if self.page_format.compressed:
            self.entries_per_page = self.page_format.max_entries(self.page_size)
        while True:
            try:
                return [
                    self._render_page_bytes(first)
                    for first in range(0, self.n_nodes, self.entries_per_page)
                ]
            except PageFormatError:
                if not self.page_format.compressed or self.entries_per_page <= 1:
                    raise
                self.entries_per_page = max(1, self.entries_per_page * 3 // 4)

    def _render_page_bytes(self, first: int) -> "tuple[bytes, PageHeader]":
        """Encode the page that starts at position ``first``.

        The page's codes come from its slice of the transition list (one
        bisect pair per page): the first entry carries its governing code
        as a page-initial pseudo-transition, so an access check never
        needs a neighbouring page, and every real transition after it
        carries its own code and sets the header's change bit.
        """
        doc, labeling = self.doc, self.labeling
        positions = labeling.positions
        last = min(first + self.entries_per_page, self.n_nodes)
        lo = bisect_right(positions, first)
        hi = bisect_left(positions, last, lo)
        first_code = labeling.codes[lo - 1]
        codes = [0] * (last - first)
        flags = [False] * (last - first)
        codes[0], flags[0] = first_code, True
        for index in range(lo, hi):
            offset = positions[index] - first
            codes[offset], flags[offset] = labeling.codes[index], True
        entries = list(
            map(
                NodeEntry,
                doc.tags[first:last],
                doc.depth[first:last],
                doc.subtree[first:last],
                codes,
                flags,
            )
        )
        header = PageHeader(
            first_code=first_code, change_bit=hi > lo, n_entries=last - first
        )
        return self.page_format.encode_page(header, entries, self.page_size), header

    # -- page access ---------------------------------------------------------------

    def _page(self, page_id: int) -> PageColumns:
        if page_id in self.quarantined:
            raise PageCorruptionError(page_id, detail="page is quarantined")
        # The whole lookup runs under the pool latch so the decode cache
        # and the frame LRU stay coherent when many readers share the
        # store (view() re-enters the same RLock). A decode-cache hit
        # still records the logical access but needs no frame — the
        # decode outlives the raw bytes it came from.
        with self.buffer.latched():
            decoded = self._decoded.get(page_id)
            if decoded is not None:
                self.buffer.touch(page_id)
                return decoded
            view = self.buffer.view(page_id)
            decoded = self._decode(view)
            self._decoded.put(page_id, decoded)
            return decoded

    def quarantine(self, page_id: int) -> None:
        """Mark a page corrupt: further access raises without re-reading.

        Used by the execution layer's ``strict=False`` degradation mode —
        the page is reported once and skipped afterwards, instead of the
        scan re-reading (and re-failing on) the same bytes per candidate.
        """
        with self.buffer.latched():
            self.quarantined.add(page_id)
            self._decoded.invalidate(page_id)

    def clear_quarantine(self) -> Set[int]:
        """Optimistically forget quarantined pages; returns what was held.

        The circuit breaker's half-open probe calls this before a strict
        re-read: transient corruption (a flipped bit on the read path, not
        on disk) verifies clean the second time and the store heals; truly
        rotten pages fail the probe and re-enter quarantine. Frames are
        dropped for the cleared pages so the probe really re-reads them.
        """
        with self.buffer.latched():
            cleared = set(self.quarantined)
            self.quarantined.clear()
            for page_id in cleared:
                self.buffer.drop(page_id)
                self._decoded.invalidate(page_id)
            return cleared

    def _decode(self, data) -> PageColumns:
        """Decode page bytes (or a borrowed view) through the codec layer.

        Bulk columnar decode: the structural columns come straight out of
        the page containers as arrays, and the running access code at
        each offset is precomputed, so the cached
        :class:`~repro.storage.codecs.PageColumns` answers accessibility
        probes without touching the raw bytes again.
        """
        self._columnar_decodes += 1
        return self.page_format.decode_page_columns(data)

    @property
    def columnar_decodes(self) -> int:
        """Pages decoded columnar-ly since the store opened (monotonic)."""
        return self._columnar_decodes

    # -- values (navigation and access checks: the storage.cursor mixins) -----------

    def text(self, pos: int) -> str:
        """Node text, from the separate NoK value store.

        With ``paged_values=True`` the value pages go through their own
        buffer pool (I/O-accounted); otherwise values are served from
        memory.
        """
        self._check(pos)
        if self.values is not None:
            return self.values.text(pos)
        return self.doc.texts[pos]

    def attrs_of(self, pos: int):
        """Node attributes (served with the value store's metadata)."""
        self._check(pos)
        return self.doc.attrs[pos]

    # -- updates (Section 3.4) -------------------------------------------------------

    def update_subject_range(
        self, start: int, end: int, subject: int, value: bool
    ) -> UpdateCost:
        """Grant/revoke a subject over [start, end) and rewrite its pages.

        Updates run under the store's single-writer lock and publish a
        fresh :class:`StoreSnapshot` at commit; queries in flight keep
        reading the snapshot they started on.
        """
        return self._update(
            start, end,
            lambda updater: updater.set_subject_accessibility(start, end, subject, value),
        )

    def update_range_mask(self, start: int, end: int, mask: int) -> UpdateCost:
        """Replace the ACL of [start, end) and rewrite its pages."""
        return self._update(
            start, end, lambda updater: updater.set_range_mask(start, end, mask)
        )

    def _update(self, start: int, end: int, apply) -> UpdateCost:
        """Splice the DOL through ``apply(updater)``, then rewrite the pages.

        A splice that overflows the u16 embedded codes is undone before it
        is reported: the transition lists are swapped back (the updater
        installs new lists, never edits the old ones) and the codebook
        entries it registered are dropped, so the labeling, the pages and
        the next commit all still describe the pre-update state.
        """
        with self._writer_lock:
            labeling = self.labeling
            positions, codes = labeling.positions, labeling.codes
            n_entries = len(labeling.codebook)
            ops: List[dict] = []
            delta = apply(DOLUpdater(labeling, journal=ops.append))
            if len(labeling.codebook) > 0xFFFF:
                labeling.positions, labeling.codes = positions, codes
                labeling.codebook.truncate(n_entries)
                raise StorageError("codebook overflow after update")
            pages = self._rewrite_range(start, end, ops)
            return UpdateCost(pages_rewritten=pages, transition_delta=delta)

    def acl_catalog_patch(self) -> Dict[str, object]:
        """The catalog fields an accessibility update can change.

        This is the payload of an ACL commit record: the subject count
        and the codebook, entry by entry in code order. Texts, tags and
        counts are untouched by an ACL update, so recovery's in-order
        merge of commit patches keeps them from the catalog or from an
        earlier structural commit.
        """
        codebook = self.labeling.codebook
        return {
            "n_subjects": codebook.n_subjects,
            "codebook": [f"{mask:x}" for _code, mask in codebook.entries()],
        }

    def catalog_state(self) -> Dict[str, object]:
        """Every catalog field the store's state determines.

        ``save_store`` writes it as the checkpoint catalog, and a
        structural update commits it whole: after replaying the batch's
        pages, recovery overwrites these keys in the on-disk catalog so
        the texts, tags, counts and codebook match the replayed pages.
        """
        doc = self.doc
        # The DOL round-trips through the page codes; the catalog only
        # needs the codebook.
        state: Dict[str, object] = {
            "n_nodes": self.n_nodes,
            "n_pages": self._n_data_pages,
            "tags": [doc.tag_dict.name_of(i) for i in range(len(doc.tag_dict))],
            "texts": list(doc.texts),
            "labeling": "dol",
        }
        state.update(self.acl_catalog_patch())
        if self.page_format.catalog_tag is not None:
            # v3 stores: the codec negotiation tag plus the density the
            # build (or a structural re-pack) chose. Absent on plain
            # stores, which keeps untagged v2 catalogs readable.
            state["codec"] = self.page_format.catalog_tag
            state["entries_per_page"] = self.entries_per_page
        return state

    def _wal_begin(self) -> None:
        if self.wal is not None:
            self.wal.begin()

    def _wal_commit(
        self, patch: Callable[[], Dict[str, object]], ops: Optional[List[dict]]
    ) -> None:
        """Commit the open batch; ``patch`` builds its catalog patch."""
        if self.wal is not None:
            self.wal.commit(patch(), ops)

    def _wal_abort(self) -> None:
        if self.wal is not None:
            self.wal.abort()

    def _rewrite_range(
        self, start: int, end: int, ops: Optional[List[dict]] = None
    ) -> int:
        """Re-render every page overlapping [start, end]; returns the count.

        ``end`` is included because the update may materialize a boundary
        transition at position ``end``. On a file-backed store the whole
        rewrite runs as one WAL batch: each page write is preceded by its
        physiological log record, and the commit record (the codebook
        patch of :meth:`acl_catalog_patch` + logical ops) is forced before
        the batch counts as durable.
        """
        first_page = start // self.entries_per_page
        last_pos = min(end, self.n_nodes - 1)
        last_page = last_pos // self.entries_per_page
        # Snapshot isolation: pre-images must land in the outgoing
        # snapshot's overlay before the first byte of the range changes.
        self._freeze_pages(first_page, last_page + 1)
        self._wal_begin()
        try:
            for page_id in range(first_page, last_page + 1):
                # Re-rendering at the same density cannot overflow a v3
                # page: only the codes container changed, and every built
                # page reserves worst-case codes room (the fit invariant).
                data, header = self._render_page_bytes(page_id * self.entries_per_page)
                self.buffer.put(page_id, data)
                self.buffer.flush(page_id)
                self.headers.set(page_id, header)
                self._decoded.invalidate(page_id)
            self._wal_commit(self.acl_catalog_patch, ops)
            self.pager.sync()
        except BaseException:
            self._wal_abort()
            raise
        self._publish_snapshot()
        return last_page - first_page + 1

    def apply_structural_update(self, new_doc: Document, from_pos: int) -> int:
        """Install an edited document, rewriting pages from ``from_pos`` on.

        The caller (``SecuredDocument``) has already spliced the labeling
        to match ``new_doc``. Node entries at positions >= ``from_pos``
        shifted, so every page from ``from_pos``'s page to the new end is
        re-rendered — the physical cost of a structural update. Returns
        the number of pages rewritten.

        Runs under the single-writer lock and publishes a fresh snapshot
        at commit. Readers on older snapshots are untouched: their
        document/labeling/header objects were captured by value, their
        texts come from the frozen document (the value heap rebuilt below
        is not versioned), and every rewritten page that existed at their
        epoch gets its pre-image frozen before the first byte changes.
        """
        with self._writer_lock:
            if self.labeling.n_nodes != len(new_doc):
                raise StorageError(
                    "labeling and edited document disagree on node count"
                )
            self.doc = new_doc
            if self.values is not None:
                # Value records shifted with the structure: rebuild the heap.
                from repro.storage.valuestore import ValueStore

                old_path = self.values.pager.path
                self.values.close()
                self.values = ValueStore(
                    new_doc.texts,
                    path=old_path,
                    page_size=self.page_size,
                    codec="zlib" if self.page_format.compressed else None,
                )
            first_page = (
                min(from_pos, max(len(new_doc) - 1, 0)) // self.entries_per_page
            )
            needed = -(-len(new_doc) // self.entries_per_page)
            try:
                rendered = [
                    self._render_page_bytes(page_id * self.entries_per_page)
                    for page_id in range(first_page, needed)
                ]
            except PageFormatError:
                if not self.page_format.compressed:
                    raise
                # The edit grew some page's structure container past its
                # reserved room. Re-pack the whole store at a density the
                # new document fits (rendering mutates no stored bytes,
                # so the fallback is safe to run before the WAL batch).
                first_page = 0
                rendered = self._render_all_pages()
                needed = len(rendered)
            # Pre-images for every page this commit rewrites that existed
            # at the outgoing snapshot's epoch (freshly allocated pages
            # beyond the old extent need none — no old reader can reach
            # them, their snapshot's page count bounds the scan).
            self._freeze_pages(first_page, min(needed, self._n_data_pages))
            while self.pager.n_pages < needed:
                self.pager.allocate()
            while len(self.headers) < needed:
                self.headers.append(PageHeader(0, False, 0))
            self._wal_begin()
            try:
                for index, (data, header) in enumerate(rendered):
                    page_id = first_page + index
                    self.buffer.put(page_id, data)
                    self.buffer.flush(page_id)
                    self.headers.set(page_id, header)
                    self._decoded.invalidate(page_id)
                if needed < self._n_data_pages:
                    for stale in range(needed, self._n_data_pages):
                        self._decoded.invalidate(stale)
                    self.headers.truncate(needed)
                self._n_data_pages = needed
                self._wal_commit(
                    self.catalog_state, [{"op": "structural", "from_pos": from_pos}]
                )
                self.pager.sync()
            except BaseException:
                self._wal_abort()
                raise
            self._publish_snapshot()
            return needed - first_page

    def verify(self) -> None:
        """Integrity check: pages must agree with the document and labeling.

        Re-reads every page (bypassing caches) and cross-checks each
        entry's structure fields and running access code. Raises :class:`StorageError`
        on the first discrepancy — the tool to run after a crash or a
        suspected corruption.
        """
        doc, labeling = self.doc, self.labeling
        pos = 0
        for page_id in range(self.n_pages):
            data = self.pager.read_page(page_id)
            decoded = self._decode(data)
            entries = decoded.entries
            header = self.headers.get(page_id)
            expected = decoded.implied_header()
            if header != expected:
                raise StorageError(
                    f"page {page_id}: header drift (table {header}, page implies {expected})"
                )
            for offset, entry in enumerate(entries):
                if entry.tag_id != doc.tags[pos]:
                    raise StorageError(f"position {pos}: tag drift")
                if entry.depth != doc.depth[pos]:
                    raise StorageError(f"position {pos}: depth drift")
                if entry.subtree != doc.subtree[pos]:
                    raise StorageError(f"position {pos}: subtree drift")
                if decoded.codes[offset] != labeling.code_at(pos):
                    raise StorageError(f"position {pos}: access code drift")
                pos += 1
        if pos != self.n_nodes:
            raise StorageError(
                f"pages hold {pos} entries, document has {self.n_nodes}"
            )

    # -- bookkeeping ---------------------------------------------------------------

    def reset_io_stats(self) -> None:
        """Zero both logical and physical counters (e.g. after the build)."""
        self.pager.stats.reset()
        self.buffer.reset_stats()

    def drop_caches(self) -> None:
        """Flush and empty the buffer pool and decode cache (cold start)."""
        with self.buffer.latched():
            self.buffer.clear()
            self._decoded.clear()

    @property
    def decoded_cache(self) -> DecodedPageCache:
        """The decoded-page cache (metrics surface)."""
        return self._decoded

    def close(self) -> None:
        self.buffer.flush_all()
        self.pager.sync()
        self.pager.close()
        if self.wal is not None:
            self.wal.close()
        if self.values is not None:
            self.values.close()

    def __enter__(self) -> "NoKStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


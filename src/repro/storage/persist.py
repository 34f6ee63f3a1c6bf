"""Persistence: save, recover, reopen and fsck a :class:`NoKStore`.

The page file already holds the document structure and the embedded DOL
transition codes; what it cannot hold is the in-memory state the paper
keeps alongside it — the codebook, the tag dictionary, and the NoK value
store (node texts). :func:`save_store` writes those to a JSON *catalog*
next to the page file; :func:`open_store` reads both back, reconstructing
the flattened document (parents from depths, a stack-based linear pass)
and the DOL (real transitions are entries whose code differs from the
running code — page-initial pseudo-transitions are filtered out) directly
from the on-disk pages. The codebook is saved entry by entry in code
order and reloaded positionally, duplicates included, so every code
decodes to the same subjects after a reopen as before it.

The catalog carries a ``labeling`` tag, always ``"dol"``; a catalog
without one is read the same way. Any other tag is refused with a
:class:`StorageError` naming it.

Durability protocol
-------------------
``save_store`` is atomic (temp file + fsync + ``os.replace``) and acts as
the checkpoint: once the catalog durably reflects the pages, the
write-ahead log is truncated. ``open_store`` starts with a recovery pass
(:meth:`WriteAheadLog.recover`): committed update batches are replayed
onto the page file and their catalog patch folded into the catalog, an
uncommitted tail is rolled back — so the store observed after a crash is
exactly the pre- or post-update state, never a torn mixture. Recovery is
idempotent; a crash *during* recovery just means it runs again.

:func:`fsck_store` is the offline checker behind ``repro verify-store``:
checksums, catalog/page-file agreement, header-vs-entry agreement, and
transition-code sanity, reported without giving up at the first fault.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.dol.codebook import Codebook
from repro.dol.labeling import DOL
from repro.errors import PageCorruptionError, PageFormatError, StorageError
from repro.storage.codecs import CODEC_IDS, resolve_page_format
from repro.storage.faults import FaultInjectingPager, FaultPlan
from repro.storage.headers import PageHeader, PageHeaderTable
from repro.storage.nokstore import NoKStore, entries_per_page_for, wal_path_for
from repro.storage.pager import Pager, verify_page_bytes
from repro.storage.wal import RecoveryResult, WriteAheadLog, _fsync_dir
from repro.xmltree.document import NO_NODE, Document, TagDictionary

#: v2 adds the per-page CRC trailer and the WAL sidecar; v1 files predate
#: both and cannot be verified, so they are refused rather than guessed at.
CATALOG_VERSION = 2


def catalog_path_for(path: str) -> str:
    """Default sidecar catalog location for a page file."""
    return path + ".catalog.json"


def _write_json_atomic(path: str, payload: Dict[str, object]) -> None:
    """Write JSON so a crash leaves either the old file or the new one."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)


def _catalog_from_store(store: NoKStore) -> Dict[str, object]:
    catalog = {"version": CATALOG_VERSION, "page_size": store.page_size}
    catalog.update(store.catalog_state())
    return catalog


def save_store(store: NoKStore, catalog_path: str = None) -> str:
    """Persist a file-backed store's in-memory state; returns the path.

    The sequence is the checkpoint protocol: data pages are flushed and
    fsynced, the catalog is replaced atomically, and only then is the WAL
    truncated — a crash at any point leaves a state `open_store` can
    recover.
    """
    if store.pager.path is None:
        raise StorageError("only file-backed stores can be saved")
    store.buffer.flush_all()
    store.pager.sync()

    catalog_path = catalog_path or catalog_path_for(store.pager.path)
    _write_json_atomic(catalog_path, _catalog_from_store(store))
    if store.wal is not None:
        store.wal.truncate()
    return catalog_path


def _load_catalog(path: str, catalog_path: str) -> Dict[str, object]:
    if not os.path.exists(catalog_path):
        raise StorageError(f"missing catalog {catalog_path}")
    with open(catalog_path, "r", encoding="utf-8") as handle:
        try:
            catalog = json.load(handle)
        except ValueError as exc:
            raise StorageError(f"catalog {catalog_path} is not valid JSON: {exc}")
    if catalog.get("version") != CATALOG_VERSION:
        raise StorageError(
            f"unsupported catalog version {catalog.get('version')!r} "
            f"(this build reads version {CATALOG_VERSION})"
        )
    return catalog


def _validate_catalog(catalog: Dict[str, object], path: str) -> None:
    """Cross-check the catalog against the actual page file."""
    page_size = catalog.get("page_size")
    if not isinstance(page_size, int) or page_size < 64:
        raise StorageError(f"catalog page_size {page_size!r} is not usable")
    if entries_per_page_for(page_size) < 1:
        raise StorageError(
            f"catalog page_size {page_size} cannot hold a single node entry"
        )
    for key in ("n_nodes", "n_pages", "n_subjects"):
        value = catalog.get(key)
        if not isinstance(value, int) or value < 0:
            raise StorageError(f"catalog field {key}={value!r} is not usable")
    if not os.path.exists(path):
        raise StorageError(f"missing page file {path}")
    size = os.path.getsize(path)
    if size % page_size:
        raise StorageError(
            f"page file size {size} is not a multiple of page_size {page_size}"
        )
    if size // page_size < catalog["n_pages"]:
        raise StorageError(
            f"page file holds {size // page_size} pages but the catalog "
            f"records {catalog['n_pages']}"
        )
    texts = catalog.get("texts")
    if not isinstance(texts, list) or len(texts) != catalog["n_nodes"]:
        raise StorageError("catalog texts do not match the node count")
    labeling = catalog.get("labeling", "dol")
    if labeling != "dol":
        raise StorageError(
            f"catalog labeling tag {labeling!r} is not supported "
            "(stores hold a DOL only)"
        )
    codec = catalog.get("codec")
    if codec is not None:
        # v3 store: the codec negotiation tag must name known container
        # codecs and carry the density the build chose.
        if not isinstance(codec, dict):
            raise StorageError(f"catalog codec tag {codec!r} is not usable")
        for container in ("structure", "codes"):
            name = codec.get(container)
            if name not in CODEC_IDS:
                raise StorageError(
                    f"catalog codec tag names unknown {container} codec {name!r}"
                )
        per_page = catalog.get("entries_per_page")
        if not isinstance(per_page, int) or per_page < 1:
            raise StorageError(
                f"catalog entries_per_page {per_page!r} is not usable "
                "(required for compressed stores)"
            )


def _recover(path: str, catalog_path: str) -> RecoveryResult:
    """WAL recovery + checkpoint, run before the store is opened."""
    wal_path = wal_path_for(path)
    result = WriteAheadLog.recover(wal_path, path)
    if result.catalog_patch is not None:
        catalog = _load_catalog(path, catalog_path)
        catalog.update(result.catalog_patch)
        _write_json_atomic(catalog_path, catalog)
    if result.acted:
        with WriteAheadLog(wal_path) as wal:
            wal.truncate()
    return result


def open_store(
    path: str,
    catalog_path: str = None,
    buffer_capacity: int = 64,
    fault_plan: Optional[FaultPlan] = None,
) -> NoKStore:
    """Reopen a saved store: recover the WAL, then rebuild from pages.

    ``fault_plan`` threads a :class:`FaultPlan` into the reopened pager
    and WAL (the crash-recovery harness); production callers leave it
    ``None``.
    """
    catalog_path = catalog_path or catalog_path_for(path)
    recovery = _recover(path, catalog_path)
    catalog = _load_catalog(path, catalog_path)
    _validate_catalog(catalog, path)

    page_size = catalog["page_size"]
    n_nodes = catalog["n_nodes"]
    n_pages = catalog["n_pages"]
    codec = catalog.get("codec")
    page_format = resolve_page_format(codec)
    entries_per_page = catalog.get("entries_per_page") or entries_per_page_for(
        page_size
    )
    if fault_plan is not None:
        pager = FaultInjectingPager.open_existing(path, page_size, plan=fault_plan)
    else:
        pager = Pager.open_existing(path, page_size)

    wal: Optional[WriteAheadLog] = None
    try:
        codebook = Codebook.from_entries(
            catalog["n_subjects"],
            [int(mask_hex, 16) for mask_hex in catalog["codebook"]],
        )

        # One pass over the pages: rebuild document arrays, headers, and
        # the transition list from embedded codes.
        tag_dict = TagDictionary()
        for name in catalog["tags"]:
            tag_dict.intern(name)
        texts = list(catalog["texts"])

        tags: List[int] = []
        depth: List[int] = []
        subtree: List[int] = []
        headers = PageHeaderTable()
        positions: List[int] = []
        codes: List[int] = []
        running_code = None

        pos = 0
        for page_id in range(n_pages):
            columns = page_format.decode_page_columns(pager.read_page_view(page_id))
            header = columns.header
            expected = columns.implied_header()
            if header != expected:
                raise StorageError(
                    f"page {page_id}: stored header {header} disagrees with "
                    f"its entries (implied {expected})"
                )
            headers.append(header)
            tags.extend(columns.tags)
            depth.extend(columns.depths)
            subtree.extend(columns.subtrees)
            for offset, code in zip(columns.trans_offsets, columns.trans_codes):
                if code != running_code:
                    positions.append(pos + offset)
                    codes.append(code)
                    running_code = code
            pos += columns.n
        if pos != n_nodes:
            raise StorageError(
                f"pages hold {pos} entries but the catalog records {n_nodes}"
            )

        parent: List[int] = []
        stack: List[int] = []  # positions of open ancestors
        for node_pos, node_depth in enumerate(depth):
            del stack[node_depth:]
            parent.append(stack[-1] if stack else NO_NODE)
            stack.append(node_pos)

        doc = Document(tags, parent, subtree, depth, texts, tag_dict)
        doc.validate()
        rebuilt = DOL(n_nodes, codebook)
        rebuilt.positions = positions
        rebuilt.codes = codes
        rebuilt.validate()

        pager.stats.reset()
        wal = WriteAheadLog(wal_path_for(path), fault_plan=fault_plan)
        # attach() validates too (labeling/document agreement) — it must
        # stay inside the guard or a failure leaks both descriptors.
        store = NoKStore.attach(
            doc,
            rebuilt,
            pager,
            headers,
            buffer_capacity,
            wal=wal,
            codec=codec,
            entries_per_page=entries_per_page,
        )
        # Stamp what recovery did so the serving layer's health model can
        # report a store that came up through WAL replay/rollback.
        store.last_recovery = {
            "acted": recovery.acted,
            "batches_replayed": recovery.batches_replayed,
            "pages_replayed": recovery.pages_replayed,
            "batches_rolled_back": recovery.batches_rolled_back,
            "pages_rolled_back": recovery.pages_rolled_back,
        }
        return store
    except BaseException:
        pager.close()
        if wal is not None:
            wal.close()
        raise


def fsck_store(path: str, catalog_path: str = None) -> List[str]:
    """Offline integrity check; returns human-readable findings.

    Unlike :func:`open_store`, which stops at the first problem, fsck
    keeps going and reports everything it can still reach: checksum
    failures per page, header/entry disagreement, entry-count drift
    against the catalog, transition codes outside the codebook, and a
    WAL left with pending batches. An empty list means a clean store.
    """
    return [f["message"] for f in fsck_report(path, catalog_path)["findings"]]


def fsck_report(path: str, catalog_path: str = None) -> Dict[str, object]:
    """Machine-readable fsck: the structured form behind :func:`fsck_store`.

    The report carries everything ``verify-store --json``, the CI chaos
    job, and the serving layer's health model need to act without string
    parsing::

        {"store": ..., "clean": bool, "checked_pages": N,
         "corrupt_pages": [ids...], "wal_pending_batches": N,
         "codec": tag-or-None, "physical_bytes": N, "logical_bytes": N,
         "containers": {"structure": {...}, "codes": {...}},
         "findings": [{"kind": ..., "page": id-or-None, "message": ...}]}

    Finding kinds: ``catalog`` (catalog unusable — nothing else was
    checkable), ``wal`` (pending or unreadable log), ``checksum``,
    ``header``, ``entry``, ``count``.

    The container block totals physical (as stored, post-codec) vs
    logical (decoded) bytes per container across every parseable page,
    so compression ratio is visible without a bench run.
    """
    catalog_path = catalog_path or catalog_path_for(path)
    findings: List[Dict[str, object]] = []
    report: Dict[str, object] = {
        "store": path,
        "catalog": catalog_path,
        "checked_pages": 0,
        "corrupt_pages": [],
        "wal_pending_batches": 0,
        "codec": None,
        "n_pages": 0,
        "physical_bytes": 0,
        "logical_bytes": 0,
        "containers": {
            "structure": {"physical_bytes": 0, "logical_bytes": 0, "codecs": []},
            "codes": {"physical_bytes": 0, "logical_bytes": 0, "codecs": []},
        },
        "findings": findings,
    }

    def finding(kind: str, message: str, page: Optional[int] = None) -> None:
        findings.append({"kind": kind, "page": page, "message": message})

    try:
        catalog = _load_catalog(path, catalog_path)
        _validate_catalog(catalog, path)
    except StorageError as exc:
        finding("catalog", str(exc))
        report["clean"] = False
        return report

    page_size = catalog["page_size"]
    n_pages = catalog["n_pages"]
    n_codes = len(catalog.get("codebook", []))
    per_page = catalog.get("entries_per_page") or entries_per_page_for(page_size)
    page_format = resolve_page_format(catalog.get("codec"))
    report["codec"] = catalog.get("codec")
    report["n_pages"] = n_pages
    report["physical_bytes"] = n_pages * page_size
    container_totals = report["containers"]

    wal_path = wal_path_for(path)
    if os.path.exists(wal_path):
        try:
            batches = WriteAheadLog.scan(wal_path)
        except StorageError as exc:
            finding("wal", str(exc))
            batches = []
        pending = [b for b in batches if b.pages or b.committed]
        if pending:
            report["wal_pending_batches"] = len(pending)
            raise_note = sum(1 for b in pending if not b.committed)
            finding(
                "wal",
                f"WAL holds {len(pending)} unapplied batch(es)"
                + (f", {raise_note} uncommitted" if raise_note else "")
                + " — open_store will recover them",
            )

    total_entries = 0
    unreadable_pages = 0
    with Pager.open_existing(path, page_size) as pager:
        for page_id in range(n_pages):
            data = pager.read_page_raw(page_id)
            try:
                verify_page_bytes(data, page_id)
            except PageCorruptionError as exc:
                finding("checksum", str(exc), page=page_id)
                report["corrupt_pages"].append(page_id)
                unreadable_pages += 1
                continue
            header = PageHeader.unpack(data)
            if header.n_entries > per_page:
                finding(
                    "header",
                    f"page {page_id}: header claims {header.n_entries} "
                    f"entries, capacity is {per_page}",
                    page=page_id,
                )
                report["corrupt_pages"].append(page_id)
                unreadable_pages += 1
                continue
            try:
                columns = page_format.decode_page_columns(data)
                per_container = page_format.container_report(data, columns)
            except PageFormatError as exc:
                finding(
                    "entry",
                    f"page {page_id}: container decode failed: {exc}",
                    page=page_id,
                )
                report["corrupt_pages"].append(page_id)
                unreadable_pages += 1
                continue
            for container, sizes in per_container.items():
                totals = container_totals[container]
                totals["physical_bytes"] += sizes["physical"]
                totals["logical_bytes"] += sizes["logical"]
                if sizes["codec"] not in totals["codecs"]:
                    totals["codecs"].append(sizes["codec"])
            for index, code in zip(columns.trans_offsets, columns.trans_codes):
                if code >= max(n_codes, 1):
                    finding(
                        "entry",
                        f"page {page_id} entry {index}: transition code "
                        f"{code} outside the codebook ({n_codes} codes)",
                        page=page_id,
                    )
            expected = columns.implied_header()
            if header != expected:
                finding(
                    "header",
                    f"page {page_id}: stored header {header} disagrees with "
                    f"its entries (implied {expected})",
                    page=page_id,
                )
            total_entries += columns.n
    report["checked_pages"] = n_pages
    report["logical_bytes"] = sum(
        totals["logical_bytes"] for totals in container_totals.values()
    )
    # Count drift is only an independent finding when every page was
    # parseable — otherwise it is just a consequence of the pages above.
    if not unreadable_pages and total_entries != catalog["n_nodes"]:
        finding(
            "count",
            f"pages hold {total_entries} entries but the catalog records "
            f"{catalog['n_nodes']}",
        )
    report["clean"] = not findings
    return report

"""Write-ahead logging for NoK store updates.

The paper's update story (Section 3.4, Proposition 1) is about *how few*
pages an accessibility update rewrites; this module makes those rewrites
survive a crash. Every store mutation runs as a WAL batch of
physiological records:

``BEGIN`` → one ``PAGE`` record per page write (page id + the page's
raw **before-image** and the stamped **after-image**) → ``COMMIT``
(carrying a JSON *catalog patch*: the catalog keys the batch changed,
which the sidecar catalog on disk does not yet reflect — the subject
count and codebook for an accessibility update, the whole catalog
state, texts, tags and counts included, for a structural one).

Ordering discipline: a ``PAGE`` record is appended **and fsynced before**
the corresponding data-page write reaches the page file (the WAL rule —
enforced by the buffer pool's write-back hook), and ``COMMIT`` is
appended and fsynced before the batch is considered durable. Recovery at
:func:`~repro.storage.persist.open_store` therefore sees one of three
states and maps each to a clean outcome:

- batches closed by a ``COMMIT``: **redo** — rewrite every after-image
  (idempotent; torn data pages are simply overwritten), then merge the
  catalog patches in log order;
- a trailing batch with no ``COMMIT``: **undo** — restore before-images
  in reverse order, returning the store to its pre-update state;
- a torn record at the tail (the crash hit the log itself): the record
  fails its CRC and is discarded along with everything after it; the
  data page it would have covered was never written, so undo of the
  parsed prefix suffices.

Each record carries its own CRC32, so a torn log write can never be
mistaken for a commit. Checkpointing is ``save_store``'s atomic catalog
rewrite followed by :meth:`WriteAheadLog.truncate` (itself atomic:
fresh file, fsync, ``os.replace``).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import WALError
from repro.storage.faults import FaultPlan, faulted_write

MAGIC = b"DOLWAL02"

REC_BEGIN = 1
REC_PAGE = 2
REC_COMMIT = 3

#: Record header: type (u8), payload length (u32), crc32 of type+payload.
_RECORD = struct.Struct("<BII")
#: PAGE payload prefix: page id (u32), page size (u32).
_PAGE_PREFIX = struct.Struct("<II")


def _record_crc(rtype: int, payload: bytes) -> int:
    return zlib.crc32(bytes([rtype]) + payload) & 0xFFFFFFFF


def _fsync_dir(path: str) -> None:
    """Make a directory entry change (create/replace) durable."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class WALBatch:
    """One parsed BEGIN..COMMIT group (COMMIT absent for the tail)."""

    pages: List[Tuple[int, bytes, bytes]] = field(default_factory=list)
    catalog_patch: Optional[Dict[str, object]] = None
    ops: List[Dict[str, object]] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.catalog_patch is not None


@dataclass
class RecoveryResult:
    """What a recovery pass did to the page file."""

    batches_replayed: int = 0
    pages_replayed: int = 0
    batches_rolled_back: int = 0
    pages_rolled_back: int = 0
    catalog_patch: Optional[Dict[str, object]] = None

    @property
    def acted(self) -> bool:
        return bool(self.batches_replayed or self.batches_rolled_back)


class WriteAheadLog:
    """Append-only, CRC-guarded log of page-level update batches."""

    def __init__(self, path: str, fault_plan: Optional[FaultPlan] = None):
        self.path = path
        self.fault_plan = fault_plan
        self._in_batch = False
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        # Unbuffered: after a simulated crash the file holds exactly the
        # bytes that were written, with no Python-level buffer to leak.
        self._file = open(path, "ab", buffering=0)
        if fresh:
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())

    # -- batch protocol --------------------------------------------------------

    @property
    def in_batch(self) -> bool:
        return self._in_batch

    def begin(self) -> None:
        """Open an update batch."""
        if self._in_batch:
            raise WALError("a WAL batch is already open")
        self._in_batch = True
        self._append(REC_BEGIN, b"")

    def log_page_write(self, page_id: int, before: bytes, after: bytes) -> None:
        """Log one physiological page record and force it to disk.

        ``before`` and ``after`` are full raw page images (trailer
        included). Must precede the data-page write it covers.
        """
        if not self._in_batch:
            raise WALError("log_page_write outside a WAL batch")
        if len(before) != len(after):
            raise WALError("before/after images differ in size")
        payload = _PAGE_PREFIX.pack(page_id, len(after)) + before + after
        self._append(REC_PAGE, payload)
        self.sync()

    def abort(self) -> None:
        """Drop the open batch marker (the log keeps the partial records).

        Recovery treats the commit-less records as an uncommitted tail
        and rolls their before-images back at the next open.
        """
        self._in_batch = False

    def commit(
        self,
        catalog_patch: Dict[str, object],
        ops: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        """Close the batch: append COMMIT with the catalog patch, fsync.

        ``catalog_patch`` holds only the catalog keys the batch changed;
        recovery applies the committed patches over the catalog in log
        order.
        """
        if not self._in_batch:
            raise WALError("commit outside a WAL batch")
        payload = json.dumps(
            {"catalog": catalog_patch, "ops": ops or []}
        ).encode("utf-8")
        self._append(REC_COMMIT, payload)
        self.sync()
        self._in_batch = False

    # -- file plumbing ---------------------------------------------------------

    def _append(self, rtype: int, payload: bytes) -> None:
        blob = _RECORD.pack(rtype, len(payload), _record_crc(rtype, payload)) + payload
        faulted_write(self.fault_plan, self._file.write, blob)

    def sync(self) -> None:
        """fsync the log (subject to the fault plan's sync faults)."""
        if self.fault_plan is not None and not self.fault_plan.on_sync():
            return
        self._file.flush()
        os.fsync(self._file.fileno())

    def truncate(self) -> None:
        """Checkpoint: atomically reset the log to just its magic header."""
        self._file.close()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(self.path)
        self._file = open(self.path, "ab", buffering=0)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def scan(path: str) -> List[WALBatch]:
        """Parse the log into batches, discarding any torn tail.

        The last batch may be uncommitted (``committed == False``). A
        record that fails its CRC, or a truncated record, ends the scan:
        everything from there on is treated as never written.
        """
        with open(path, "rb") as handle:
            blob = handle.read()
        if len(blob) < len(MAGIC):
            return []
        if blob[: len(MAGIC)] != MAGIC:
            raise WALError(f"{path}: bad WAL magic")
        batches: List[WALBatch] = []
        current: Optional[WALBatch] = None
        offset = len(MAGIC)
        while offset + _RECORD.size <= len(blob):
            rtype, length, crc = _RECORD.unpack_from(blob, offset)
            start = offset + _RECORD.size
            payload = blob[start : start + length]
            if len(payload) != length or _record_crc(rtype, payload) != crc:
                break  # torn tail: discard this record and everything after
            offset = start + length
            if rtype == REC_BEGIN:
                current = WALBatch()
                batches.append(current)
            elif rtype == REC_PAGE:
                if current is None or current.committed:
                    break  # stray record: treat as garbage tail
                page_id, page_size = _PAGE_PREFIX.unpack_from(payload, 0)
                images = payload[_PAGE_PREFIX.size :]
                if len(images) != 2 * page_size:
                    break
                current.pages.append(
                    (page_id, images[:page_size], images[page_size:])
                )
            elif rtype == REC_COMMIT:
                if current is None or current.committed:
                    break
                body = json.loads(payload.decode("utf-8"))
                current.catalog_patch = body.get("catalog", {})
                current.ops = body.get("ops", [])
            else:
                break  # unknown record type: garbage tail
        return batches

    @staticmethod
    def recover(wal_path: str, page_path: str) -> RecoveryResult:
        """Replay committed batches and roll back the uncommitted tail.

        Applies page images directly to ``page_path`` (extending it if an
        image lies past the current end), fsyncs it, and returns the
        merged catalog patch of every committed batch. The caller is
        responsible for persisting the patched catalog and truncating
        the log — in that order, so a crash during recovery just means
        recovery runs again.
        """
        result = RecoveryResult()
        if not os.path.exists(wal_path):
            return result
        batches = WriteAheadLog.scan(wal_path)
        if not batches:
            return result
        patch: Dict[str, object] = {}
        with open(page_path, "r+b") as handle:
            for batch in batches:
                if batch.committed:
                    for page_id, _before, after in batch.pages:
                        handle.seek(page_id * len(after))
                        handle.write(after)
                        result.pages_replayed += 1
                    patch.update(batch.catalog_patch)
                    result.batches_replayed += 1
                else:
                    for page_id, before, _after in reversed(batch.pages):
                        handle.seek(page_id * len(before))
                        handle.write(before)
                        result.pages_rolled_back += 1
                    result.batches_rolled_back += 1
            handle.flush()
            os.fsync(handle.fileno())
        if patch:
            result.catalog_patch = patch
        return result

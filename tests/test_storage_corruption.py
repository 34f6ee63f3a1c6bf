"""Corruption paths: detection on reopen, fsck findings, degraded queries."""

import json
import os

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.errors import PageCorruptionError, StorageError
from repro.nok.engine import QueryEngine
from repro.storage.faults import FaultPlan
from repro.storage.headers import HEADER_STRUCT
from repro.storage.nokstore import NoKStore
from repro.storage.persist import (
    catalog_path_for,
    fsck_store,
    open_store,
    save_store,
)
from repro.xmark.generator import XMarkConfig, generate_document

PAGE_SIZE = 512


@pytest.fixture
def saved(tmp_path):
    doc = generate_document(XMarkConfig(n_items=30, seed=7))
    matrix = generate_synthetic_acl(
        doc, SyntheticACLConfig(accessibility_ratio=0.7, seed=3), n_subjects=2
    )
    dol = DOL.from_matrix(matrix)
    path = str(tmp_path / "store.db")
    store = NoKStore(doc, dol, path=path, page_size=PAGE_SIZE)
    save_store(store)
    store.close()
    return path


def flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestDetectionOnOpen:
    def test_bit_flipped_body_raises(self, saved):
        flip_byte(saved, 2 * PAGE_SIZE + 40)  # inside page 2's entries
        with pytest.raises(PageCorruptionError) as excinfo:
            open_store(saved)
        assert excinfo.value.page_id == 2

    def test_stale_header_detected(self, saved):
        """A header rewritten without its entries must fail the reopen.

        The trailer is re-stamped so the page *checksums* correctly —
        this is the header/entry agreement check, not the CRC.
        """
        with open(saved, "r+b") as handle:
            page = bytearray(handle.read(PAGE_SIZE))
            first_code, change, n_entries = HEADER_STRUCT.unpack_from(page, 0)
            HEADER_STRUCT.pack_into(page, 0, first_code ^ 1, change, n_entries)
            from repro.storage.pager import stamp_page

            handle.seek(0)
            handle.write(stamp_page(bytes(page)))
        with pytest.raises(StorageError) as excinfo:
            open_store(saved)
        assert "header" in str(excinfo.value)

    def test_truncated_page_file(self, saved):
        with open(saved, "r+b") as handle:
            handle.truncate(PAGE_SIZE)
        with pytest.raises(StorageError):
            open_store(saved)

    def test_ragged_page_file(self, saved):
        with open(saved, "r+b") as handle:
            handle.truncate(PAGE_SIZE + 100)
        with pytest.raises(StorageError):
            open_store(saved)

    def test_catalog_page_file_disagreement(self, saved):
        catalog_file = catalog_path_for(saved)
        with open(catalog_file) as handle:
            catalog = json.load(handle)
        catalog["n_pages"] = catalog["n_pages"] + 5
        with open(catalog_file, "w") as handle:
            json.dump(catalog, handle)
        with pytest.raises(StorageError) as excinfo:
            open_store(saved)
        assert "page" in str(excinfo.value)

    def test_garbled_catalog_json(self, saved):
        with open(catalog_path_for(saved), "w") as handle:
            handle.write("{not json")
        with pytest.raises(StorageError):
            open_store(saved)

    def test_bit_flip_on_read_path(self, saved):
        """A read-side flip (bad cable, bad RAM) is caught by the CRC."""
        plan = FaultPlan(flip_bit_at_read=2, seed=11)
        with pytest.raises(PageCorruptionError):
            open_store(saved, fault_plan=plan)


class TestFsck:
    def test_clean_store(self, saved):
        assert fsck_store(saved) == []

    def test_bit_flip_reported(self, saved):
        flip_byte(saved, PAGE_SIZE + 30)
        findings = fsck_store(saved)
        assert len(findings) == 1
        assert "page 1" in findings[0]

    def test_fsck_reports_every_bad_page(self, saved):
        flip_byte(saved, 0 * PAGE_SIZE + 30)
        flip_byte(saved, 3 * PAGE_SIZE + 30)
        findings = fsck_store(saved)
        assert len(findings) == 2

    def test_missing_catalog(self, saved):
        os.remove(catalog_path_for(saved))
        findings = fsck_store(saved)
        assert findings and "catalog" in findings[0]

    def test_pending_wal_reported(self, saved):
        from repro.storage.nokstore import wal_path_for
        from repro.storage.wal import WriteAheadLog

        with WriteAheadLog(wal_path_for(saved)) as wal:
            wal.begin()
            page = open(saved, "rb").read(PAGE_SIZE)
            wal.log_page_write(0, page, page)
            wal.commit({})
        findings = fsck_store(saved)
        assert any("WAL" in finding for finding in findings)


class TestDegradedQueries:
    """Corruption discovered *mid-query*: the disk rots under an open store.

    ``open_store`` reads every page up front, so the scenario is staged
    by opening the store while clean, flipping a byte in the page file
    behind its back, and dropping the caches — the next page read hits
    the corrupted bytes.
    """

    def _open_with_rot(self, path):
        store = open_store(path)
        engine = QueryEngine(store.doc, labeling=store.labeling, store=store)
        # Pick the page of an answer subject 0 can actually see, so the
        # corruption provably removes results.
        clean = QueryEngine(store.doc, labeling=store.labeling).evaluate(
            "//item", subject=0
        )
        page_id = store.page_of(clean.positions[0])
        flip_byte(path, page_id * PAGE_SIZE + 40)
        store.drop_caches()
        return store, engine, page_id, clean

    def test_strict_query_raises(self, saved):
        store, engine, _page_id, _clean = self._open_with_rot(saved)
        with pytest.raises(PageCorruptionError):
            engine.evaluate("//item", subject=0)
        store.close()

    def test_lenient_query_skips_and_reports(self, saved):
        store, engine, page_id, clean = self._open_with_rot(saved)
        result = engine.evaluate("//item", subject=0, strict=False)
        assert page_id in result.stats.corrupted_pages
        assert result.stats.candidates_skipped_corrupt >= 1
        assert page_id in store.quarantined
        # the readable remainder is still answered
        lost = {
            pos for pos in clean.positions if store.page_of(pos) == page_id
        }
        assert lost  # the corrupt page did hold answers
        assert set(result.positions) == set(clean.positions) - lost
        store.close()

    def test_stats_dict_reports_corruption(self, saved):
        store, engine, page_id, _clean = self._open_with_rot(saved)
        result = engine.evaluate("//item", subject=0, strict=False)
        report = result.stats.as_dict()
        assert report["corrupted_pages"] == [page_id]
        assert report["candidates_skipped_corrupt"] >= 1
        store.close()

    def test_quarantined_page_skipped_without_reread(self, saved):
        store, engine, page_id, _clean = self._open_with_rot(saved)
        engine.evaluate("//item", subject=0, strict=False)
        assert page_id in store.quarantined
        store.pager.stats.reset()
        result = engine.evaluate("//item", subject=0, strict=False)
        # second run: the quarantine set short-circuits at the page-skip
        # scan, before any physical read of the bad page
        assert result.stats.candidates_skipped_corrupt >= 1
        store.close()


class TestCorruptionError:
    def test_carries_digests(self):
        exc = PageCorruptionError(5, expected=0x1234, actual=0x5678)
        assert exc.page_id == 5
        assert "0x00001234" in str(exc)
        assert "0x00005678" in str(exc)

    def test_is_storage_error(self):
        assert issubclass(PageCorruptionError, StorageError)

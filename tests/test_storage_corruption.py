"""Corruption paths: detection on reopen, fsck findings, degraded queries."""

import json
import os
import struct

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.errors import PageCorruptionError, StorageError
from repro.nok.engine import QueryEngine
from repro.storage.codecs import CODEC_NAMES, decode_container
from repro.storage.faults import FaultPlan
from repro.storage.headers import HEADER_SIZE, HEADER_STRUCT
from repro.storage.nokstore import NoKStore
from repro.storage.persist import (
    catalog_path_for,
    fsck_report,
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


def _containers_by_full_decode(path, n_pages, skip):
    """Per-container totals found by decompressing every container outright.

    The independent oracle for ``fsck_report``'s container block: each
    readable v3 page's codec header (``<BBII``: structure codec, codes
    codec, their blob lengths) is parsed here and both blobs decoded.
    """
    totals = {
        name: {"physical_bytes": 0, "logical_bytes": 0, "codecs": []}
        for name in ("structure", "codes")
    }
    with open(path, "rb") as handle:
        data = handle.read()
    for page_id in range(n_pages):
        if page_id in skip:
            continue
        page = data[page_id * PAGE_SIZE : (page_id + 1) * PAGE_SIZE]
        s_id, c_id, s_len, c_len = struct.unpack_from("<BBII", page, HEADER_SIZE)
        start = HEADER_SIZE + struct.calcsize("<BBII")
        blobs = (
            ("structure", s_id, page[start : start + s_len]),
            ("codes", c_id, page[start + s_len : start + s_len + c_len]),
        )
        for name, codec_id, blob in blobs:
            entry = totals[name]
            entry["physical_bytes"] += len(blob)
            entry["logical_bytes"] += len(decode_container(codec_id, blob))
            if CODEC_NAMES[codec_id] not in entry["codecs"]:
                entry["codecs"].append(CODEC_NAMES[codec_id])
    return totals


class TestFsckReportShape:
    """``fsck_report`` decodes each page once; its report must not change.

    The container block (physical vs logical bytes) is taken from the one
    column decode of each page. It must equal what decompressing every
    container outright gives, on a clean store, a store with a flipped
    byte and a truncated store, with every other key of the report as
    before.
    """

    KEYS = {
        "store", "catalog", "checked_pages", "corrupt_pages",
        "wal_pending_batches", "codec", "n_pages", "physical_bytes",
        "logical_bytes", "containers", "findings", "clean",
    }

    @pytest.mark.parametrize("codec", ("zlib", "structure-delta"))
    @pytest.mark.parametrize("damage", ("clean", "bit-flip", "truncated"))
    def test_report_equals_a_full_container_decode(self, tmp_path, codec, damage):
        doc = generate_document(XMarkConfig(n_items=30, seed=7))
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(accessibility_ratio=0.7, seed=3), n_subjects=2
        )
        path = str(tmp_path / "store.db")
        store = NoKStore(
            doc, DOL.from_matrix(matrix), path=path, page_size=PAGE_SIZE,
            codec=codec,
        )
        save_store(store)
        n_pages = store.n_pages
        store.close()
        if damage == "bit-flip":
            flip_byte(path, 2 * PAGE_SIZE + 40)
        elif damage == "truncated":
            with open(path, "r+b") as handle:
                handle.truncate((n_pages - 1) * PAGE_SIZE + 100)

        report = fsck_report(path)

        assert set(report) == self.KEYS
        kinds = [finding["kind"] for finding in report["findings"]]
        if damage == "truncated":
            # the page file disagrees with the catalog: nothing else checked
            assert kinds == ["catalog"] and report["checked_pages"] == 0
            assert report["logical_bytes"] == 0
            return
        skip = {2} if damage == "bit-flip" else set()
        assert report["corrupt_pages"] == sorted(skip)
        assert kinds == ["checksum"] * len(skip)
        assert report["clean"] == (not skip)
        assert report["checked_pages"] == report["n_pages"] == n_pages
        expected = _containers_by_full_decode(path, n_pages, skip)
        assert report["containers"] == expected
        assert report["logical_bytes"] == sum(
            entry["logical_bytes"] for entry in expected.values()
        )
        assert report["physical_bytes"] == n_pages * PAGE_SIZE


class TestDegradedQueries:
    """Corruption discovered *mid-query*: the disk rots under an open store.

    ``open_store`` reads every page up front, so the scenario is staged
    by opening the store while clean, flipping a byte in the page file
    behind its back, and dropping the caches — the next page read hits
    the corrupted bytes. The query is one whose matcher reads the pages
    of its candidates (``[name]`` walks each item's children): a plan
    reads no page it does not need, so a bare ``//item`` reads none.
    """

    QUERY = "//item[name]"

    def _open_with_rot(self, path):
        store = open_store(path)
        engine = QueryEngine(store.doc, labeling=store.labeling, store=store)
        # Pick the page of an answer subject 0 can actually see, so the
        # corruption provably removes results.
        clean = QueryEngine(store.doc, labeling=store.labeling).evaluate(
            self.QUERY, subject=0
        )
        page_id = store.page_of(clean.positions[0])
        flip_byte(path, page_id * PAGE_SIZE + 40)
        store.drop_caches()
        return store, engine, page_id, clean

    def test_strict_query_raises(self, saved):
        store, engine, _page_id, _clean = self._open_with_rot(saved)
        with pytest.raises(PageCorruptionError):
            engine.evaluate(self.QUERY, subject=0)
        store.close()

    def test_lenient_query_skips_and_reports(self, saved):
        store, engine, page_id, clean = self._open_with_rot(saved)
        result = engine.evaluate(self.QUERY, subject=0, strict=False)
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
        result = engine.evaluate(self.QUERY, subject=0, strict=False)
        report = result.stats.as_dict()
        assert report["corrupted_pages"] == [page_id]
        assert report["candidates_skipped_corrupt"] >= 1
        store.close()

    def test_quarantined_page_skipped_without_reread(self, saved):
        store, engine, page_id, _clean = self._open_with_rot(saved)
        engine.evaluate(self.QUERY, subject=0, strict=False)
        assert page_id in store.quarantined
        store.pager.stats.reset()
        result = engine.evaluate(self.QUERY, subject=0, strict=False)
        # second run: the store refuses the quarantined page to the
        # matcher before any physical read of the bad page
        assert result.stats.candidates_skipped_corrupt >= 1
        store.close()

    def test_quarantined_page_answers_degraded(self, saved):
        # no rot at all: a page merely held in quarantine is refused to
        # the one operator that reads it, and the answer says so
        store = open_store(saved)
        engine = QueryEngine(store.doc, labeling=store.labeling, store=store)
        clean = engine.evaluate(self.QUERY, subject=0)
        page_id = store.page_of(clean.positions[0])
        store.quarantine(page_id)
        result = engine.evaluate(self.QUERY, subject=0, strict=False)
        assert result.stats.corrupted_pages == [page_id]
        assert set(result.positions) < set(clean.positions)
        assert clean.positions[0] not in result.positions
        store.close()


class TestCorruptionError:
    def test_carries_digests(self):
        exc = PageCorruptionError(5, expected=0x1234, actual=0x5678)
        assert exc.page_id == 5
        assert "0x00001234" in str(exc)
        assert "0x00005678" in str(exc)

    def test_is_storage_error(self):
        assert issubclass(PageCorruptionError, StorageError)

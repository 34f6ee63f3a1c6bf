"""Unit tests for the write-ahead log: format, scan, redo/undo."""

import os

import pytest

from repro.errors import WALError
from repro.storage.wal import MAGIC, WALBatch, WriteAheadLog

PAGE = 64


def image(fill: int) -> bytes:
    return bytes([fill]) * PAGE


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "store.db.wal")


class TestBatchProtocol:
    def test_fresh_log_has_magic(self, wal_path):
        with WriteAheadLog(wal_path):
            pass
        with open(wal_path, "rb") as handle:
            assert handle.read() == MAGIC

    def test_page_outside_batch_rejected(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            with pytest.raises(WALError):
                wal.log_page_write(0, image(1), image(2))

    def test_commit_outside_batch_rejected(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            with pytest.raises(WALError):
                wal.commit({})

    def test_nested_begin_rejected(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            with pytest.raises(WALError):
                wal.begin()

    def test_mismatched_images_rejected(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            with pytest.raises(WALError):
                wal.log_page_write(0, image(1), image(2) + b"x")


class TestScan:
    def test_committed_batch_roundtrip(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            wal.log_page_write(3, image(1), image(2))
            wal.log_page_write(4, image(3), image(4))
            wal.commit({"n_nodes": 7}, ops=[{"op": "test"}])
        batches = WriteAheadLog.scan(wal_path)
        assert len(batches) == 1
        batch = batches[0]
        assert batch.committed
        assert batch.pages == [(3, image(1), image(2)), (4, image(3), image(4))]
        assert batch.catalog_patch == {"n_nodes": 7}
        assert batch.ops == [{"op": "test"}]

    def test_uncommitted_tail_is_parsed(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            wal.log_page_write(0, image(5), image(6))
            wal.abort()
        batches = WriteAheadLog.scan(wal_path)
        assert len(batches) == 1
        assert not batches[0].committed
        assert batches[0].pages == [(0, image(5), image(6))]

    def test_torn_tail_discarded(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            wal.log_page_write(0, image(1), image(2))
            wal.commit({})
        # chop bytes off the commit record: its CRC must fail
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(size - 3)
        batches = WriteAheadLog.scan(wal_path)
        assert len(batches) == 1
        assert not batches[0].committed  # commit no longer counts

    def test_corrupt_record_ends_scan(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            wal.log_page_write(0, image(1), image(2))
            wal.commit({})
            wal.begin()
            wal.log_page_write(1, image(3), image(4))
            wal.commit({})
        # flip one byte inside the second batch's page record
        with open(wal_path, "r+b") as handle:
            data = bytearray(handle.read())
            data[-PAGE - 20] ^= 0xFF
            handle.seek(0)
            handle.write(data)
        batches = WriteAheadLog.scan(wal_path)
        assert len(batches) >= 1
        assert batches[0].committed  # first batch unaffected

    def test_bad_magic_rejected(self, wal_path):
        with open(wal_path, "wb") as handle:
            handle.write(b"NOTAWAL!")
        with pytest.raises(WALError):
            WriteAheadLog.scan(wal_path)


class TestRecover:
    def _page_file(self, tmp_path, n_pages=4):
        path = str(tmp_path / "store.db")
        with open(path, "wb") as handle:
            for fill in range(n_pages):
                handle.write(image(10 + fill))
        return path

    def test_committed_batch_is_redone(self, tmp_path, wal_path):
        page_path = self._page_file(tmp_path)
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            wal.log_page_write(1, image(11), image(99))
            wal.commit({"n_nodes": 42})
        result = WriteAheadLog.recover(wal_path, page_path)
        assert result.batches_replayed == 1
        assert result.pages_replayed == 1
        assert result.catalog_patch == {"n_nodes": 42}
        with open(page_path, "rb") as handle:
            data = handle.read()
        assert data[PAGE : 2 * PAGE] == image(99)

    def test_uncommitted_tail_is_rolled_back(self, tmp_path, wal_path):
        page_path = self._page_file(tmp_path)
        # simulate: page 2 was overwritten, then the process died pre-commit
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            wal.log_page_write(2, image(12), image(77))
            wal.abort()
        with open(page_path, "r+b") as handle:
            handle.seek(2 * PAGE)
            handle.write(image(77))
        result = WriteAheadLog.recover(wal_path, page_path)
        assert result.batches_rolled_back == 1
        assert result.pages_rolled_back == 1
        assert result.catalog_patch is None
        with open(page_path, "rb") as handle:
            data = handle.read()
        assert data[2 * PAGE : 3 * PAGE] == image(12)  # before-image restored

    def test_recovery_is_idempotent(self, tmp_path, wal_path):
        page_path = self._page_file(tmp_path)
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            wal.log_page_write(0, image(10), image(55))
            wal.commit({})
        WriteAheadLog.recover(wal_path, page_path)
        WriteAheadLog.recover(wal_path, page_path)  # running twice is safe
        with open(page_path, "rb") as handle:
            assert handle.read(PAGE) == image(55)

    def test_no_wal_is_a_noop(self, tmp_path):
        page_path = self._page_file(tmp_path)
        result = WriteAheadLog.recover(str(tmp_path / "absent.wal"), page_path)
        assert not result.acted

    def test_truncate_resets_to_magic(self, tmp_path, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.begin()
            wal.log_page_write(0, image(1), image(2))
            wal.commit({})
            wal.truncate()
            assert os.path.getsize(wal_path) == len(MAGIC)
            # the log is still usable after the checkpoint
            wal.begin()
            wal.log_page_write(1, image(3), image(4))
            wal.commit({})
        assert len(WriteAheadLog.scan(wal_path)) == 1


class TestBatchDataclass:
    def test_committed_property(self):
        assert not WALBatch().committed
        assert WALBatch(catalog_patch={}).committed


# -- commit records of a store --------------------------------------------------
#
# An ACL update commits only what it can change (the codebook and the
# subject count); a structural update commits the whole catalog state.
# Recovery merges commit patches in log order. These tests use pytest
# alone, so the fault-injection CI job can run them.

STORE_PAGE = 512
N_SUBJECTS = 8


def _saved_store(tmp_path, n_items, text_scale=1):
    """A saved store; ``text_scale`` repeats every node's text that often."""
    from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
    from repro.dol.labeling import DOL
    from repro.storage.nokstore import NoKStore
    from repro.storage.persist import save_store
    from repro.xmark.generator import XMarkConfig, generate_document
    from repro.xmltree.document import Document

    doc = generate_document(XMarkConfig(n_items=n_items, seed=3))
    matrix = generate_synthetic_acl(
        doc, SyntheticACLConfig(accessibility_ratio=0.7, seed=4), n_subjects=N_SUBJECTS
    )
    if text_scale > 1:
        doc = Document(
            doc.tags, doc.parent, doc.subtree, doc.depth,
            [text * text_scale for text in doc.texts], doc.tag_dict, doc.attrs,
        )
    path = str(tmp_path / f"store-{n_items}-{text_scale}.db")
    store = NoKStore(doc, DOL.from_matrix(matrix), path=path, page_size=STORE_PAGE)
    save_store(store)
    return store


def _commits(store):
    from repro.storage.nokstore import wal_path_for

    return WriteAheadLog.scan(wal_path_for(store.pager.path))


def _wal_bytes_of_one_update(tmp_path, n_items, text_scale=1):
    from repro.storage.nokstore import wal_path_for

    store = _saved_store(tmp_path, n_items, text_scale)
    wal = wal_path_for(store.pager.path)
    before = os.path.getsize(wal)
    # one node in the middle of a page: a one-page rewrite
    pos = store.entries_per_page * (store.n_pages // 2) + store.entries_per_page // 2
    store.update_subject_range(pos, pos + 1, 0, not store.labeling.accessible(0, pos))
    written = os.path.getsize(wal) - before
    store.close()
    return written


def _crash(store):
    """Drop the store's file handles without flushing: the power cut."""
    store.pager._file.close()
    store.wal._file.close()


class TestStoreCommitRecords:
    def test_acl_commit_patch_holds_only_the_codebook(self, tmp_path):
        store = _saved_store(tmp_path, 10)
        store.update_subject_range(5, 40, 1, False)
        (batch,) = _commits(store)
        assert batch.committed
        assert set(batch.catalog_patch) == {"n_subjects", "codebook"}
        assert batch.catalog_patch["codebook"] == [
            f"{mask:x}" for _code, mask in store.labeling.codebook.entries()
        ]
        assert [op["op"] for op in batch.ops] == ["transform_range"]
        store.close()

    def test_structural_commit_patch_holds_the_catalog_state(self, tmp_path):
        from repro.secure.secured import SecuredDocument
        from repro.xmltree.builder import tree

        store = _saved_store(tmp_path, 10)
        secured = SecuredDocument(store.doc, store.labeling, store)
        secured.insert_subtree(0, 0, tree(("note", "added")), [0b1])
        (batch,) = _commits(store)
        assert batch.catalog_patch == store.catalog_state()
        store.close()

    @pytest.mark.parametrize("n_items", [10, 120])
    def test_acl_wal_bytes_do_not_grow_with_document_text(self, tmp_path, n_items):
        plain = _wal_bytes_of_one_update(tmp_path, n_items)
        wordy = _wal_bytes_of_one_update(tmp_path, n_items, text_scale=50)
        assert plain < 3 * STORE_PAGE + 8192
        assert wordy == plain

    def test_structural_then_acl_commit_recover_in_order(self, tmp_path):
        from repro.dol.labeling import DOL
        from repro.nok.engine import QueryEngine
        from repro.secure.secured import SecuredDocument
        from repro.storage.persist import open_store
        from repro.xmltree.builder import tree

        store = _saved_store(tmp_path, 12)
        path = store.pager.path
        twin_dol = DOL.from_masks(store.labeling.to_masks(), N_SUBJECTS)
        twin = SecuredDocument(store.doc, twin_dol)
        secured = SecuredDocument(store.doc, store.labeling, store)
        codebook = store.labeling.codebook
        new_mask = next(m for m in range(1 << N_SUBJECTS) if m not in codebook)
        for target in (secured, twin):
            subtree = tree(("annotation", ("note", "recovered"), ("note", "second")))
            target.insert_subtree(0, 1, subtree, [0b1, 0b11, 0b1])
            target.set_node_mask(target.doc.subtree_end(1) + 2, new_mask)
        patches = [batch.catalog_patch for batch in _commits(store)]
        assert ["texts" in patch for patch in patches] == [True, False]
        expected_codebook = list(codebook.entries())
        _crash(store)  # no checkpoint: both batches live only in the WAL

        with open_store(path) as reopened:
            assert reopened.last_recovery["batches_replayed"] == 2
            reopened.verify()
            doc = reopened.doc
            assert doc.texts == twin.doc.texts
            assert list(doc.tags) == list(twin.doc.tags)
            assert [doc.tag_dict.name_of(i) for i in range(len(doc.tag_dict))] == [
                twin.doc.tag_dict.name_of(i) for i in range(len(twin.doc.tag_dict))
            ]
            assert list(reopened.labeling.codebook.entries()) == expected_codebook
            assert reopened.labeling.to_masks() == twin.labeling.to_masks()
            stored = QueryEngine(doc, labeling=reopened.labeling, store=reopened)
            memory = QueryEngine(twin.doc, labeling=twin.labeling)
            queries = ("//item[name]", "//annotation/note", "//*", "//site//keyword")
            for query in queries:
                for subject in range(N_SUBJECTS):
                    assert (
                        stored.evaluate(query, subject=subject).positions
                        == memory.evaluate(query, subject=subject).positions
                    ), (query, subject)

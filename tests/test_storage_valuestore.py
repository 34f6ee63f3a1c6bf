"""Unit tests for the paged value store."""

import pytest

from repro.errors import StorageError
from repro.storage.valuestore import ValueStore


class TestBasics:
    def test_roundtrip(self):
        texts = ["hello", "", "world", "x" * 50, ""]
        store = ValueStore(texts, page_size=64)
        assert [store.text(i) for i in range(5)] == texts

    def test_unicode(self):
        store = ValueStore(["héllo", "世界"], page_size=64)
        assert store.text(0) == "héllo"
        assert store.text(1) == "世界"

    def test_empty_values_cost_nothing(self):
        store = ValueStore(["", "", ""], page_size=64)
        store.reset_io_stats()
        assert store.text(1) == ""
        assert store.buffer.stats.logical_reads == 0

    def test_out_of_range(self):
        store = ValueStore(["a"], page_size=64)
        with pytest.raises(StorageError):
            store.text(5)

    def test_value_too_large_rejected(self):
        with pytest.raises(StorageError):
            ValueStore(["y" * 100], page_size=64)


class TestPaging:
    def test_records_never_split_across_pages(self):
        # 40-byte records on 64-byte pages: one record per page.
        texts = ["a" * 40, "b" * 40, "c" * 40]
        store = ValueStore(texts, page_size=64)
        assert store.n_pages == 3
        assert [store.text(i) for i in range(3)] == texts

    def test_small_records_share_pages(self):
        texts = ["ab"] * 20
        store = ValueStore(texts, page_size=64)
        assert store.n_pages == 1

    def test_io_accounted(self):
        texts = [f"value-{i}" * 3 for i in range(50)]
        store = ValueStore(texts, page_size=64, buffer_capacity=2)
        store.buffer.clear()
        store.reset_io_stats()
        for pos in range(50):
            store.text(pos)
        assert store.pager.stats.reads >= store.n_pages - 1
        # document-order locality: far fewer reads than accesses
        assert store.pager.stats.reads < 50

    def test_slot_table_footprint(self):
        store = ValueStore(["x"] * 100, page_size=64)
        assert store.slot_table_bytes() == 1200

    def test_file_backed(self, tmp_path):
        path = str(tmp_path / "values.db")
        with ValueStore(["persist me"], path=path, page_size=64) as store:
            assert store.text(0) == "persist me"


class TestNoKStoreIntegration:
    def test_paged_values_in_store(self, small_doc):
        from repro.dol.labeling import DOL
        from repro.storage.nokstore import NoKStore

        dol = DOL.from_masks([1] * len(small_doc), 1)
        store = NoKStore(small_doc, dol, page_size=96, paged_values=True)
        assert store.text(2) == "anvil"
        assert store.text(5) == "hammer"
        assert store.values is not None
        assert store.values.buffer.stats.logical_reads > 0

    def test_query_through_paged_values(self, small_doc):
        from repro.acl.model import AccessMatrix
        from repro.dol.labeling import DOL
        from repro.nok.engine import QueryEngine
        from repro.storage.nokstore import NoKStore

        matrix = AccessMatrix(len(small_doc), 1)
        matrix.grant_range(0, 0, len(small_doc))
        dol = DOL.from_matrix(matrix)
        store = NoKStore(small_doc, dol, page_size=96, paged_values=True)
        engine = QueryEngine(small_doc, labeling=dol, store=store)
        result = engine.evaluate('/site/item[name = "anvil"]', subject=0)
        assert result.n_answers == 1

"""Tests for saving and reopening a NoKStore."""

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.errors import StorageError
from repro.storage.nokstore import NoKStore
from repro.storage.persist import catalog_path_for, open_store, save_store
from repro.xmark.generator import XMarkConfig, generate_document


@pytest.fixture
def saved(tmp_path):
    doc = generate_document(XMarkConfig(n_items=40, seed=13))
    matrix = generate_synthetic_acl(
        doc, SyntheticACLConfig(accessibility_ratio=0.6, seed=2), n_subjects=3
    )
    dol = DOL.from_matrix(matrix)
    path = str(tmp_path / "store.db")
    store = NoKStore(doc, dol, path=path, page_size=512)
    save_store(store)
    store.close()
    return path, doc, dol


class TestRoundTrip:
    def test_document_reconstructed(self, saved):
        path, doc, _dol = saved
        store = open_store(path)
        assert store.n_nodes == len(doc)
        for pos in range(0, len(doc), 7):
            assert store.tag_name(pos) == doc.tag_name(pos)
            assert store.text(pos) == doc.text(pos)
            assert store.entry(pos).subtree == doc.subtree[pos]
        store.close()

    def test_dol_reconstructed(self, saved):
        path, _doc, dol = saved
        store = open_store(path)
        assert store.labeling.to_masks() == dol.to_masks()
        assert store.labeling.n_transitions == dol.n_transitions
        assert len(store.labeling.codebook) == len(dol.codebook)
        store.close()

    def test_navigation_after_reopen(self, saved):
        path, doc, _dol = saved
        store = open_store(path)
        for pos in range(0, len(doc), 11):
            assert store.first_child(pos) == doc.first_child(pos)
            assert store.following_sibling(pos) == doc.following_sibling(pos)
        store.close()

    def test_queries_after_reopen(self, saved):
        from repro.nok.engine import QueryEngine

        path, doc, dol = saved
        store = open_store(path)
        engine = QueryEngine(store.doc, labeling=store.labeling, store=store)
        reopened = engine.evaluate("//item//emph", subject=1)

        original_engine = QueryEngine(doc, labeling=dol)
        original = original_engine.evaluate("//item//emph", subject=1)
        assert reopened.positions == original.positions
        store.close()

    def test_updates_after_reopen_persist(self, saved):
        path, _doc, _dol = saved
        store = open_store(path)
        store.update_subject_range(0, store.n_nodes, 2, True)
        save_store(store)
        store.close()

        again = open_store(path)
        assert all(
            again.accessible(2, pos) for pos in range(0, again.n_nodes, 13)
        )
        again.close()


class TestErrors:
    def test_memory_store_cannot_save(self):
        from repro.xmltree.builder import tree
        from repro.xmltree.document import Document

        doc = Document.from_tree(tree(("a", ("b",))))
        store = NoKStore(doc, DOL.from_masks([1, 1], 1), page_size=96)
        with pytest.raises(StorageError):
            save_store(store)

    def test_missing_catalog(self, saved, tmp_path):
        path, _doc, _dol = saved
        import os

        os.remove(catalog_path_for(path))
        with pytest.raises(StorageError):
            open_store(path)

    def test_corrupt_catalog_version(self, saved):
        import json

        path, _doc, _dol = saved
        catalog_file = catalog_path_for(path)
        with open(catalog_file) as handle:
            catalog = json.load(handle)
        catalog["version"] = 99
        with open(catalog_file, "w") as handle:
            json.dump(catalog, handle)
        with pytest.raises(StorageError):
            open_store(path)

    def test_truncated_page_file(self, saved):
        path, _doc, _dol = saved
        with open(path, "r+b") as handle:
            handle.truncate(512)  # keep one page only
        with pytest.raises(StorageError):
            open_store(path)


class TestCodecRoundTrip:
    """Compressed (v3) stores and untagged (pre-codec) catalogs."""

    @pytest.fixture(params=["zlib", "structure-delta"])
    def saved_compressed(self, request, tmp_path):
        doc = generate_document(XMarkConfig(n_items=40, seed=13))
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(accessibility_ratio=0.6, seed=2),
            n_subjects=3,
        )
        dol = DOL.from_matrix(matrix)
        path = str(tmp_path / "store.db")
        store = NoKStore(
            doc, dol, path=path, page_size=512, codec=request.param
        )
        save_store(store)
        store.close()
        return path, doc, dol, request.param

    def test_codec_and_density_in_catalog(self, saved_compressed):
        import json

        path, _doc, _dol, codec = saved_compressed
        with open(catalog_path_for(path)) as handle:
            catalog = json.load(handle)
        expected_structure = "zlib" if codec == "zlib" else "structure-delta"
        assert catalog["codec"] == {
            "structure": expected_structure, "codes": "zlib",
        }
        assert catalog["entries_per_page"] >= 1

    def test_reopened_equals_document(self, saved_compressed):
        path, doc, dol, codec = saved_compressed
        with open_store(path) as store:
            assert store.page_format.compressed
            for pos in range(len(doc)):
                assert store.tag_name(pos) == doc.tag_name(pos)
                assert store.first_child(pos) == doc.first_child(pos)
                assert store.subtree_end(pos) == doc.subtree_end(pos)
                for subject in range(3):
                    assert store.accessible(subject, pos) == dol.accessible(
                        subject, pos
                    )

    def test_updates_after_reopen_persist(self, saved_compressed):
        path, _doc, _dol, _codec = saved_compressed
        store = open_store(path)
        store.update_subject_range(5, 60, 1, False)
        save_store(store)
        store.close()
        with open_store(path) as reopened:
            assert reopened.page_format.compressed
            for pos in range(5, 60):
                assert not reopened.accessible(1, pos)
            reopened.verify()

    def test_untagged_catalog_opens_as_plain(self, saved):
        """A pre-codec catalog (no codec/entries_per_page keys) must open
        byte-identically through the plain v2 format."""
        import json

        path, doc, _dol = saved
        catalog_file = catalog_path_for(path)
        with open(catalog_file) as handle:
            catalog = json.load(handle)
        assert "codec" not in catalog
        assert "entries_per_page" not in catalog
        with open_store(path) as store:
            assert not store.page_format.compressed
            assert store.tag_name(0) == doc.tag_name(0)

    def test_compressed_store_is_smaller(self, saved_compressed, tmp_path):
        import os

        path, doc, dol, _codec = saved_compressed
        plain_path = str(tmp_path / "plain.db")
        store = NoKStore(doc, dol, path=plain_path, page_size=512)
        save_store(store)
        store.close()
        assert os.path.getsize(path) < os.path.getsize(plain_path)

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

    def test_reopen_rebuilds_arrays_and_transitions_exactly(
        self, saved_compressed
    ):
        path, doc, dol, _codec = saved_compressed
        with open_store(path) as store:
            assert store.doc.tags == doc.tags
            assert store.doc.depth == doc.depth
            assert store.doc.subtree == doc.subtree
            assert store.doc.parent == doc.parent
            assert store.labeling.positions == dol.positions
            assert store.labeling.codes == dol.codes

    @pytest.mark.parametrize("field", ["first_code", "change_bit"])
    def test_stale_header_fails_open_and_fsck(self, saved_compressed, field):
        """A page header re-stamped without its body must fail the reopen
        and show in fsck: the check reads the decoded columns."""
        from repro.storage.headers import HEADER_STRUCT
        from repro.storage.pager import stamp_page
        from repro.storage.persist import fsck_store

        path, _doc, _dol, _codec = saved_compressed
        with open(path, "r+b") as handle:
            page = bytearray(handle.read(512))
            first_code, change, n_entries = HEADER_STRUCT.unpack_from(page, 0)
            if field == "first_code":
                first_code ^= 1
            else:
                change ^= 1
            HEADER_STRUCT.pack_into(page, 0, first_code, change, n_entries)
            handle.seek(0)
            handle.write(stamp_page(bytes(page)))
        with pytest.raises(StorageError, match="page 0: stored header"):
            open_store(path)
        findings = fsck_store(path)
        assert any("page 0: stored header" in f for f in findings)

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


def _edit_catalog(path, edit):
    """Apply ``edit`` to the JSON catalog of the store at ``path``."""
    import json

    catalog_file = catalog_path_for(path)
    with open(catalog_file, "r", encoding="utf-8") as handle:
        catalog = json.load(handle)
    edit(catalog)
    with open(catalog_file, "w", encoding="utf-8") as handle:
        json.dump(catalog, handle)


class TestCatalogTag:
    """The catalog's ``labeling`` tag: always ``dol``, absent on old stores."""

    def test_catalog_records_backend_tag(self, saved):
        import json

        path, _doc, _dol = saved
        with open(catalog_path_for(path), "r", encoding="utf-8") as handle:
            catalog = json.load(handle)
        assert catalog["labeling"] == "dol"

    def test_pre_refactor_catalog_loads_as_dol(self, saved):
        """A catalog with no ``labeling`` tag opens as before and answers
        queries identically, without rewriting the page file."""
        from repro.nok.engine import QueryEngine

        path, doc, dol = saved
        with open(path, "rb") as handle:
            page_bytes = handle.read()
        _edit_catalog(path, lambda catalog: catalog.pop("labeling"))

        with open_store(path) as reopened:
            assert reopened.labeling.to_masks() == dol.to_masks()
            secure = QueryEngine(reopened.doc, store=reopened).evaluate(
                "//item", subject=0
            )
            reference = QueryEngine(doc, labeling=dol).evaluate("//item", subject=0)
            assert secure.positions == reference.positions
        with open(path, "rb") as handle:
            assert handle.read() == page_bytes

    def test_non_dol_tag_raises_storage_error(self, saved, capsys):
        import json

        from repro.cli import main

        path, _doc, _dol = saved
        _edit_catalog(path, lambda catalog: catalog.update(labeling="cam"))

        with pytest.raises(StorageError, match="'cam'"):
            open_store(path)
        assert main(["verify-store", path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [f["kind"] for f in report["findings"]] == ["catalog"]
        assert "'cam'" in report["findings"][0]["message"]

    def test_dol_catalog_roundtrip(self):
        """The page-free payload survives JSON, duplicate entries included."""
        import json

        dol = DOL.from_masks([0b011, 0b010, 0b110, 0b011], 3)
        dol.codebook.remove_subject(0)  # entries 0b011 and 0b010 collide
        payload = json.loads(json.dumps(dol.to_catalog()))
        rebuilt = DOL.from_catalog(payload)
        assert rebuilt.to_masks() == dol.to_masks() == [0b010, 0b010, 0b110, 0b010]
        assert list(rebuilt.codebook.entries()) == list(dol.codebook.entries())
        rebuilt.validate()


def _tiny_store(tmp_path, codebook, codes, page_size=96):
    """A flat store whose node i carries ``codes[i]`` of ``codebook``."""
    from repro.xmltree.builder import tree
    from repro.xmltree.document import Document

    doc = Document.from_tree(tree(("a",) + (("b",),) * (len(codes) - 1)))
    dol = DOL(len(doc), codebook)
    for pos, code in enumerate(codes):
        if not dol.codes or dol.codes[-1] != code:
            dol.positions.append(pos)
            dol.codes.append(code)
    path = str(tmp_path / "tiny.db")
    return NoKStore(doc, dol, path=path, page_size=page_size), path


class TestCodebookReload:
    """Reopening must decode every code to the subjects it had before."""

    def _codebook(self):
        from repro.dol.codebook import Codebook

        book = Codebook(3)
        for mask in (0, 2, 3, 4):
            book.encode(mask)
        return book

    def test_duplicate_entries_survive_reopen(self, tmp_path):
        """Masks [0, 2, 3, 4]; removing subject 0 leaves [0, 2, 2, 4].
        A reload that re-encoded would fold code 2 onto mask 4 — subject
        2's rights on node 2."""
        store, path = _tiny_store(tmp_path, self._codebook(), [0, 1, 2, 0])
        store.labeling.codebook.remove_subject(0)
        assert store.labeling.to_masks() == [0, 2, 2, 0]
        save_store(store)
        store.close()
        with open_store(path) as reopened:
            assert reopened.labeling.to_masks() == [0, 2, 2, 0]
            assert [m for _c, m in reopened.labeling.codebook.entries()] == [0, 2, 2, 4]
            reopened.verify()

    def test_highest_code_still_decodes(self, tmp_path):
        store, path = _tiny_store(tmp_path, self._codebook(), [0, 1, 3, 0])
        store.labeling.codebook.remove_subject(0)
        save_store(store)
        store.close()
        with open_store(path) as reopened:
            assert reopened.labeling.to_masks() == [0, 2, 4, 0]

    def test_duplicate_entries_survive_wal_recovery(self, tmp_path):
        """Commit an update, close without a checkpoint, recover. Four
        entries per page: the update rewrites page 1 only, so page 0
        keeps code 2 on disk."""
        codes = [0, 1, 2, 0, 0, 0, 0, 0]
        store, path = _tiny_store(tmp_path, self._codebook(), codes, page_size=64)
        assert store.entries_per_page == 4
        save_store(store)
        store.labeling.codebook.remove_subject(0)
        assert store.update_subject_range(7, 8, 1, True).pages_rewritten == 1
        expected = [0, 2, 2, 0, 0, 0, 0, 2]
        assert store.labeling.to_masks() == expected
        store.close()  # the WAL still holds the committed batch
        with open_store(path) as reopened:
            assert reopened.last_recovery["batches_replayed"] == 1
            assert reopened.labeling.to_masks() == expected
            reopened.verify()


class TestFailedUpdateRollback:
    """An update that overflows the u16 codes leaves no trace."""

    N_SUBJECTS = 17

    def _full_codebook(self):
        from repro.dol.codebook import Codebook

        book = Codebook(self.N_SUBJECTS)
        for mask in range(1, 0x10000):  # 0xFFFF entries: codes 0..0xFFFE
            book.encode(mask)
        return book

    def test_overflow_rolls_back_and_later_updates_persist(self, tmp_path):
        from repro.nok.engine import QueryEngine
        from repro.nok.pattern import parse_query
        from repro.nok.reference import evaluate_reference

        store, path = _tiny_store(tmp_path, self._full_codebook(), [0, 0, 0, 0])
        labeling = store.labeling
        masks, entries, epoch = labeling.to_masks(), len(labeling.codebook), store.epoch
        assert masks == [1, 1, 1, 1]

        with pytest.raises(StorageError, match="codebook overflow"):
            store.update_subject_range(1, 3, 16, True)  # needs mask 0x10001
        assert labeling.to_masks() == masks
        assert len(labeling.codebook) == entries
        assert store.epoch == epoch
        store.verify()

        store.update_subject_range(0, 2, 1, True)  # mask 3 is already coded
        save_store(store)
        store.close()
        expected = [3, 3, 1, 1]
        with open_store(path) as reopened:
            assert reopened.labeling.to_masks() == expected
            assert len(reopened.labeling.codebook) == entries
            engine = QueryEngine(reopened.doc, store=reopened)
            for subject in (0, 1, 16):
                assert engine.evaluate("//*", subject=subject).positions == sorted(
                    evaluate_reference(reopened.doc, parse_query("//*"), expected, subject)
                )

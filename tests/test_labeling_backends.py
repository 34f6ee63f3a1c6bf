"""Unit tests for the pluggable AccessLabeling backends.

Covers the registry, the three engines' conformance (probes, size
accounting, catalog round-trips, update hooks), the store integration for
hint-free backends, and backward compatibility with pre-refactor DOL
catalogs.
"""

import json

import pytest

from repro.acl.model import AccessMatrix
from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.errors import AccessControlError, UpdateError
from repro.labeling import (
    AccessLabeling,
    CAMLabeling,
    NaiveLabeling,
    available_backends,
    build_labeling,
    get_backend,
    register_backend,
)
from repro.nok.engine import QueryEngine
from repro.storage.nokstore import NoKStore
from repro.storage.persist import open_store, save_store
from repro.xmark.generator import XMarkConfig, generate_document
from repro.xmltree.builder import tree
from repro.xmltree.document import Document

BACKENDS = ("dol", "cam", "naive")


@pytest.fixture
def doc():
    return Document.from_tree(
        tree(
            (
                "site",
                ("regions", ("item", ("name", "anvil")), ("item", ("name", "rope"))),
                ("people", ("person", ("name", "ada")), ("person", ("name", "bob"))),
            )
        )
    )


@pytest.fixture
def matrix(doc):
    return generate_synthetic_acl(
        doc,
        SyntheticACLConfig(propagation_ratio=0.4, accessibility_ratio=0.6, seed=5),
        n_subjects=3,
    )


def build_all(doc, matrix):
    return {name: build_labeling(name, doc, matrix) for name in BACKENDS}


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_backends()) >= set(BACKENDS)

    def test_get_backend_resolves_classes(self):
        assert get_backend("dol") is DOL
        assert get_backend("cam") is CAMLabeling
        assert get_backend("naive") is NaiveLabeling

    def test_unknown_backend_rejected(self):
        with pytest.raises(AccessControlError, match="unknown labeling backend"):
            get_backend("bitmap")

    def test_unnamed_backend_rejected(self):
        class Nameless(NaiveLabeling):
            backend_name = "abstract"

        with pytest.raises(AccessControlError):
            register_backend(Nameless)

    def test_build_checks_matrix_coverage(self, doc):
        short = AccessMatrix(len(doc) - 1, 2)
        with pytest.raises(AccessControlError):
            build_labeling("dol", doc, short)


class TestConformance:
    def test_backend_names_and_hints(self, doc, matrix):
        built = build_all(doc, matrix)
        assert built["dol"].has_page_hints
        assert not built["cam"].has_page_hints
        assert not built["naive"].has_page_hints
        for name, labeling in built.items():
            assert isinstance(labeling, AccessLabeling)
            assert labeling.backend_name == name
            assert labeling.n_nodes == len(doc)

    def test_probes_agree_with_matrix(self, doc, matrix):
        for name, labeling in build_all(doc, matrix).items():
            for subject in range(matrix.n_subjects):
                for pos in range(len(doc)):
                    assert labeling.accessible(subject, pos) == matrix.accessible(
                        subject, pos
                    ), (name, subject, pos)
            assert labeling.to_masks() == matrix.masks(), name

    def test_accessible_any_is_union(self, doc, matrix):
        for name, labeling in build_all(doc, matrix).items():
            for pos in range(len(doc)):
                expected = any(
                    matrix.accessible(s, pos) for s in range(matrix.n_subjects)
                )
                assert labeling.accessible_any(
                    range(matrix.n_subjects), pos
                ) == expected, (name, pos)

    def test_out_of_range_probe_rejected(self, doc, matrix):
        for labeling in build_all(doc, matrix).values():
            with pytest.raises(AccessControlError):
                labeling.mask_at(len(doc))

    def test_size_accounting(self, doc, matrix):
        built = build_all(doc, matrix)
        assert built["naive"].n_labels == len(doc)
        assert built["dol"].n_labels == built["dol"].n_transitions
        assert built["cam"].n_labels == sum(
            built["cam"].cam_for(s).n_labels for s in range(matrix.n_subjects)
        )
        for labeling in built.values():
            assert labeling.size_bytes() > 0

    def test_validate_passes_on_fresh_builds(self, doc, matrix):
        for labeling in build_all(doc, matrix).values():
            labeling.validate()


class TestCatalogRoundTrip:
    def test_roundtrip_preserves_masks(self, doc, matrix):
        for name, labeling in build_all(doc, matrix).items():
            payload = json.loads(json.dumps(labeling.to_catalog()))
            rebuilt = get_backend(name).from_catalog(payload, doc)
            assert rebuilt.to_masks() == labeling.to_masks(), name
            rebuilt.validate()

    def test_naive_rejects_wrong_document(self, doc, matrix):
        labeling = build_labeling("naive", doc, matrix)
        small = Document.from_tree(tree(("a", ("b",))))
        with pytest.raises(AccessControlError):
            NaiveLabeling.from_catalog(labeling.to_catalog(), small)


class TestUpdateHooks:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_set_subject_accessibility(self, doc, matrix, name):
        labeling = build_labeling(name, doc, matrix)
        was = labeling.accessible(1, 3)
        labeling.set_subject_accessibility(2, 5, 1, not was)
        for pos in range(2, 5):
            assert labeling.accessible(1, pos) == (not was) or pos != 3
        assert labeling.accessible(1, 3) == (not was)
        labeling.validate()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_insert_delete_move_roundtrip(self, doc, matrix, name):
        labeling = build_labeling(name, doc, matrix)
        reference = labeling.to_masks()
        labeling.insert_range(4, [0b101, 0b001])
        assert labeling.n_nodes == len(doc) + 2
        assert labeling.mask_at(4) == 0b101
        labeling.delete_range(4, 6)
        assert labeling.to_masks() == reference, name

    @pytest.mark.parametrize("name", BACKENDS)
    def test_move_range(self, doc, matrix, name):
        labeling = build_labeling(name, doc, matrix)
        masks = labeling.to_masks()
        labeling.move_range(1, 3, 0)
        expected = masks[1:3] + [masks[0]] + masks[3:]
        assert labeling.to_masks() == expected, name

    @pytest.mark.parametrize("name", BACKENDS)
    def test_invalid_updates_rejected(self, doc, matrix, name):
        labeling = build_labeling(name, doc, matrix)
        with pytest.raises(UpdateError):
            labeling.transform_range(5, 2, lambda m: m)
        with pytest.raises(UpdateError):
            labeling.insert_range(len(doc) + 1, [1])
        with pytest.raises(UpdateError):
            labeling.delete_range(0, len(doc))

    def test_cam_rebuilds_every_subject_on_update(self, doc, matrix):
        """CAM has no update locality: an accessibility change drops every
        per-subject map and the delta accounting rebuilds them all."""
        labeling = build_labeling("cam", doc, matrix)
        labeling.cam_for(0)
        assert labeling.rebuilt_subjects() == 1
        labeling.set_node_mask(2, 0b111)
        assert labeling.rebuilt_subjects() == matrix.n_subjects
        assert labeling.accessible(0, 2)
        labeling.validate()

    def test_cam_structural_edit_defers_label_count(self, doc, matrix):
        """Between a structural mask edit and rebind_document the CAM
        cannot count labels; the hook reports a zero delta and the maps
        rebuild only after the new document is bound."""
        labeling = build_labeling("cam", doc, matrix)
        delta = labeling.insert_range(len(doc), [0b1])
        assert delta == 0
        assert labeling.n_nodes == len(doc) + 1
        # Probes resolve again once the post-edit document is bound.
        bigger = Document.from_tree(
            tree(
                (
                    "site",
                    (
                        "regions",
                        ("item", ("name", "anvil")),
                        ("item", ("name", "rope")),
                    ),
                    ("people", ("person", ("name", "ada")), ("person", ("name", "bob"))),
                    ("extra",),
                )
            )
        )
        labeling.rebind_document(bigger)
        assert labeling.accessible(0, len(doc))
        labeling.validate()

    def test_cam_rebind_document(self, doc, matrix):
        labeling = build_labeling("cam", doc, matrix)
        labeling.cam_for(1)
        labeling.rebind_document(doc)
        assert labeling.rebuilt_subjects() == 0


class TestStoreIntegration:
    @pytest.mark.parametrize("name", ("cam", "naive"))
    def test_hint_free_store_answers_probes(self, doc, matrix, name):
        labeling = build_labeling(name, doc, matrix)
        store = NoKStore(doc, labeling, page_size=128)
        assert not store.has_page_hints
        for subject in range(matrix.n_subjects):
            for pos in range(len(doc)):
                assert store.accessible(subject, pos) == matrix.accessible(
                    subject, pos
                )
        assert not store.page_fully_inaccessible(0, 0)
        assert not store.page_fully_inaccessible_any(0, (0, 1))
        store.verify()

    @pytest.mark.parametrize("name", ("cam", "naive"))
    def test_hint_free_update_rewrites_no_pages(self, doc, matrix, name):
        labeling = build_labeling(name, doc, matrix)
        store = NoKStore(doc, labeling, page_size=128)
        cost = store.update_subject_range(1, 5, 0, True)
        assert cost.pages_rewritten == 0
        for pos in range(1, 5):
            assert store.accessible(0, pos)
        store.verify()

    def test_store_and_engine_share_labeling(self, doc, matrix):
        labeling = build_labeling("naive", doc, matrix)
        other = build_labeling("naive", doc, matrix)
        store = NoKStore(doc, labeling, page_size=128)
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            QueryEngine(doc, labeling=other, store=store)


class TestPersistence:
    @pytest.mark.parametrize("name", ("cam", "naive"))
    def test_save_reopen_hint_free_backend(self, tmp_path, name):
        doc = generate_document(XMarkConfig(n_items=10, seed=3))
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(accessibility_ratio=0.6, seed=2), n_subjects=2
        )
        labeling = build_labeling(name, doc, matrix)
        path = str(tmp_path / "store.db")
        with NoKStore(doc, labeling, path=path, page_size=512) as store:
            save_store(store)
        reopened = open_store(path)
        try:
            assert reopened.labeling.backend_name == name
            assert reopened.labeling.to_masks() == matrix.masks()
            reopened.verify()
        finally:
            reopened.close()

    def test_backend_tag_mismatch_raises_valueerror(self, tmp_path):
        doc = generate_document(XMarkConfig(n_items=5, seed=1))
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(seed=1), n_subjects=2
        )
        path = str(tmp_path / "store.db")
        with NoKStore(doc, build_labeling("cam", doc, matrix), path=path) as store:
            save_store(store)
        with pytest.raises(ValueError, match=r"'cam'.*'dol'"):
            open_store(path, labeling="dol")
        with pytest.raises(ValueError, match=r"'cam'.*'naive'"):
            NoKStore.open(path, labeling="naive")

    def test_matching_tag_accepted(self, tmp_path):
        doc = generate_document(XMarkConfig(n_items=5, seed=1))
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(seed=1), n_subjects=2
        )
        path = str(tmp_path / "store.db")
        with NoKStore(doc, build_labeling("dol", doc, matrix), path=path) as store:
            save_store(store)
        reopened = NoKStore.open(path, labeling="dol")
        reopened.close()

    def test_pre_refactor_catalog_loads_as_dol(self, tmp_path):
        """A catalog with no ``labeling`` tag predates the pluggable
        interface; it must open as a DOL and answer queries identically."""
        doc = generate_document(XMarkConfig(n_items=10, seed=4))
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(accessibility_ratio=0.7, seed=6), n_subjects=2
        )
        dol = DOL.from_matrix(matrix)
        path = str(tmp_path / "store.db")
        with NoKStore(doc, dol, path=path, page_size=512) as store:
            catalog_path = save_store(store)
        with open(path, "rb") as handle:
            page_bytes = handle.read()

        # Strip the new catalog keys, simulating a pre-refactor store.
        with open(catalog_path, "r", encoding="utf-8") as handle:
            catalog = json.load(handle)
        catalog.pop("labeling", None)
        catalog.pop("labeling_data", None)
        with open(catalog_path, "w", encoding="utf-8") as handle:
            json.dump(catalog, handle)

        reopened = open_store(path)
        try:
            assert reopened.labeling.backend_name == "dol"
            assert reopened.labeling.to_masks() == dol.to_masks()
            engine = QueryEngine(reopened.doc, labeling=reopened.labeling,
                                 store=reopened)
            secure = engine.evaluate("//item", subject=0)
            reference = QueryEngine(doc, labeling=dol).evaluate("//item", subject=0)
            assert sorted(secure.positions) == sorted(reference.positions)
        finally:
            reopened.close()
        # Opening must not have rewritten the page file.
        with open(path, "rb") as handle:
            assert handle.read() == page_bytes

    def test_catalog_records_backend_tag(self, tmp_path):
        doc = generate_document(XMarkConfig(n_items=5, seed=1))
        matrix = generate_synthetic_acl(
            doc, SyntheticACLConfig(seed=1), n_subjects=2
        )
        path = str(tmp_path / "store.db")
        with NoKStore(doc, build_labeling("naive", doc, matrix), path=path) as store:
            catalog_path = save_store(store)
        with open(catalog_path, "r", encoding="utf-8") as handle:
            catalog = json.load(handle)
        assert catalog["labeling"] == "naive"
        assert "labeling_data" in catalog

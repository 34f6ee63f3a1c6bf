"""Unit tests for DOL construction, lookup, and metrics."""

import pytest

from repro.acl.model import AccessMatrix
from repro.dol.codebook import Codebook
from repro.dol.labeling import DOL, transition_count, transitions_from_masks
from repro.errors import AccessControlError


class TestTransitions:
    def test_root_is_always_a_transition(self):
        assert transitions_from_masks([5, 5, 5]) == [(0, 5)]

    def test_changes_create_transitions(self):
        assert transitions_from_masks([1, 1, 2, 2, 1]) == [(0, 1), (2, 2), (4, 1)]

    def test_alternating_worst_case(self):
        masks = [0, 1] * 5
        assert len(transitions_from_masks(masks)) == 10

    def test_empty_rejected(self):
        with pytest.raises(AccessControlError):
            transitions_from_masks([])

    def test_transition_count_boolean(self):
        assert transition_count([True, True, False, True]) == 3


class TestPaperExample:
    """Figure 1 of the paper: single-subject and two-subject DOLs."""

    def test_figure_1a_shape(self, paper_doc):
        # A plausible Figure-1(a) shading: root accessible, one inner
        # inaccessible run, back to accessible.
        vector = [1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1]
        dol = DOL.from_masks(vector, 1)
        assert dol.positions == [0, 2, 4, 7, 10]
        assert [dol.codebook.decode(c) for c in dol.codes] == [1, 0, 1, 0, 1]

    def test_figure_1c_codebook_sharing(self):
        # Two subjects; only three of four possible ACLs occur.
        masks = [0b11, 0b11, 0b01, 0b01, 0b10, 0b11]
        dol = DOL.from_masks(masks, 2)
        assert len(dol.codebook) == 3
        assert dol.n_transitions == 4


class TestConstruction:
    def test_from_matrix(self, xmark_acl):
        dol = DOL.from_matrix(xmark_acl)
        assert dol.to_masks() == xmark_acl.masks()

    def test_from_vector(self):
        dol = DOL.from_vector([True, False, False])
        assert dol.accessible(0, 0)
        assert not dol.accessible(0, 1)

    def test_shared_codebook(self):
        book = Codebook(2)
        a = DOL.from_masks([0b01, 0b10], 2, codebook=book)
        b = DOL.from_masks([0b10, 0b01], 2, codebook=book)
        assert a.codebook is b.codebook
        assert len(book) == 2  # entries shared across DOLs

    def test_empty_document_rejected(self):
        with pytest.raises(AccessControlError):
            DOL.from_masks([], 1)

    def test_build_labeling_checks_matrix_coverage(self, paper_doc):
        from repro.labeling import build_labeling

        assert build_labeling("dol", paper_doc, AccessMatrix(len(paper_doc), 2))
        with pytest.raises(AccessControlError):
            build_labeling("dol", paper_doc, AccessMatrix(len(paper_doc) - 1, 2))

    def test_build_labeling_knows_only_dol(self, paper_doc):
        from repro.labeling import build_labeling

        with pytest.raises(AccessControlError, match="only 'dol'"):
            build_labeling("cam", paper_doc, AccessMatrix(len(paper_doc), 2))


class TestLookup:
    @pytest.fixture
    def dol(self):
        return DOL.from_masks([3, 3, 1, 1, 1, 2, 3], 2)

    def test_mask_at(self, dol):
        assert [dol.mask_at(i) for i in range(7)] == [3, 3, 1, 1, 1, 2, 3]

    def test_accessible(self, dol):
        assert dol.accessible(0, 0)
        assert dol.accessible(1, 0)
        assert dol.accessible(0, 3)
        assert not dol.accessible(1, 3)
        assert not dol.accessible(0, 5)
        assert dol.accessible(1, 5)

    def test_is_transition(self, dol):
        flags = [dol.is_transition(i) for i in range(7)]
        assert flags == [True, False, True, False, False, True, True]

    def test_out_of_range(self, dol):
        with pytest.raises(AccessControlError):
            dol.mask_at(7)
        with pytest.raises(AccessControlError):
            dol.mask_at(-1)


class TestRoundTrip:
    def test_to_matrix(self):
        matrix = AccessMatrix.from_masks([1, 0, 1, 1], 1)
        dol = DOL.from_matrix(matrix)
        assert dol.to_matrix() == matrix

    def test_equality_by_expansion(self):
        a = DOL.from_masks([1, 1, 0], 1)
        b = DOL.from_masks([1, 1, 0], 1)
        c = DOL.from_masks([1, 0, 0], 1)
        assert a == b
        assert a != c


class TestMetrics:
    def test_transition_density(self):
        dol = DOL.from_masks([1] * 100, 1)
        assert dol.transition_density() == pytest.approx(0.01)

    def test_size_bytes_model(self):
        dol = DOL.from_masks([1, 0, 1], 1)
        # 2 codebook entries x 1 byte + 3 transitions x 1 byte code
        assert dol.size_bytes() == 2 + 3

    def test_validate_catches_corruption(self):
        dol = DOL.from_masks([1, 0, 1], 1)
        dol.validate()
        dol.positions[1] = 0
        with pytest.raises(AccessControlError):
            dol.validate()

    def test_validate_catches_redundant_transition(self):
        dol = DOL.from_masks([1, 0, 0], 1)
        dol.positions.append(2)
        dol.codes.append(dol.codes[-1])  # same code as its predecessor
        with pytest.raises(AccessControlError):
            dol.validate()

"""Unit tests for DOL update operations and Proposition 1."""

import pytest

from repro.dol.labeling import DOL
from repro.dol.updates import DOLUpdater
from repro.errors import CodebookError, UpdateError


def make(masks, n_subjects=2):
    dol = DOL.from_masks(masks, n_subjects)
    return dol, DOLUpdater(dol)


class TestNodeUpdates:
    def test_set_node_mask_in_middle(self):
        dol, up = make([1, 1, 1, 1])
        delta = up.set_node_mask(2, 2)
        assert dol.to_masks() == [1, 1, 2, 1]
        assert delta == 2  # new transition at 2 and restore at 3

    def test_set_node_mask_at_boundary_merges(self):
        dol, up = make([1, 1, 2, 2])
        delta = up.set_node_mask(1, 2)
        assert dol.to_masks() == [1, 2, 2, 2]
        assert delta == 0

    def test_noop_update(self):
        dol, up = make([1, 2, 1])
        delta = up.set_node_mask(1, 2)
        assert dol.to_masks() == [1, 2, 1]
        assert delta == 0

    def test_update_can_remove_transitions(self):
        dol, up = make([1, 2, 1])
        delta = up.set_node_mask(1, 1)
        assert dol.to_masks() == [1, 1, 1]
        assert delta == -2

    def test_paper_procedure_single_node_grant(self):
        """Section 3.4: grant a subject on one node inside a denied run."""
        dol, up = make([0, 0, 0, 0], n_subjects=1)
        delta = up.set_node_accessibility(2, 0, True)
        assert dol.to_masks() == [0, 0, 1, 0]
        assert delta == 2
        # Granting again is a no-op (the preceding transition already grants).
        assert up.set_node_accessibility(2, 0, True) == 0


class TestSubtreeUpdates:
    def test_range_mask(self):
        dol, up = make([1, 1, 1, 1, 1, 1])
        delta = up.set_range_mask(1, 4, 3)
        assert dol.to_masks() == [1, 3, 3, 3, 1, 1]
        assert delta == 2

    def test_range_spanning_transitions(self):
        dol, up = make([1, 2, 1, 2, 1, 2])
        delta = up.set_range_mask(1, 5, 3)
        assert dol.to_masks() == [1, 3, 3, 3, 3, 2]
        assert delta <= 2

    def test_subject_grant_preserves_other_bits(self):
        dol, up = make([0b01, 0b10, 0b00, 0b01])
        up.set_subject_accessibility(0, 4, 1, True)
        assert dol.to_masks() == [0b11, 0b10, 0b10, 0b11]

    def test_subject_revoke(self):
        dol, up = make([0b11, 0b11, 0b01])
        up.set_subject_accessibility(0, 2, 0, False)
        assert dol.to_masks() == [0b10, 0b10, 0b01]

    def test_whole_document_update(self):
        dol, up = make([1, 2, 3, 1])
        delta = up.set_range_mask(0, 4, 0)
        assert dol.to_masks() == [0, 0, 0, 0]
        assert dol.n_transitions == 1
        assert delta == -3

    def test_invalid_range_rejected(self):
        dol, up = make([1, 2])
        with pytest.raises(UpdateError):
            up.set_range_mask(1, 1, 0)
        with pytest.raises(UpdateError):
            up.set_range_mask(0, 3, 0)


class TestUpdateLocality:
    def test_transitions_outside_range_untouched(self):
        masks = [1, 2, 1, 2, 1, 2, 1, 2]
        dol, up = make(masks)
        before_head = [(p, c) for p, c in zip(dol.positions, dol.codes) if p < 3]
        up.set_range_mask(4, 6, 3)
        after_head = [(p, c) for p, c in zip(dol.positions, dol.codes) if p < 3]
        assert before_head == after_head


class TestStructuralUpdates:
    def test_insert_middle(self):
        dol, up = make([1, 1, 1])
        extra = up.insert_range(1, [2, 2])
        assert dol.to_masks() == [1, 2, 2, 1, 1]
        assert dol.n_nodes == 5
        assert extra <= 2

    def test_insert_matching_neighbourhood_adds_nothing(self):
        dol, up = make([1, 1, 1])
        extra = up.insert_range(1, [1, 1])
        assert dol.to_masks() == [1] * 5
        # The inserted data's own transition merges with the surrounding
        # run, so the Proposition 1 quantity can even be negative.
        assert extra <= 0
        assert dol.n_transitions == 1

    def test_insert_at_start_and_end(self):
        dol, up = make([1, 1])
        up.insert_range(0, [2])
        assert dol.to_masks() == [2, 1, 1]
        up.insert_range(3, [3])
        assert dol.to_masks() == [2, 1, 1, 3]

    def test_insert_labeled_subtree_counts_own_transitions(self):
        dol, up = make([1, 1])
        extra = up.insert_range(1, [2, 3, 2])  # 3 own transitions
        assert dol.to_masks() == [1, 2, 3, 2, 1]
        assert extra <= 2  # beyond the inserted data's own transitions

    def test_insert_empty_rejected(self):
        dol, up = make([1])
        with pytest.raises(UpdateError):
            up.insert_range(0, [])

    def test_delete_middle(self):
        dol, up = make([1, 2, 2, 1])
        delta = up.delete_range(1, 3)
        assert dol.to_masks() == [1, 1]
        assert dol.n_nodes == 2
        assert delta <= 2

    def test_delete_merges_neighbours(self):
        dol, up = make([1, 2, 1])
        up.delete_range(1, 2)
        assert dol.to_masks() == [1, 1]
        assert dol.n_transitions == 1

    def test_delete_suffix(self):
        dol, up = make([1, 2, 3])
        up.delete_range(1, 3)
        assert dol.to_masks() == [1]

    def test_delete_everything_rejected(self):
        dol, up = make([1, 2])
        with pytest.raises(UpdateError):
            up.delete_range(0, 2)

    def test_move(self):
        dol, up = make([1, 2, 2, 3])
        up.move_range(1, 3, 2)  # move the [2,2] block after 3
        assert dol.to_masks() == [1, 3, 2, 2]

    def test_move_to_front(self):
        dol, up = make([1, 1, 3])
        up.move_range(2, 3, 0)
        assert dol.to_masks() == [3, 1, 1]


class TestFailedUpdateLeavesDOLUnchanged:
    """A rejected update raises before the DOL or its codebook changes."""

    MASKS = [1, 1, 2, 2, 1, 3, 3, 1]

    def _assert_unchanged(self, dol, entries):
        assert dol.n_nodes == len(self.MASKS)
        assert dol.to_masks() == self.MASKS
        assert len(dol.codebook) == entries
        dol.validate()

    def test_move_to_invalid_destination(self):
        dol, up = make(self.MASKS)
        entries = len(dol.codebook)
        with pytest.raises(UpdateError):
            up.move_range(2, 4, 99)
        self._assert_unchanged(dol, entries)

    def test_move_past_the_excised_document_end(self):
        dol, up = make(self.MASKS)
        entries = len(dol.codebook)
        with pytest.raises(UpdateError):
            up.move_range(2, 4, 7)  # 6 nodes remain after the excision
        self._assert_unchanged(dol, entries)

    def test_insert_with_unencodable_mask(self):
        dol, up = make(self.MASKS)
        entries = len(dol.codebook)
        with pytest.raises(CodebookError):
            up.insert_range(3, [1, 8])
        self._assert_unchanged(dol, entries)

    def test_unencodable_mask_registers_no_codebook_entry(self):
        dol, up = make(self.MASKS)
        entries = len(dol.codebook)
        with pytest.raises(CodebookError):
            up.insert_range(3, [0, 8])  # 0 is new, 8 has no subject bit
        self._assert_unchanged(dol, entries)
        assert 0 not in dol.codebook


class TestProposition1:
    def test_check_passes_small_deltas(self):
        for delta in (-5, 0, 1, 2):
            DOLUpdater.check_proposition1(delta)

    def test_check_rejects_violation(self):
        with pytest.raises(UpdateError):
            DOLUpdater.check_proposition1(3, "insert")


class TestJournal:
    """The journal callback feeds WAL commit records (logical logging)."""

    def test_accessibility_update_journaled(self):
        from repro.dol.labeling import DOL
        from repro.dol.updates import DOLUpdater

        dol = DOL.from_masks([0b11] * 8, 2)
        ops = []
        delta = DOLUpdater(dol, journal=ops.append).set_subject_accessibility(
            2, 6, 0, False
        )
        assert len(ops) == 1
        assert ops[0]["op"] == "transform_range"
        assert (ops[0]["start"], ops[0]["end"]) == (2, 6)
        assert ops[0]["delta"] == delta

    def test_structural_updates_journaled(self):
        from repro.dol.labeling import DOL
        from repro.dol.updates import DOLUpdater

        dol = DOL.from_masks([0b1] * 6, 1)
        ops = []
        updater = DOLUpdater(dol, journal=ops.append)
        updater.insert_range(3, [0b1, 0b1])
        updater.delete_range(0, 2)
        assert [entry["op"] for entry in ops] == ["insert_range", "delete_range"]
        assert ops[0]["at"] == 3 and ops[0]["n_nodes"] == 2
        assert (ops[1]["start"], ops[1]["end"]) == (0, 2)

    def test_no_journal_is_silent(self):
        from repro.dol.labeling import DOL
        from repro.dol.updates import DOLUpdater

        dol = DOL.from_masks([0b1] * 4, 1)
        DOLUpdater(dol).set_range_mask(1, 3, 0b1)  # must not raise


class TestDOLHooks:
    """The DOL's own update methods delegate to DOLUpdater."""

    MASKS = [0b011, 0b011, 0b001, 0b101, 0b101, 0b000, 0b111, 0b111]

    def test_set_subject_accessibility(self):
        dol = DOL.from_masks(self.MASKS, 3)
        epoch = dol.runs_epoch
        delta = dol.set_subject_accessibility(2, 5, 1, True)
        assert dol.to_masks()[2:5] == [0b011, 0b111, 0b111]
        assert delta <= 2  # Proposition 1
        assert dol.runs_epoch > epoch
        dol.validate()

    def test_insert_delete_move_roundtrip(self):
        dol = DOL.from_masks(self.MASKS, 3)
        dol.insert_range(4, [0b101, 0b001])
        assert dol.n_nodes == len(self.MASKS) + 2
        assert dol.mask_at(4) == 0b101
        dol.delete_range(4, 6)
        assert dol.to_masks() == self.MASKS

    def test_move_range(self):
        dol = DOL.from_masks(self.MASKS, 3)
        dol.move_range(1, 3, 0)
        masks = self.MASKS
        assert dol.to_masks() == masks[1:3] + [masks[0]] + masks[3:]

    def test_invalid_updates_rejected(self):
        dol = DOL.from_masks(self.MASKS, 3)
        with pytest.raises(UpdateError):
            dol.transform_range(5, 2, lambda m: m)
        with pytest.raises(UpdateError):
            dol.insert_range(len(self.MASKS) + 1, [1])
        with pytest.raises(UpdateError):
            dol.delete_range(0, len(self.MASKS))

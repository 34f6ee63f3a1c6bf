"""Differential property: the DOL splice against a full-rebuild updater.

:class:`RebuildUpdater` is the reference. It expands every transition to
per-node masks, edits the mask list and re-encodes the whole transition
list through the DOL's own codebook: O(document) per update and plainly
right. :class:`~repro.dol.updates.DOLUpdater` splices only the
transitions at positions in the updated range. Over random mask vectors
and random sequences of transform, insert, delete and move, the two must
produce the same positions and the same codes, element for element.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dol.labeling import DOL, transitions_from_masks
from repro.dol.updates import DOLUpdater

N_SUBJECTS = 4
FULL = (1 << N_SUBJECTS) - 1


class RebuildUpdater:
    """Full-rebuild reference for the four splice operations."""

    def __init__(self, dol: DOL):
        self.dol = dol

    def _rebuild(self, masks):
        dol = self.dol
        pairs = transitions_from_masks(masks)
        dol.n_nodes = len(masks)
        dol.positions = [pos for pos, _mask in pairs]
        dol.codes = [dol.codebook.encode(mask) for _pos, mask in pairs]

    def transform_range(self, start, end, fn):
        masks = self.dol.to_masks()
        masks[start:end] = [fn(mask) for mask in masks[start:end]]
        self._rebuild(masks)

    def insert_range(self, at, inserted):
        masks = self.dol.to_masks()
        masks[at:at] = inserted
        self._rebuild(masks)

    def delete_range(self, start, end):
        masks = self.dol.to_masks()
        del masks[start:end]
        self._rebuild(masks)

    def move_range(self, start, end, to):
        masks = self.dol.to_masks()
        segment = masks[start:end]
        del masks[start:end]
        masks[to:to] = segment
        self._rebuild(masks)


masks_lists = st.lists(st.integers(0, FULL), min_size=1, max_size=40)


def _endpoint(draw, dol, low, high):
    """A position in [low, high], biased to the edges and to transitions."""
    special = [low, high] + [pos for pos in dol.positions if low <= pos <= high]
    return draw(st.one_of(st.sampled_from(special), st.integers(low, high)))


def _mask(draw, dol, start, end):
    """A fresh mask, or one equal to a neighbour of [start, end)."""
    near = [dol.mask_at(min(start, dol.n_nodes - 1))]
    if start > 0:
        near.append(dol.mask_at(start - 1))
    if end < dol.n_nodes:
        near.append(dol.mask_at(end))
    return draw(st.one_of(st.sampled_from(near), st.integers(0, FULL)))


def _draw_op(draw, dol):
    n = dol.n_nodes
    kind = draw(st.sampled_from(["transform", "subject", "insert", "delete", "move"]))
    if kind == "insert":
        at = _endpoint(draw, dol, 0, n)
        inserted = [_mask(draw, dol, at, at)]
        inserted += draw(st.lists(st.integers(0, FULL), max_size=5))
        return "insert_range", (at, inserted)
    if kind in ("delete", "move") and n < 2:
        kind = "transform"
    start = _endpoint(draw, dol, 0, n - 1)
    end = _endpoint(draw, dol, start + 1, n)
    if kind in ("delete", "move") and end - start == n:
        end -= 1  # the whole document cannot be excised
    if kind == "delete":
        return "delete_range", (start, end)
    if kind == "move":
        return "move_range", (start, end, _endpoint(draw, dol, 0, n - (end - start)))
    if kind == "subject":
        bit = 1 << draw(st.integers(0, N_SUBJECTS - 1))
        if draw(st.booleans()):
            return "transform_range", (start, end, lambda mask: mask | bit)
        return "transform_range", (start, end, lambda mask: mask & ~bit)
    mask = _mask(draw, dol, start, end)
    return "transform_range", (start, end, lambda _old: mask)


@given(masks_lists, st.data())
@settings(max_examples=300, deadline=None)
def test_splice_equals_full_rebuild(masks, data):
    dol = DOL.from_masks(masks, N_SUBJECTS)
    reference = DOL.from_masks(masks, N_SUBJECTS)
    for _step in range(data.draw(st.integers(1, 8))):
        name, args = _draw_op(data.draw, dol)
        old_positions, old_codes = dol.positions, dol.codes
        frozen = (list(old_positions), list(old_codes))

        getattr(DOLUpdater(dol), name)(*args)
        getattr(RebuildUpdater(reference), name)(*args)

        assert dol.n_nodes == reference.n_nodes
        assert dol.positions == reference.positions
        assert dol.codes == reference.codes
        fresh = DOL.from_masks(dol.to_masks(), N_SUBJECTS)
        assert dol.positions == fresh.positions
        assert dol == fresh
        dol.validate()
        assert (old_positions, old_codes) == frozen


def test_transitions_outside_the_window_keep_their_codes():
    """Codes outside the window are the codes the pages hold, kept as is.

    After ``remove_subject`` two codebook entries decode to one mask, so
    the transitions at 4 and 6 repeat the mask before them under their
    own codes. A splice of [0, 1) must not touch them; a full rebuild
    would merge them into the transition at 2.
    """
    dol = DOL.from_masks([0b01, 0b01, 0b10, 0b10, 0b11, 0b11, 0b10, 0b10], 2)
    dol.codebook.remove_subject(0)
    outside = list(zip(dol.positions, dol.codes))[1:]
    assert [code for _pos, code in outside] == [1, 2, 1]
    DOLUpdater(dol).set_range_mask(0, 1, 0b01)
    assert list(zip(dol.positions, dol.codes))[2:] == outside
    assert dol.to_masks() == [0b01, 0, 0b10, 0b10, 0b10, 0b10, 0b10, 0b10]

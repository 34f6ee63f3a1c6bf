"""Property tests: random edit sequences keep document and DOL in sync."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dol.labeling import DOL, transitions_from_masks
from repro.secure.secured import SecuredDocument
from repro.xmltree.builder import tree as build_tree
from repro.xmltree.node import Node
from tests.conftest import random_document


def _reference_masks_after(op, masks, doc_before, args):
    """Apply the edit to a plain mask list (the reference model)."""
    if op == "grant":
        pos, subject, value = args
        end = doc_before.subtree_end(pos)
        bit = 1 << subject
        return [
            (m | bit if value else m & ~bit) if pos <= i < end else m
            for i, m in enumerate(masks)
        ]
    if op == "insert":
        position, new_masks = args
        return masks[:position] + new_masks + masks[position:]
    if op == "delete":
        start, end = args
        return masks[:start] + masks[end:]
    raise AssertionError(op)


@st.composite
def edit_scripts(draw):
    seed = draw(st.integers(min_value=0, max_value=9999))
    n = draw(st.integers(min_value=2, max_value=25))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["grant", "insert", "delete", "move"]),
                st.integers(min_value=0, max_value=10_000),
            ),
            max_size=8,
        )
    )
    return seed, n, ops


@given(edit_scripts())
@settings(max_examples=120, deadline=None)
def test_random_edit_sequences_stay_consistent(script):
    seed, n, ops = script
    rng = random.Random(seed)
    doc = random_document(rng, n)
    masks = [rng.randrange(4) for _ in range(n)]
    sd = SecuredDocument(doc, DOL.from_masks(masks, 2))

    for op, randomness in ops:
        op_rng = random.Random(randomness)
        size = len(sd.doc)
        if op == "grant":
            pos = op_rng.randrange(size)
            subject = op_rng.randrange(2)
            value = op_rng.random() < 0.5
            args = (pos, subject, value)
            expected = _reference_masks_after("grant", masks, sd.doc, args)
            report = sd.set_subtree_accessibility(pos, subject, value)
            assert report.transition_delta <= 2
        elif op == "insert":
            parent = op_rng.randrange(size)
            child_index = op_rng.randint(
                0, len(list(sd.doc.children(parent)))
            )
            k = op_rng.randint(1, 3)
            subtree = Node("x")
            for _ in range(k - 1):
                subtree.append(Node("y"))
            new_masks = [op_rng.randrange(4) for _ in range(k)]
            from repro.xmltree.edit import insert_position

            position = insert_position(sd.doc, parent, child_index)
            expected = _reference_masks_after(
                "insert", masks, sd.doc, (position, new_masks)
            )
            report = sd.insert_subtree(parent, child_index, subtree, new_masks)
            assert report.transition_delta <= 2
        elif op == "delete":
            if size < 2:
                continue
            pos = op_rng.randrange(1, size)
            end = sd.doc.subtree_end(pos)
            expected = _reference_masks_after("delete", masks, sd.doc, (pos, end))
            sd.delete_subtree(pos)
        else:  # move
            if size < 3:
                continue
            pos = op_rng.randrange(1, size)
            end = sd.doc.subtree_end(pos)
            candidates = [
                p for p in range(size) if not pos <= p < end
            ]
            new_parent = op_rng.choice(candidates)
            segment = masks[pos:end]
            rest = masks[:pos] + masks[end:]
            result_preview = None
            from repro.xmltree.edit import move_subtree

            result_preview = move_subtree(sd.doc, pos, new_parent)
            expected = (
                rest[: result_preview.destination]
                + segment
                + rest[result_preview.destination :]
            )
            sd.move_subtree(pos, new_parent)

        masks = expected
        assert sd.masks() == masks
        sd.validate()
        assert sd.labeling.n_transitions == len(transitions_from_masks(masks))

"""Render differential: page bytes from the transition slice.

``NoKStore._render_page_bytes`` takes a page's codes and change bit from
its slice of the transition list. :func:`render_per_entry` is the
reference: it asks the DOL about every entry on its own. Over random
documents and DOLs, before and after accessibility updates, every page
must come out byte-identical from both.
"""

import random

import pytest

from repro.dol.labeling import DOL
from repro.storage.encoding import NodeEntry
from repro.storage.headers import PageHeader
from repro.storage.nokstore import NoKStore
from repro.xmark.generator import XMarkConfig, generate_document

N_SUBJECTS = 3


def render_per_entry(store, first):
    """Reference page render: one DOL probe per entry."""
    doc, labeling = store.doc, store.labeling
    last = min(first + store.entries_per_page, store.n_nodes)
    entries, change_bit = [], False
    for pos in range(first, last):
        is_transition = labeling.is_transition(pos)
        if pos > first:
            change_bit = change_bit or is_transition
        carries = pos == first or is_transition
        entries.append(
            NodeEntry(
                doc.tags[pos],
                doc.depth[pos],
                doc.subtree[pos],
                labeling.code_at(pos) if carries else 0,
                carries,
            )
        )
    header = PageHeader(labeling.code_at(first), change_bit, last - first)
    return store.page_format.encode_page(header, entries, store.page_size), header


def random_masks(rng, n):
    """Runs of random length: dense stretches and long transition-free ones."""
    masks = []
    while len(masks) < n:
        run = rng.choice((1, 1, 2, 5, 40, 200))
        masks.extend([rng.randrange(1 << N_SUBJECTS)] * run)
    return masks[:n]


def page_cases(store):
    """Which of the cases the differential must cover each page falls in."""
    labeling, per_page = store.labeling, store.entries_per_page
    cases = set()
    for first in range(0, store.n_nodes, per_page):
        last = min(first + per_page, store.n_nodes)
        first_is_transition = labeling.is_transition(first)
        cases.add("first-transition" if first_is_transition else "first-inherited")
        interior = any(labeling.is_transition(pos) for pos in range(first + 1, last))
        cases.add("change-bit" if interior else "no-change-bit")
        if last - first < per_page:
            cases.add("partial-last")
    return cases


def assert_pages_match(store):
    for first in range(0, store.n_nodes, store.entries_per_page):
        assert store._render_page_bytes(first) == render_per_entry(store, first)


@pytest.mark.parametrize("codec,page_size", [(None, 256), ("structure-delta", 512)])
@pytest.mark.parametrize("seed", range(4))
def test_slice_render_equals_per_entry_render(codec, page_size, seed):
    rng = random.Random(seed)
    store = None
    while store is None or store.n_nodes % store.entries_per_page == 0:
        doc = generate_document(XMarkConfig(n_items=rng.randrange(4, 12), seed=seed))
        dol = DOL.from_masks(random_masks(rng, len(doc)), N_SUBJECTS)
        store = NoKStore(doc, dol, page_size=page_size, codec=codec)
    seen = page_cases(store)
    assert_pages_match(store)
    for _ in range(12):
        start = rng.randrange(store.n_nodes)
        end = rng.randrange(start + 1, min(start + 60, store.n_nodes) + 1)
        subject = rng.randrange(N_SUBJECTS)
        store.update_subject_range(start, end, subject, rng.random() < 0.5)
        seen |= page_cases(store)
        assert_pages_match(store)
    assert seen == {
        "first-transition", "first-inherited", "change-bit", "no-change-bit",
        "partial-last",
    }

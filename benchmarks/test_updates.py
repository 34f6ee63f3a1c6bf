"""Section 3.4: update costs.

- A single-node accessibility update touches one page (read + write).
- A subtree update of N nodes rewrites ~N/B pages (B = nodes per page),
  far cheaper than N separate node updates.
- Proposition 1 holds across random update workloads: every operation
  adds at most 2 transition nodes.
- Subject addition/removal touches only the in-memory codebook.
"""

import random

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.bench.reporting import print_table
from repro.dol.labeling import DOL
from repro.dol.updates import DOLUpdater
from repro.storage.nokstore import NoKStore


def _store(doc, n_subjects=4, page_size=4096):
    matrix = generate_synthetic_acl(
        doc, SyntheticACLConfig(accessibility_ratio=0.6, seed=8), n_subjects
    )
    dol = DOL.from_matrix(matrix)
    return NoKStore(doc, dol, page_size=page_size, buffer_capacity=64)


def test_single_node_update_touches_one_page(xmark_doc, benchmark):
    store = _store(xmark_doc)
    target = len(xmark_doc) // 2
    cost = store.update_subject_range(target, target + 1, 0, False)
    assert cost.pages_rewritten <= 2  # node page + possible boundary page
    assert cost.transition_delta <= 2

    benchmark(store.update_subject_range, target, target + 1, 0, True)


def test_subtree_update_costs_n_over_b_pages(xmark_doc, benchmark):
    store = _store(xmark_doc)
    b = store.entries_per_page
    # pick a large subtree (the regions section)
    root = 1
    end = xmark_doc.subtree_end(root)
    n = end - root
    cost = store.update_subject_range(root, end, 1, False)
    expected_pages = -(-n // b)  # ceil(N/B)
    print_table(
        "Section 3.4: subtree update cost",
        ["metric", "value"],
        [
            ("subtree nodes N", n),
            ("nodes per page B", b),
            ("ceil(N/B)", expected_pages),
            ("pages rewritten", cost.pages_rewritten),
        ],
    )
    assert cost.pages_rewritten <= expected_pages + 2
    assert cost.transition_delta <= 2

    benchmark(store.update_subject_range, root, end, 1, True)


def test_proposition1_random_workload(xmark_doc, benchmark):
    rng = random.Random(44)
    matrix = generate_synthetic_acl(
        xmark_doc, SyntheticACLConfig(accessibility_ratio=0.5, seed=3), 4
    )
    dol = DOL.from_matrix(matrix)
    updater = DOLUpdater(dol)
    n = len(xmark_doc)
    deltas = []
    for _ in range(300):
        start = rng.randrange(n)
        end = xmark_doc.subtree_end(start)
        subject = rng.randrange(4)
        delta = updater.set_subject_accessibility(
            start, end, subject, rng.random() < 0.5
        )
        DOLUpdater.check_proposition1(delta)
        deltas.append(delta)
    dol.validate()
    print_table(
        "Proposition 1 over 300 random subtree updates",
        ["metric", "value"],
        [
            ("max delta", max(deltas)),
            ("mean delta", sum(deltas) / len(deltas)),
            ("final transitions", dol.n_transitions),
        ],
    )
    assert max(deltas) <= 2

    def one_update():
        start = rng.randrange(n)
        updater.set_subject_accessibility(
            start, xmark_doc.subtree_end(start), 0, True
        )

    benchmark(one_update)


def test_subject_addition_is_codebook_only(xmark_doc, benchmark):
    store = _store(xmark_doc)
    dol = store.labeling
    transitions_before = list(dol.positions)
    pager_writes_before = store.pager.stats.writes

    new_subject = dol.codebook.add_subject(initially_like=0)
    assert dol.positions == transitions_before  # embedded data untouched
    assert store.pager.stats.writes == pager_writes_before  # no page I/O
    # the new subject's rights mirror subject 0's
    for pos in range(0, store.n_nodes, 57):
        assert dol.accessible(new_subject, pos) == dol.accessible(0, pos)

    benchmark(dol.codebook.add_subject)


def test_subject_removal_lazy_compaction(xmark_doc, benchmark):
    store = _store(xmark_doc)
    book = store.labeling.codebook
    book.remove_subject(2)
    # codes remain valid; duplicates may exist awaiting lazy compaction
    for code in store.labeling.codes:
        book.decode(code)
    assert book.duplicate_entry_count() >= 0
    benchmark(book.duplicate_entry_count)

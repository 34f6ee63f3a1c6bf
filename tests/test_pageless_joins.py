"""A ``//``-chain plan over a store reads no page: Q4-Q6 cost zero page reads.

Q4-Q6 fold single-node NoK subtrees with structural joins. Each root's
node test is answered by the tag index of the plan's snapshot document,
access by the decoded run list, and the join by the document's subtree
sizes, so nothing in the plan needs a page: over a file-backed store
with cold caches they make no logical page read, under Cho and view
alike, and still answer exactly as the in-memory engine and the
brute-force oracle do — even when a page holding answers has rotted,
since no operator reads it.
"""

import random

import pytest

from repro.acl.model import AccessMatrix
from repro.bench.queries import JOIN_QUERIES, QUERIES
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.storage.nokstore import NoKStore
from repro.storage.persist import open_store, save_store
from repro.xmark.generator import XMarkConfig, generate_document

PAGE_SIZE = 512


@pytest.fixture(scope="module")
def doc():
    return generate_document(XMarkConfig(n_items=30, seed=7))


@pytest.fixture(scope="module")
def matrix(doc):
    """Subject 0 sees the root path but not a scattering of subtrees, so
    neither semantics lets the static pre-pass answer the plan."""
    rng = random.Random(5)
    matrix = AccessMatrix(len(doc), 2)
    matrix.grant_range(0, 0, len(doc))
    for pos in rng.sample(range(1, len(doc)), len(doc) // 20):
        for inner in range(pos, doc.subtree_end(pos)):
            matrix.set_accessible(0, inner, False)
    return matrix


@pytest.fixture
def saved(tmp_path, doc, matrix):
    path = str(tmp_path / "store.db")
    store = NoKStore(doc, DOL.from_matrix(matrix), path=path, page_size=PAGE_SIZE)
    save_store(store)
    store.close()
    return path


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _expected(doc, matrix, qid, subject, semantics):
    pattern = parse_query(QUERIES[qid])
    if subject is None:
        return evaluate_reference(doc, pattern)
    return evaluate_reference(doc, pattern, matrix.masks(), subject, semantics)


CASES = [(None, CHO), (0, CHO), (0, VIEW)]


def _check_pageless(store, doc, matrix, in_memory):
    engine = QueryEngine(store.doc, labeling=store.labeling, store=store)
    for qid in JOIN_QUERIES:
        for subject, semantics in CASES:
            store.drop_caches()
            plan = engine.compile(QUERIES[qid], subject=subject, semantics=semantics)
            assert plan.prepass is None  # the plan really runs
            result = plan.run()
            stats = result.stats
            assert stats.logical_page_reads == 0, (qid, semantics)
            assert stats.physical_page_reads == 0, (qid, semantics)
            assert stats.pages_decoded_columnar == 0, (qid, semantics)
            assert stats.corrupted_pages == []
            want = in_memory.evaluate(
                QUERIES[qid], subject=subject, semantics=semantics
            ).positions
            assert result.positions == want, (qid, semantics)
            assert set(want) == _expected(doc, matrix, qid, subject, semantics)
            assert want  # the zero above is not an empty answer's zero


def test_joins_read_no_page_cold(saved, doc, matrix):
    store = open_store(saved)
    try:
        _check_pageless(store, doc, matrix, QueryEngine.build(doc, matrix))
    finally:
        store.close()


def test_joins_answer_over_a_rotted_answer_page(saved, doc, matrix):
    store = open_store(saved)
    try:
        answer = QueryEngine.build(doc, matrix).evaluate(
            QUERIES["Q6"], subject=0
        ).positions[0]
        _flip_byte(saved, store.page_of(answer) * PAGE_SIZE + 40)
        _check_pageless(store, doc, matrix, QueryEngine.build(doc, matrix))
    finally:
        store.close()

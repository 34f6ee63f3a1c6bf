"""Differential suite: the operator pipeline against the brute-force oracle.

The engine's answers must equal :func:`repro.nok.reference.evaluate_reference`
across every combination of secure semantics (cho / view), labeling
backend (dol / cam / naive), ordered and unordered matching, in-memory
and store-backed execution, single- and multi-subject evaluation — and
across accessibility updates (a commit must invalidate the decoded run
lists, not serve stale ones).
"""

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.labeling.registry import build_labeling
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document

BACKENDS = ("dol", "cam", "naive")

QUERY_SET = (
    "//item",
    "/site/regions",
    "//item[name]/quantity",
    "//listitem//keyword",
    "//parlist//parlist",
)


@pytest.fixture(scope="module")
def doc():
    return generate_document(XMarkConfig(n_items=24, seed=17))


@pytest.fixture(scope="module")
def matrix(doc):
    return generate_synthetic_acl(
        doc,
        SyntheticACLConfig(
            accessibility_ratio=0.6, propagation_ratio=0.3, seed=5
        ),
        n_subjects=3,
    )


@pytest.fixture(scope="module")
def oracle(doc, matrix):
    """Memoized oracle answers (they do not depend on the backend).

    The oracle takes one subject; a subject *set* is folded into a
    single mask column (bit 0 = any of the set's bits) first.
    """
    masks = matrix.masks()
    memo = {}

    def expected(query, subject=None, semantics=CHO, ordered=False):
        key = (query, subject, semantics, ordered)
        if key not in memo:
            column, one = masks, subject
            if isinstance(subject, tuple):
                bits = sum(1 << s for s in subject)
                column, one = [int(bool(m & bits)) for m in masks], 0
            memo[key] = sorted(evaluate_reference(
                doc, parse_query(query), column, one, semantics, ordered
            ))
        return memo[key]

    return expected


@pytest.mark.parametrize("ordered", (False, True))
@pytest.mark.parametrize("semantics", (CHO, VIEW))
@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_oracle_in_memory(doc, matrix, oracle, backend, semantics, ordered):
    engine = QueryEngine.build(doc, matrix, labeling=backend)
    for query in QUERY_SET:
        for subject in range(matrix.n_subjects):
            got = engine.evaluate(
                query, subject=subject, semantics=semantics, ordered=ordered
            )
            assert got.positions == oracle(query, subject, semantics, ordered)


@pytest.mark.parametrize("semantics", (CHO, VIEW))
@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_oracle_store_backed(doc, matrix, oracle, backend, semantics):
    engine = QueryEngine.build(
        doc, matrix, use_store=True, page_size=256, labeling=backend
    )
    for query in QUERY_SET:
        got = engine.evaluate(query, subject=1, semantics=semantics)
        assert got.positions == oracle(query, 1, semantics)


@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_oracle_user_level(doc, matrix, oracle, backend):
    """Multi-subject evaluation: run lists union the subjects' rights."""
    engine = QueryEngine.build(doc, matrix, labeling=backend)
    for query in QUERY_SET:
        got = engine.evaluate(query, subject=(0, 2), semantics=CHO)
        assert got.positions == oracle(query, (0, 2))


def test_non_secure_plans_match_oracle(doc, oracle):
    engine = QueryEngine.build(doc)
    for query in QUERY_SET:
        assert engine.evaluate(query).positions == oracle(query)


def test_run_cache_serves_repeats_and_invalidates_on_store_commit(doc, matrix):
    engine = QueryEngine.build(doc, matrix, use_store=True, page_size=256)
    first = engine.evaluate("//item", subject=0)
    assert first.stats.run_cache_misses == 1

    again = engine.evaluate("//item", subject=0)
    assert again.stats.run_cache_hits == 1
    assert again.stats.run_cache_misses == 0
    assert again.positions == first.positions

    # Revoke subject 0 everywhere: the commit bumps the store epoch, so
    # the next query keys a fresh run list and sees the new policy.
    engine.store.update_subject_range(0, len(doc), 0, False)
    after = engine.evaluate("//item", subject=0)
    assert after.stats.run_cache_misses == 1
    assert after.positions == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_cache_invalidates_on_in_memory_update(doc, matrix, backend):
    labeling = build_labeling(backend, doc, matrix)
    engine = QueryEngine(doc, labeling=labeling)
    before = engine.evaluate("//item", subject=1)
    epoch = labeling.runs_epoch

    labeling.set_subject_accessibility(0, len(doc), 1, True)
    assert labeling.runs_epoch > epoch

    after = engine.evaluate("//item", subject=1)
    assert after.stats.run_cache_misses == 1
    assert len(after.positions) >= len(before.positions)
    # With the subject granted everywhere, cho answers = non-secure answers.
    assert after.positions == engine.evaluate("//item").positions


def test_probes_saved_positivity(doc, matrix):
    engine = QueryEngine.build(doc, matrix)
    assert engine.evaluate("//item", subject=0).stats.probes_saved > 0


def test_limit_streams(doc, matrix):
    engine = QueryEngine.build(doc, matrix)
    full = engine.evaluate("//item", subject=0)
    assert full.n_answers > 2
    limited = engine.evaluate("//item", subject=0, limit=2)
    assert limited.n_answers == 2
    assert set(limited.positions) <= set(full.positions)


def test_explain_analyze_reports_batches(doc, matrix):
    engine = QueryEngine.build(doc, matrix)
    result, text = engine.explain_analyze("//item", subject=0)
    assert result.n_answers > 0
    assert "batches=" in text
    assert "rows/batch=" in text

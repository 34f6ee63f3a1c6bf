"""Differential suite: the operator pipeline against the brute-force oracle.

The engine's answers must equal :func:`repro.nok.reference.evaluate_reference`
across every combination of secure semantics (cho / view), ordered and
unordered matching, in-memory and store-backed execution, single- and
multi-subject evaluation — and
across accessibility updates (a commit must invalidate the decoded run
lists, not serve stale ones).
"""

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document

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
    """Memoized oracle answers.

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
def test_matches_oracle_in_memory(doc, matrix, oracle, semantics, ordered):
    engine = QueryEngine.build(doc, matrix)
    for query in QUERY_SET:
        for subject in range(matrix.n_subjects):
            got = engine.evaluate(
                query, subject=subject, semantics=semantics, ordered=ordered
            )
            assert got.positions == oracle(query, subject, semantics, ordered)


@pytest.mark.parametrize("semantics", (CHO, VIEW))
def test_matches_oracle_store_backed(doc, matrix, oracle, semantics):
    engine = QueryEngine.build(doc, matrix, use_store=True, page_size=256)
    for query in QUERY_SET:
        got = engine.evaluate(query, subject=1, semantics=semantics)
        assert got.positions == oracle(query, 1, semantics)


@pytest.mark.parametrize("use_store", (False, True), ids=("memory", "store"))
@pytest.mark.parametrize("semantics", (CHO, VIEW))
def test_matches_oracle_user_level(doc, matrix, oracle, semantics, use_store):
    """Multi-subject evaluation: run lists union the subjects' rights
    (under view, before the root-path rule is applied to the union)."""
    engine = QueryEngine.build(doc, matrix, use_store=use_store, page_size=256)
    for subjects in ((0, 2), (0, 1, 2)):
        for query in QUERY_SET:
            got = engine.evaluate(query, subject=subjects, semantics=semantics)
            assert got.positions == oracle(query, subjects, semantics)


@pytest.mark.parametrize("semantics", (CHO, VIEW))
def test_every_access_check_is_a_probe_saved(doc, matrix, semantics):
    engine = QueryEngine.build(doc, matrix)
    checks = 0
    for query in QUERY_SET:
        stats = engine.evaluate(query, subject=1, semantics=semantics).stats
        assert stats.probes_saved == stats.access_checks
        checks += stats.access_checks
    assert checks > 0


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


def test_run_cache_invalidates_on_in_memory_update(doc, matrix):
    labeling = DOL.from_matrix(matrix)
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


#: Seeded (n_items, doc seed) x (n_subjects, accessibility, propagation,
#: acl seed) grid: small documents under 1-4 subjects and sparse to
#: dense policies.
GRID_DOCS = ((4, 7), (8, 21), (12, 99))
GRID_ACLS = ((1, 0.5, 0.3, 1), (2, 0.7, 0.2, 13), (3, 0.3, 0.5, 42), (4, 0.9, 0.1, 77))


def _grid_engine(doc_config, acl_config):
    n_items, doc_seed = doc_config
    n_subjects, accessibility, propagation, acl_seed = acl_config
    grid_doc = generate_document(XMarkConfig(n_items=n_items, seed=doc_seed))
    grid_matrix = generate_synthetic_acl(
        grid_doc,
        SyntheticACLConfig(
            propagation_ratio=propagation,
            accessibility_ratio=accessibility,
            seed=acl_seed,
        ),
        n_subjects=n_subjects,
    )
    labeling = DOL.from_matrix(grid_matrix)
    return grid_doc, labeling, QueryEngine(grid_doc, labeling=labeling)


def _assert_grid_matches_oracle(grid_doc, labeling, engine):
    masks = labeling.to_masks()
    for query in QUERY_SET + ("//person/name",):
        for semantics in (CHO, VIEW):
            for subject in range(labeling.codebook.n_subjects):
                got = engine.evaluate(query, subject=subject, semantics=semantics)
                assert got.positions == sorted(evaluate_reference(
                    grid_doc, parse_query(query), masks, subject, semantics
                )), (query, semantics, subject)


@pytest.mark.parametrize("acl_config", GRID_ACLS)
@pytest.mark.parametrize("doc_config", GRID_DOCS)
def test_matches_oracle_on_policy_grid(doc_config, acl_config):
    """Every query, subject and semantics over one grid cell."""
    _assert_grid_matches_oracle(*_grid_engine(doc_config, acl_config))


@pytest.mark.parametrize("acl_config", GRID_ACLS)
@pytest.mark.parametrize("doc_config", GRID_DOCS)
def test_matches_oracle_after_accessibility_update(doc_config, acl_config):
    """The same check after an in-memory grant and revoke."""
    grid_doc, labeling, engine = _grid_engine(doc_config, acl_config)
    labeling.set_subject_accessibility(2, len(grid_doc) // 2 + 2, 0, True)
    labeling.set_node_accessibility(1, 0, False)
    _assert_grid_matches_oracle(grid_doc, labeling, engine)

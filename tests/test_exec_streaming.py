"""Streaming acceptance tests: the pipeline must be lazy end to end.

The Volcano plan only does work that the consumer demands.  A ``Limit(k)``
plan over a large store-backed document must therefore perform strictly
fewer access checks and strictly fewer page reads than draining the same
query without a limit — that is the observable difference between a
streaming executor and a materialize-then-truncate one.
"""

import itertools

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.nok.engine import QueryEngine
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document


@pytest.fixture(scope="module")
def xdoc():
    return generate_document(XMarkConfig(n_items=120, seed=3))


@pytest.fixture(scope="module")
def matrix(xdoc):
    config = SyntheticACLConfig(accessibility_ratio=0.8, seed=5)
    return generate_synthetic_acl(xdoc, config, n_subjects=1)


def _stored_engine(xdoc, matrix):
    return QueryEngine.build(
        xdoc, matrix, use_store=True, page_size=128, buffer_capacity=4
    )


@pytest.mark.parametrize("semantics", [CHO, VIEW])
def test_limit_saves_access_checks_and_page_reads(xdoc, matrix, semantics):
    engine = _stored_engine(xdoc, matrix)
    # ``[name]`` makes the matcher read each candidate's page; a bare
    # ``//item`` reads none, limited or not
    full = engine.evaluate("//item[name]", subject=0, semantics=semantics)
    assert full.n_answers > 3  # the limit below must actually bite

    limited = engine.evaluate(
        "//item[name]", subject=0, semantics=semantics, limit=2
    )
    assert limited.n_answers == 2
    assert limited.stats.access_checks < full.stats.access_checks
    assert limited.stats.logical_page_reads < full.stats.logical_page_reads


def test_limit_saves_candidates_in_memory(xdoc, matrix):
    engine = QueryEngine.build(xdoc, matrix)
    full = engine.evaluate("//item", subject=0)
    limited = engine.evaluate("//item", subject=0, limit=1)
    assert limited.stats.candidates < full.stats.candidates
    assert limited.stats.access_checks < full.stats.access_checks


def test_stream_is_lazy(xdoc, matrix):
    """Pulling two answers from the iterator must not drain the scan."""
    engine = QueryEngine.build(xdoc, matrix)
    plan = engine.compile("//item", subject=0)
    first_two = list(itertools.islice(plan.execute(), 2))
    assert len(first_two) == 2

    full = engine.compile("//item", subject=0)
    list(full.execute())
    scan_rows = [op for op in full.operators() if op.name == "TagIndexScan"]
    partial_scan = [op for op in plan.operators() if op.name == "TagIndexScan"]
    assert partial_scan[0].stats.rows_out < scan_rows[0].stats.rows_out


def test_limited_prefix_matches_unlimited(xdoc, matrix):
    engine = _stored_engine(xdoc, matrix)
    full = engine.evaluate("//item", subject=0).positions
    limited = engine.evaluate("//item", subject=0, limit=4).positions
    assert set(limited) <= set(full)
    assert len(limited) == 4

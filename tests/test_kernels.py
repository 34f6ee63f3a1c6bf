"""Kernel-registry and backend-equivalence suite.

Two layers of guarantees:

1. **Primitive equivalence** — for arbitrary sorted integer inputs, the
   stdlib and numpy kernels return byte-identical ``array('q')`` outputs
   for every primitive (``filter_runs``, ``join_ranges``).
2. **Query-level equivalence** — whole secure evaluations (both
   semantics, every labeling backend, memory and store-backed) return
   identical positions *and* identical accounting whichever backend is
   active.

The numpy legs skip cleanly when numpy is absent, so the suite is the
same file in both CI legs; ``REPRO_KERNELS`` / :func:`set_backend`
select explicitly.
"""

import random
from array import array

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.exec import kernels as K
from repro.exec.kernels import (
    StdlibKernels,
    active_kernels,
    available_backends,
    set_backend,
)
from repro.nok.engine import QueryEngine
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document

HAS_NUMPY = "numpy" in available_backends()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")

QUERIES = ("//item", "//item[name]/quantity", "//listitem//keyword")


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    set_backend("auto" if HAS_NUMPY else "stdlib")


@pytest.fixture(scope="module")
def doc():
    return generate_document(XMarkConfig(n_items=20, seed=11))


@pytest.fixture(scope="module")
def matrix(doc):
    return generate_synthetic_acl(
        doc,
        SyntheticACLConfig(
            accessibility_ratio=0.55, propagation_ratio=0.3, seed=9
        ),
        n_subjects=3,
    )


# -- registry ------------------------------------------------------------------


def test_stdlib_always_available():
    assert "stdlib" in available_backends()
    assert set_backend("stdlib").name == "stdlib"


def test_active_kernels_is_cached():
    pinned = set_backend("stdlib")
    assert active_kernels() is pinned


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        set_backend("cuda")


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "stdlib")
    assert set_backend(None).name == "stdlib"


@needs_numpy
def test_numpy_selected_automatically_when_importable():
    assert set_backend("auto").name == "numpy"


def test_explicit_numpy_without_numpy_fails():
    if HAS_NUMPY:
        assert set_backend("numpy").name == "numpy"
    else:
        with pytest.raises(ImportError):
            set_backend("numpy")


# -- primitive equivalence -----------------------------------------------------


def _random_runs(rng, hi):
    starts = array("q", sorted(rng.sample(range(hi), rng.randint(1, 40))))
    if starts[0] != 0:
        starts.insert(0, 0)
    flags = bytes(rng.randint(0, 1) for _ in starts)
    return starts, flags


@needs_numpy
def test_filter_runs_equivalence_random():
    rng = random.Random(1234)
    stdlib, numpy_k = StdlibKernels(), K.NumpyKernels()
    for _ in range(50):
        hi = rng.randint(1, 3000)
        starts, flags = _random_runs(rng, hi)
        positions = array(
            "q", sorted(rng.sample(range(hi), min(hi, rng.randint(0, 200))))
        )
        a = stdlib.filter_runs(positions, starts, flags, hi)
        b = numpy_k.filter_runs(positions, starts, flags, hi)
        assert a == b and a.typecode == b.typecode == "q"


@needs_numpy
def test_join_ranges_equivalence_random():
    rng = random.Random(7)
    stdlib, numpy_k = StdlibKernels(), K.NumpyKernels()
    for _ in range(50):
        haystack = array(
            "q", sorted(rng.sample(range(5000), rng.randint(0, 300)))
        )
        anchors = array("q", sorted(rng.sample(range(5000), 50)))
        ends = array("q", (a + rng.randint(0, 400) for a in anchors))
        a_lo, a_hi = stdlib.join_ranges(anchors, ends, haystack)
        b_lo, b_hi = numpy_k.join_ranges(anchors, ends, haystack)
        assert list(a_lo) == list(b_lo)
        assert list(a_hi) == list(b_hi)


@needs_numpy
def test_empty_inputs_agree():
    stdlib, numpy_k = StdlibKernels(), K.NumpyKernels()
    empty = array("q")
    for k in (stdlib, numpy_k):
        assert k.filter_runs(empty, array("q", [0]), b"\x01", 10) == empty
        assert k.filter_runs(array("q", [1]), array("q"), b"", 10) == empty
        los, his = k.join_ranges(empty, empty, empty)
        assert list(los) == list(his) == []


# -- query-level equivalence ---------------------------------------------------


def _positions_and_stats(engine, query, subject, semantics):
    result = engine.evaluate(query, subject=subject, semantics=semantics)
    stats = result.stats
    return result.positions, (
        stats.candidates,
        stats.candidates_skipped_by_header,
        stats.access_checks,
        stats.probes_saved,
    )


@needs_numpy
@pytest.mark.parametrize("use_store", (False, True))
@pytest.mark.parametrize("semantics", (CHO, VIEW))
def test_queries_identical_across_kernel_backends(doc, matrix, semantics, use_store):
    engine = QueryEngine.build(
        doc, matrix, use_store=use_store, **({"page_size": 256} if use_store else {}),
    )
    for query in QUERIES:
        for subject in range(matrix.n_subjects):
            set_backend("stdlib")
            with_stdlib = _positions_and_stats(engine, query, subject, semantics)
            set_backend("numpy")
            with_numpy = _positions_and_stats(engine, query, subject, semantics)
            assert with_stdlib == with_numpy


def test_stats_report_active_backend(doc, matrix):
    set_backend("stdlib")
    engine = QueryEngine.build(doc, matrix)
    result = engine.evaluate("//item", subject=0)
    assert result.stats.kernel_backend == "stdlib"


def test_columnar_decodes_counted_store_backed(doc, matrix):
    engine = QueryEngine.build(doc, matrix, use_store=True, page_size=256)
    result = engine.evaluate("//item[name]", subject=0)
    assert result.stats.pages_decoded_columnar > 0
    assert engine.store.columnar_decodes >= result.stats.pages_decoded_columnar


def test_explain_analyze_shows_kernel_line(doc, matrix):
    set_backend("stdlib")
    engine = QueryEngine.build(doc, matrix, use_store=True, page_size=256)
    _, text = engine.explain_analyze("//item", subject=0)
    assert "kernels: stdlib" in text
    assert "columnar pages decoded=" in text


def test_service_metrics_report_kernels(doc, matrix):
    from repro.server.service import QueryService, ServiceConfig

    engine = QueryEngine.build(doc, matrix, use_store=True, page_size=256)
    service = QueryService(engine, ServiceConfig(workers=1))
    try:
        service.evaluate("//item[name]", subject=0)
        metrics = service.metrics()
        assert metrics["kernels"]["backend"] in ("stdlib", "numpy")
        assert "stdlib" in metrics["kernels"]["available"]
        assert metrics["columnar_decodes"] > 0
    finally:
        service.close()

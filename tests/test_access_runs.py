"""Property-based tests (hypothesis) for the bulk ``access_runs`` API.

The contract (DESIGN.md §11): for any subject set and any window
``[lo, hi)``, ``access_runs`` yields maximal runs that tile the window
exactly — no gaps, no overlaps, no two adjacent runs with the same flag —
and each run's flag equals the per-node ``accessible`` answer for every
position it covers. The DOL decodes runs natively from transition codes,
so these properties are the proof that the fast path agrees bit for bit
with the probe interface and with :func:`runs_from_predicate` over the
matrix's own per-node masks.

:func:`view_runs` is held to the per-node root-path definition of view
visibility the query oracle (``nok/reference.py``) uses.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.model import AccessMatrix
from repro.dol.labeling import DOL
from repro.labeling.runs import RunList, runs_from_flags, runs_from_predicate, view_runs
from repro.xmltree.document import NO_NODE
from tests.conftest import random_document

N_SUBJECTS = 3


@st.composite
def labeled_document(draw):
    """A random document plus a random per-node / per-subject ACL grid."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=1, max_value=60))
    doc = random_document(random.Random(seed), n)
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << N_SUBJECTS) - 1),
            min_size=n,
            max_size=n,
        )
    )
    matrix = AccessMatrix(n, N_SUBJECTS)
    for pos, mask in enumerate(masks):
        for subject in range(N_SUBJECTS):
            if mask >> subject & 1:
                matrix.set_accessible(subject, pos, True)
    return doc, matrix


def _window(draw, n):
    lo = draw(st.integers(min_value=0, max_value=n - 1))
    hi = draw(st.integers(min_value=lo + 1, max_value=n))
    return lo, hi


@st.composite
def labeled_document_and_window(draw):
    doc, matrix = draw(labeled_document())
    lo, hi = _window(draw, len(doc))
    return doc, matrix, lo, hi


def _check_tiling(runs, lo, hi):
    """Runs tile [lo, hi) contiguously and are maximal."""
    assert runs, "empty run sequence for a non-empty window"
    assert runs[0][0] == lo
    assert runs[-1][1] == hi
    for (s1, e1, f1), (s2, e2, f2) in zip(runs, runs[1:]):
        assert e1 == s2, "gap or overlap between runs"
        assert f1 != f2, "adjacent runs with equal flags are not maximal"
    for start, end, _flag in runs:
        assert start < end


@settings(max_examples=60)
@given(labeled_document_and_window(), st.integers(min_value=0, max_value=N_SUBJECTS - 1))
def test_access_runs_reconstructs_accessible(case, subject):
    doc, matrix, lo, hi = case
    labeling = DOL.from_matrix(matrix)
    runs = list(labeling.access_runs(subject, lo, hi))
    _check_tiling(runs, lo, hi)
    for start, end, flag in runs:
        for pos in range(start, end):
            assert flag == labeling.accessible(subject, pos), (subject, pos)


@settings(max_examples=40)
@given(labeled_document_and_window())
def test_access_runs_any_reconstructs_union(case):
    doc, matrix, lo, hi = case
    subjects = (0, 2)
    labeling = DOL.from_matrix(matrix)
    runs = list(labeling.access_runs_any(subjects, lo, hi))
    _check_tiling(runs, lo, hi)
    for start, end, flag in runs:
        for pos in range(start, end):
            assert flag == labeling.accessible_any(subjects, pos), pos


@settings(max_examples=40)
@given(labeled_document_and_window(), st.integers(min_value=0, max_value=N_SUBJECTS - 1))
def test_runs_equal_runs_from_predicate(case, subject):
    """The transition decode equals the per-node reference over the matrix."""
    doc, matrix, lo, hi = case
    masks = matrix.masks()
    expected = runs_from_predicate(lambda pos: masks[pos] >> subject & 1, lo, hi)
    assert list(DOL.from_matrix(matrix).access_runs(subject, lo, hi)) == list(expected)


@settings(max_examples=40)
@given(labeled_document_and_window(), st.integers(min_value=0, max_value=N_SUBJECTS - 1))
def test_filter_positions_equals_per_node_filter(case, subject):
    doc, matrix, lo, hi = case
    labeling = DOL.from_matrix(matrix)
    run_list = RunList.from_runs(labeling.access_runs(subject, lo, hi), lo, hi)
    positions = list(range(lo, hi))
    expected = [p for p in positions if labeling.accessible(subject, p)]
    assert list(run_list.filter_positions(positions)) == expected
    assert run_list.count_accessible() == len(expected)
    runs = list(run_list.runs())
    for pos in positions:
        assert run_list.is_accessible(pos) == labeling.accessible(subject, pos)
        assert run_list.run_at(pos) in runs
        start, end, _flag = run_list.run_at(pos)
        assert start <= pos < end


@settings(max_examples=40)
@given(labeled_document_and_window(), st.sampled_from([(0, 1), (0, 2), (0, 1, 2)]))
def test_union_runs_matches_any_predicate(case, subjects):
    """The union decode equals the per-node any-of reference over the matrix."""
    doc, matrix, lo, hi = case
    masks = matrix.masks()
    bits = sum(1 << subject for subject in subjects)
    expected = runs_from_predicate(lambda pos: masks[pos] & bits, lo, hi)
    got = DOL.from_matrix(matrix).access_runs_any(subjects, lo, hi)
    assert list(got) == list(expected)


# -- view runs -----------------------------------------------------------------


def _root_path_flags(doc, masks, bits):
    """Per-node view visibility: every node on the root path accessible."""
    visible = [False] * len(doc)
    for pos in range(len(doc)):
        par = doc.parent[pos]
        above = visible[par] if par != NO_NODE else True
        visible[pos] = above and bool(masks[pos] & bits)
    return visible


@settings(max_examples=80)
@given(labeled_document(), st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)]))
def test_view_runs_equal_root_path_reference(case, subjects):
    doc, matrix = case
    n = len(doc)
    cho = RunList.from_runs(
        DOL.from_matrix(matrix).access_runs_any(subjects, 0, n), 0, n
    )
    bits = sum(1 << subject for subject in subjects)
    expected = runs_from_flags(_root_path_flags(doc, matrix.masks(), bits))
    assert list(view_runs(cho, doc.subtree_end).runs()) == list(expected)


def _view(doc, denied):
    """View runs of one subject denied exactly the ``denied`` positions."""
    cho = RunList.from_flags([pos not in denied for pos in range(len(doc))])
    return list(view_runs(cho, doc.subtree_end).runs())


# paper_doc is a0(b1, c2, d3, e4(f5, g6, h7(i8, j9, k10, l11)))


def test_view_runs_all_accessible(paper_doc):
    assert _view(paper_doc, set()) == [(0, 12, True)]


def test_view_runs_inaccessible_root_hides_everything(paper_doc):
    # the run list a static deny reads: nothing accessible
    assert _view(paper_doc, {0}) == [(0, 12, False)]


def test_view_runs_inaccessible_last_node(paper_doc):
    assert _view(paper_doc, {11}) == [(0, 11, True), (11, 12, False)]


def test_view_runs_block_hides_accessible_descendants(paper_doc):
    # h denied, i..l accessible: the hidden interval outruns the Cho run
    assert _view(paper_doc, {7}) == [(0, 7, True), (7, 12, False)]


def test_view_runs_run_ending_inside_accessible_ancestor(paper_doc):
    # f and g denied under accessible e: two hops, stopping at h
    assert _view(paper_doc, {5, 6}) == [
        (0, 5, True), (5, 7, False), (7, 12, True),
    ]


def test_view_runs_one_hop_merges_two_runs(paper_doc):
    # h and j denied with i accessible between them: h's hop covers j
    assert _view(paper_doc, {7, 9}) == [(0, 7, True), (7, 12, False)]


def test_view_runs_nested_blocks_merge(paper_doc):
    assert _view(paper_doc, {4, 7}) == [(0, 4, True), (4, 12, False)]

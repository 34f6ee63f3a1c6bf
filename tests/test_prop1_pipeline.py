"""Proposition 1 under the operator pipeline.

Every accessibility or structural update adds at most 2 transition nodes
beyond those intrinsic to any inserted data (Proposition 1, Section 3.4)
— exercised here at the positions where off-by-one bugs live (document
start, document end, and positions adjacent to existing transitions) —
and after each update the compiled physical plan must still agree with
the brute-force reference oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.dol.updates import DOLUpdater
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.secure.semantics import CHO, VIEW
from repro.xmark.generator import XMarkConfig, generate_document

N_SUBJECTS = 2


@pytest.fixture(scope="module")
def xdoc():
    return generate_document(XMarkConfig(n_items=20, seed=13))


@pytest.fixture(scope="module")
def matrix(xdoc):
    config = SyntheticACLConfig(accessibility_ratio=0.6, seed=29)
    return generate_synthetic_acl(xdoc, config, n_subjects=N_SUBJECTS)


def _fresh_dol(matrix):
    return DOL.from_matrix(matrix)


def _edge_positions(dol):
    """Document start, document end, and transition-adjacent positions."""
    n = dol.n_nodes
    positions = {0, n - 1}
    for t in dol.positions:
        for pos in (t - 1, t, t + 1):
            if 0 <= pos < n:
                positions.add(pos)
    return sorted(positions)


class TestAccessibilityUpdates:
    def test_node_updates_at_edge_positions(self, matrix):
        dol = _fresh_dol(matrix)
        for pos in _edge_positions(dol):
            for subject in range(N_SUBJECTS):
                for value in (False, True):
                    delta = DOLUpdater(dol).set_node_accessibility(
                        pos, subject, value
                    )
                    assert delta <= 2, (pos, subject, value)
                    DOLUpdater.check_proposition1(delta)

    def test_range_updates_touching_boundaries(self, matrix):
        dol = _fresh_dol(matrix)
        n = dol.n_nodes
        for start, end in [(0, 3), (n - 3, n), (0, n), (n // 2, n // 2 + 5)]:
            delta = DOLUpdater(dol).set_range_mask(start, end, 0b01)
            assert delta <= 2, (start, end)
            dol = _fresh_dol(matrix)

    def test_queries_correct_after_each_update(self, xdoc, matrix):
        dol = _fresh_dol(matrix)
        updater = DOLUpdater(dol)
        pattern = parse_query("//item")
        probes = _edge_positions(dol)[:8]
        for index, pos in enumerate(probes):
            delta = updater.set_node_accessibility(pos, 0, index % 2 == 0)
            DOLUpdater.check_proposition1(delta)
            engine = QueryEngine(xdoc, labeling=dol)
            masks = dol.to_masks()
            for semantics in (CHO, VIEW):
                got = set(engine.evaluate(pattern, subject=0, semantics=semantics).positions)
                want = evaluate_reference(xdoc, pattern, masks, 0, semantics)
                assert got == want, (pos, semantics)


class TestStructuralUpdates:
    def test_insert_at_start_end_and_transitions(self, matrix):
        base = _fresh_dol(matrix)
        probes = [0, base.n_nodes] + [t for t in base.positions if t < base.n_nodes]
        for at in probes[:12]:
            dol = _fresh_dol(matrix)
            delta = DOLUpdater(dol).insert_range(at, [0b11, 0b01, 0b11])
            assert delta <= 2, at
            DOLUpdater.check_proposition1(delta, "insert")

    def test_delete_at_start_end_and_transitions(self, matrix):
        base = _fresh_dol(matrix)
        n = base.n_nodes
        probes = [(0, 2), (n - 2, n)] + [
            (t, min(t + 3, n)) for t in base.positions if t + 1 < n
        ]
        for start, end in probes[:12]:
            dol = _fresh_dol(matrix)
            delta = DOLUpdater(dol).delete_range(start, end)
            assert delta <= 2, (start, end)
            DOLUpdater.check_proposition1(delta, "delete")


class TestProperty:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_update_then_query(self, xdoc, matrix, data):
        dol = _fresh_dol(matrix)
        n = dol.n_nodes
        updater = DOLUpdater(dol)
        for _ in range(data.draw(st.integers(1, 4), label="n_updates")):
            start = data.draw(st.integers(0, n - 1), label="start")
            end = data.draw(st.integers(start + 1, n), label="end")
            mask = data.draw(st.integers(0, (1 << N_SUBJECTS) - 1), label="mask")
            delta = updater.set_range_mask(start, end, mask)
            assert delta <= 2
        engine = QueryEngine(xdoc, labeling=dol)
        masks = dol.to_masks()
        got = set(engine.evaluate("//item//keyword", subject=0).positions)
        want = evaluate_reference(xdoc, parse_query("//item//keyword"), masks, 0, CHO)
        assert got == want

"""End-to-end multi-mode scenario on the LiveLink surrogate.

One document, ten permission levels, dozens of subjects: query under
different action modes, confirm nesting, and run everything off a single
combined multi-mode DOL.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acl.model import AccessMatrix
from repro.acl.surrogates import generate_livelink
from repro.dol.multimode import MultiModeDOL
from repro.nok.engine import QueryEngine


@pytest.fixture(scope="module")
def dataset():
    return generate_livelink(n_items=400, n_groups=5, n_users=12, seed=21)


class TestPerModeQuerying:
    def test_deeper_modes_return_fewer_answers(self, dataset):
        """Permission nesting: delete answers ⊆ see answers, per subject."""
        see = QueryEngine.build(dataset.doc, dataset.matrix, mode="see")
        delete = QueryEngine.build(dataset.doc, dataset.matrix, mode="delete")
        for subject in range(0, dataset.n_subjects, 4):
            see_items = set(see.evaluate("//item", subject=subject).positions)
            delete_items = set(delete.evaluate("//item", subject=subject).positions)
            assert delete_items <= see_items, subject

    def test_combined_dol_answers_equal_per_mode(self, dataset):
        """A combined multi-mode DOL answers exactly like per-mode DOLs."""
        combined = MultiModeDOL.from_matrix(dataset.matrix)
        for mode in ("see", "modify"):
            per_mode_engine = QueryEngine.build(dataset.doc, dataset.matrix, mode=mode)
            for subject in (0, 7):
                per_mode = set(
                    per_mode_engine.evaluate("//item", subject=subject).positions
                )
                # Evaluate via the combined DOL's column for (subject, mode).
                column = combined.column(subject, mode)
                column_engine = QueryEngine(dataset.doc, labeling=combined.dol)
                via_combined = set(
                    column_engine.evaluate("//item", subject=column).positions
                )
                assert via_combined == per_mode, (mode, subject)


class TestMultiModeProperties:
    @given(
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, seed, n_modes, n_subjects, n_nodes):
        import random

        rng = random.Random(seed)
        modes = [f"m{i}" for i in range(n_modes)]
        matrix = AccessMatrix(n_nodes, n_subjects, modes=modes)
        limit = 1 << n_subjects
        for mode in modes:
            for pos in range(n_nodes):
                matrix.set_mask(pos, rng.randrange(limit), mode)
        combined = MultiModeDOL.from_matrix(matrix)
        assert combined.to_matrix() == matrix
        for mode in modes:
            for subject in range(n_subjects):
                for pos in range(n_nodes):
                    assert combined.accessible(subject, pos, mode) == (
                        matrix.accessible(subject, pos, mode)
                    )

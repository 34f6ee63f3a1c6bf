"""Crash-recovery matrix: kill the store at every fault point, recover.

The harness builds one saved store, computes two oracles — the exact
pre-update state and the exact post-update state (replayed on an
in-memory twin) — and then reruns the same DOL update once per scheduled
fault: hard-failed writes, torn writes, and crashed syncs, at every
operation index the workload performs. After each simulated power cut
the store is reopened through WAL recovery and must equal exactly one of
the two oracles (atomicity), pass ``verify()`` (page/header/DOL
integrity), and respect Proposition 1's bound of at most two new
transition nodes.

Run separately in CI (the ``fault-injection`` job): it is I/O heavy and
quadratic-ish in the workload's write count by design.

The whole matrix is parametrized over the page codec (``none``, ``zlib``,
``structure-delta``): WAL images and CRCs cover the *stored* (compressed)
bytes, so recovery must behave identically whatever the page interior
looks like. CI splits the codecs across jobs with ``-k``.
"""

import shutil

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.storage.faults import FaultPlan, InjectedCrash
from repro.storage.nokstore import NoKStore, wal_path_for
from repro.storage.persist import catalog_path_for, open_store, save_store
from repro.xmark.generator import XMarkConfig, generate_document

PAGE_SIZE = 256
N_ITEMS = 12
DOC_SEED = 5
ACL_SEED = 9
N_SUBJECTS = 2

# The update under test: revoke subject 0 over a multi-page range.
SUBJECT = 0
START = 30
END = 150


def _build_inputs():
    doc = generate_document(XMarkConfig(n_items=N_ITEMS, seed=DOC_SEED))
    matrix = generate_synthetic_acl(
        doc,
        SyntheticACLConfig(accessibility_ratio=0.8, seed=ACL_SEED),
        n_subjects=N_SUBJECTS,
    )
    return doc, DOL.from_matrix(matrix)


@pytest.fixture(
    scope="module", params=["none", "zlib", "structure-delta"]
)
def baseline(request, tmp_path_factory):
    """A saved store (one per page codec) plus the pre/post oracles."""
    base = tmp_path_factory.mktemp(f"crash-baseline-{request.param}")
    doc, dol = _build_inputs()
    path = str(base / "store.db")
    store = NoKStore(
        doc, dol, path=path, page_size=PAGE_SIZE, codec=request.param
    )
    pre_masks = dol.to_masks()
    pre_transitions = dol.n_transitions
    save_store(store)
    store.close()

    # Replay the identical update on an in-memory twin for the post oracle.
    doc2, dol2 = _build_inputs()
    twin = NoKStore(doc2, dol2, page_size=PAGE_SIZE)
    twin.update_subject_range(START, END, SUBJECT, False)
    post_masks = dol2.to_masks()
    post_transitions = dol2.n_transitions
    assert post_masks != pre_masks  # the update must actually change state
    assert post_transitions <= pre_transitions + 2  # Proposition 1

    return {
        "path": path,
        "pre_masks": pre_masks,
        "post_masks": post_masks,
        "pre_transitions": pre_transitions,
        "post_transitions": post_transitions,
    }


def _clone_store(baseline_path: str, workdir) -> str:
    workdir.mkdir(parents=True, exist_ok=True)
    path = str(workdir / "store.db")
    shutil.copy(baseline_path, path)
    shutil.copy(catalog_path_for(baseline_path), catalog_path_for(path))
    shutil.copy(wal_path_for(baseline_path), wal_path_for(path))
    return path


def _hard_kill(store: NoKStore) -> None:
    """Drop the process state without flushing anything — the crash."""
    for handle in (store.pager._file, store.wal._file if store.wal else None):
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


def _run_update_under_plan(baseline, workdir, plan):
    """One matrix cell: update under ``plan``, crash, recover, check.

    Returns ``"pre"`` or ``"post"`` — which oracle the recovered store
    matched (the assertion that it matches one of them is done here).
    """
    path = _clone_store(baseline["path"], workdir)
    store = open_store(path, fault_plan=plan)
    crashed = False
    try:
        store.update_subject_range(START, END, SUBJECT, False)
    except InjectedCrash:
        crashed = True
    finally:
        _hard_kill(store)

    recovered = open_store(path)
    try:
        recovered.verify()
        masks = recovered.labeling.to_masks()
        transitions = recovered.labeling.n_transitions
        if masks == baseline["pre_masks"]:
            assert transitions == baseline["pre_transitions"]
            state = "pre"
        elif masks == baseline["post_masks"]:
            assert transitions == baseline["post_transitions"]
            state = "post"
        else:
            raise AssertionError(
                f"recovered store matches neither oracle (plan={plan})"
            )
        assert transitions <= baseline["pre_transitions"] + 2  # Proposition 1
        if not crashed:
            assert state == "post", "a fault-free run must commit"
    finally:
        recovered.close()
    return state


def _workload_footprint(baseline, workdir):
    """Writes/syncs the un-faulted update performs (= the matrix size)."""
    plan = FaultPlan()  # counts, injects nothing
    path = _clone_store(baseline["path"], workdir)
    with open_store(path, fault_plan=plan) as store:
        reads_before = plan.reads
        writes_before = plan.writes
        syncs_before = plan.syncs
        store.update_subject_range(START, END, SUBJECT, False)
        writes = plan.writes - writes_before
        syncs = plan.syncs - syncs_before
        assert plan.reads >= reads_before  # before-images were read
    return writes, syncs


class TestCrashMatrix:
    def test_every_fault_point_recovers_atomically(self, baseline, tmp_path):
        writes, syncs = _workload_footprint(baseline, tmp_path / "count")
        # the matrix must be meaningfully large: several pages, each with
        # a WAL record + data write + syncs, bracketed by BEGIN/COMMIT
        points = []
        for n in range(1, writes + 1):
            points.append(FaultPlan(crash_at_write=n))
        for n in range(1, writes + 1):
            points.append(FaultPlan(tear_at_write=n, seed=n))
        for n in range(1, syncs + 1):
            points.append(FaultPlan(crash_at_sync=n))
        # sync-drop composed with a mid-workload crash: fsyncs silently
        # did nothing, then the power went out
        points.append(FaultPlan(drop_syncs=True, crash_at_write=writes // 2))
        points.append(FaultPlan(drop_syncs=True, crash_at_sync=max(syncs - 1, 1)))
        assert len(points) >= 20

        outcomes = {"pre": 0, "post": 0}
        for index, plan in enumerate(points):
            workdir = tmp_path / f"cell-{index}"
            workdir.mkdir()
            outcomes[_run_update_under_plan(baseline, workdir, plan)] += 1

        # early faults must leave the pre-state, late ones the post-state
        assert outcomes["pre"] > 0
        assert outcomes["post"] > 0

    def test_fault_free_run_commits(self, baseline, tmp_path):
        state = _run_update_under_plan(baseline, tmp_path, FaultPlan())
        assert state == "post"

    def test_crash_between_updates_preserves_first(self, baseline, tmp_path):
        """A committed update survives a crash during the next one."""
        path = _clone_store(baseline["path"], tmp_path)
        # First update: committed, no faults.
        store = open_store(path)
        store.update_subject_range(START, END, SUBJECT, False)
        store.close()
        # Second update: crash at its first data write.
        plan = FaultPlan(crash_at_write=3)
        store = open_store(path, fault_plan=plan)
        with pytest.raises(InjectedCrash):
            store.update_subject_range(10, 60, 1, False)
        _hard_kill(store)

        recovered = open_store(path)
        try:
            recovered.verify()
            # first update intact, second fully rolled back
            assert recovered.labeling.to_masks() == baseline["post_masks"]
        finally:
            recovered.close()

    def test_torn_commit_record_rolls_back(self, baseline, tmp_path):
        """Tear inside the COMMIT append: the batch must not be replayed."""
        writes, _syncs = _workload_footprint(baseline, tmp_path / "count")
        # the last write of the workload is the COMMIT record
        plan = FaultPlan(tear_at_write=writes, tear_offset=5)
        workdir = tmp_path / "torn-commit"
        workdir.mkdir()
        state = _run_update_under_plan(baseline, workdir, plan)
        assert state == "pre"

"""Seeded concurrency stress: readers vs. an update stream.

The serving guarantee under test: with 8 reader threads evaluating
secure queries (both Cho and view semantics) while a writer commits a
seeded stream of Section 3.4 accessibility updates, every reader's
answer is *exactly* what a single-threaded evaluation at that reader's
snapshot epoch produces — no torn update is ever observed.

The oracle is independent of the store: for each epoch a reader touched,
a fresh in-memory engine over that epoch's snapshot document + labeling
clone recomputes the answers without any pages, buffer pool or
snapshot machinery in the loop. Proposition 1 (each accessibility update
changes the transition count by at most 2) is asserted after every
commit.

A short "race smoke" hammer at the end runs the same machinery with no
assertions beyond not crashing; CI runs this module under
``PYTHONDEVMODE=1`` in its own job to surface unraised exceptions and
thread teardown issues.
"""

import faulthandler
import random
import threading
import time

import pytest

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.dol.labeling import DOL
from repro.nok.engine import QueryEngine
from repro.storage.nokstore import NoKStore
from repro.xmark.generator import XMarkConfig, generate_document

N_READERS = 8
N_UPDATES = 20
READS_PER_READER = 4
QUERIES = {
    "q_name": "//item/name",
    "q_twig": "//item[.//name]//price",
}
SUBJECT = 1
WRITE_SUBJECTS = (0, 2, 3)


@pytest.fixture(scope="module")
def stress_doc():
    return generate_document(XMarkConfig(n_items=40, seed=23))


@pytest.fixture(scope="module")
def stress_matrix(stress_doc):
    config = SyntheticACLConfig(
        propagation_ratio=0.5, accessibility_ratio=0.6, seed=23
    )
    return generate_synthetic_acl(stress_doc, config, n_subjects=4)


def run_stress(doc, matrix, semantics, seed):
    """Drive readers + writer; returns (observations, snapshots, deltas).

    observations: list of (epoch, qid, sorted positions) per reader call;
    snapshots: {epoch: StoreSnapshot} retained for oracle replay;
    deltas: transition deltas per commit (Proposition 1 evidence).
    """
    labeling = DOL.from_matrix(matrix)
    store = NoKStore(doc, labeling, page_size=512, buffer_capacity=8)
    engine = QueryEngine(doc, labeling=labeling, store=store)
    rng = random.Random(seed)
    n_nodes = len(doc)

    snapshots = {0: store.snapshot()}
    observations = []
    obs_lock = threading.Lock()
    deltas = []
    failures = []
    start_gate = threading.Event()
    writer_done = threading.Event()
    faulthandler.dump_traceback_later(120, exit=True)
    try:

        def writer():
            start_gate.wait()
            try:
                _run_updates()
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)
            finally:
                writer_done.set()

        def _run_updates():
            for _ in range(N_UPDATES):
                start = rng.randrange(1, n_nodes - 2)
                span = rng.randrange(1, max(n_nodes // 8, 2))
                end = min(start + span, n_nodes)
                subject = rng.choice(WRITE_SUBJECTS)
                value = rng.random() < 0.5
                cost = store.update_subject_range(
                    start, end, subject, value
                )
                deltas.append(cost.transition_delta)
                # retain the snapshot this commit published, keyed by
                # its epoch, for post-run oracle replay
                snapshots[store.epoch] = store.snapshot()
                # pace the stream so it overlaps the reader phase
                time.sleep(0.005)

        def reader():
            start_gate.wait()
            try:
                # Keep reading until the writer's stream has finished (with
                # READS_PER_READER as the floor): cached run lists make
                # repeat reads near-instant, so a fixed read count could
                # drain before the first commit and never span two epochs.
                reads = 0
                while reads < READS_PER_READER or not writer_done.is_set():
                    snap = store.snapshot()
                    for qid, query in QUERIES.items():
                        result = engine.evaluate(
                            query,
                            subject=SUBJECT,
                            semantics=semantics,
                            snapshot=snap,
                        )
                        with obs_lock:
                            observations.append(
                                (snap.epoch, qid, tuple(sorted(result.positions)))
                            )
                    reads += 1
                    # yield the GIL so the paced writer actually progresses
                    # (8 busy-looping readers would starve it)
                    time.sleep(0.001)
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(N_READERS)]
        for thread in threads:
            thread.start()
        start_gate.set()
        for thread in threads:
            thread.join()
    finally:
        faulthandler.cancel_dump_traceback_later()
        store.close()

    assert not failures, failures
    return observations, snapshots, deltas


def oracle_answers(snapshots, epoch, query, semantics):
    """Single-threaded, storeless evaluation at one retained epoch."""
    snap = snapshots[epoch]
    oracle_engine = QueryEngine(snap.doc, labeling=snap.labeling)
    result = oracle_engine.evaluate(query, subject=SUBJECT, semantics=semantics)
    return tuple(sorted(result.positions))


@pytest.mark.parametrize("semantics", ["cho", "view"])
def test_readers_match_oracle_under_update_stream(
    stress_doc, stress_matrix, semantics
):
    observations, snapshots, deltas = run_stress(
        stress_doc, stress_matrix, semantics, seed=77
    )
    assert len(deltas) == N_UPDATES
    # readers take at least READS_PER_READER passes, plus as many more as
    # it takes to outlive the writer's update stream
    assert len(observations) >= N_READERS * READS_PER_READER * len(QUERIES)

    # Proposition 1, checked after every commit: one accessibility
    # update adds at most two transitions (and removes boundedly too —
    # each operation splices one contiguous segment).
    assert all(delta <= 2 for delta in deltas), deltas

    # Every reader observation must equal the single-threaded oracle at
    # the epoch its snapshot pinned — regardless of what the writer was
    # doing to later epochs at the time.
    oracle_cache = {}
    epochs_seen = set()
    for epoch, qid, positions in observations:
        epochs_seen.add(epoch)
        key = (epoch, qid)
        if key not in oracle_cache:
            oracle_cache[key] = oracle_answers(
                snapshots, epoch, QUERIES[qid], semantics
            )
        assert positions == oracle_cache[key], (
            f"semantics={semantics} epoch={epoch} "
            f"query={qid}: concurrent answer diverged from oracle"
        )

    # the run genuinely interleaved: readers saw more than one epoch
    assert len(epochs_seen) > 1, "stress run never overlapped an update"


def test_labeling_valid_after_stress(stress_doc, stress_matrix):
    _, snapshots, _ = run_stress(stress_doc, stress_matrix, "cho", seed=99)
    final = snapshots[max(snapshots)]
    final.labeling.validate()


def test_race_smoke(stress_doc, stress_matrix):
    """No-assertion hammer for the PYTHONDEVMODE=1 CI job."""
    run_stress(stress_doc, stress_matrix, "cho", seed=5)

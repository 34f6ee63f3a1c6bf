"""Inputs: document, ACL, subject sets, request sequences, update targets.

The program under test only ever sees what these functions return. The
dataset (document + ACL + subject sets) is one fixed instance
(``DATA_SEED``); ``seed`` drives the order of the requests and which
subtrees the updates hit. The *multiset* of requests in a repetition is
the same for every seed, so seeds differ in interleaving, not in
difficulty. The same generators build the small oracle-checked twin.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from repro.acl.model import AccessMatrix
from repro.acl.synthetic import SyntheticACLConfig, generate_correlated_acl
from repro.bench.queries import QUERIES
from repro.bench.workloads import xmark_document
from repro.secure.semantics import CHO, VIEW
from repro.xmltree.document import Document

from workloads import (
    ACCESSIBILITY_RATIO,
    DATA_SEED,
    MIX,
    MUTATION_RATE,
    N_PROFILES,
    N_SUBJECTS,
    PROPAGATION_RATIO,
    ROUNDS_PER_BLOCK,
    SERVE_GROUPS,
    SKELETON_DEPTH,
    TWIG_SUBJECT_SETS,
    Workload,
)

#: a read is (query id, semantics, subject set); an update is
#: ("update", start, end, subject, value)
Read = Tuple[str, str, Tuple[int, ...]]
Update = Tuple[str, int, int, int, bool]

SLOTS = [qid for qid, weight in MIX for _ in range(weight)]


def build_document(n_items: int) -> Document:
    # the undecorated generator: the lru_cache around it would make every
    # set-up after the first free and setup_s meaningless
    return xmark_document.__wrapped__(n_items, DATA_SEED)


def build_acl(doc: Document) -> AccessMatrix:
    """Correlated group ACLs plus the always-readable document skeleton."""
    matrix = generate_correlated_acl(
        doc,
        n_subjects=N_SUBJECTS,
        n_profiles=N_PROFILES,
        mutation_rate=MUTATION_RATE,
        config=SyntheticACLConfig(
            propagation_ratio=PROPAGATION_RATIO,
            accessibility_ratio=ACCESSIBILITY_RATIO,
            seed=DATA_SEED,
        ),
    )
    for pos, depth in enumerate(doc.depth):
        if depth <= SKELETON_DEPTH:
            for subject in range(N_SUBJECTS):
                matrix.set_accessible(subject, pos, True)
    return matrix


def subject_sets(workload: Workload) -> List[Tuple[int, ...]]:
    """The subject sets requests rotate over (a user is the union of her
    groups, Section 4; the wire carries the set, not a user id).

    twig-*: eight unions of one to three of the twelve groups. serve-*:
    every one- or two-group subset of the first four groups — ten sets, so
    10 x 6 queries x 2 semantics = 120 keys fit the plan cache (128) and
    the result cache (256), and 10 classes x 2 fit the run cache (64).
    """
    if workload.kind == "serve":
        return [
            combo for size in (1, 2)
            for combo in combinations(range(SERVE_GROUPS), size)
        ]
    pool = [
        combo for size in (1, 2, 3)
        for combo in combinations(range(N_SUBJECTS), size)
    ]
    return sorted(random.Random(DATA_SEED).sample(pool, TWIG_SUBJECT_SETS))


def read_sequence(workload: Workload, seed: int, blocks: int) -> List[Read]:
    """``blocks`` blocks of reads; the seed only shuffles inside rounds.

    Slot ``j`` of round ``r`` of block ``b`` is query ``SLOTS[j]``, under
    view semantics iff ``j % ROUNDS_PER_BLOCK == r`` (each slot once per
    block), for subject set ``(j + r + b) % len(sets)`` — so ``len(sets)``
    consecutive blocks pair every slot and semantics with every set.
    """
    rng = random.Random(seed * 104729 + 3)
    sets = subject_sets(workload)
    reads: List[Read] = []
    for block in range(blocks):
        for round_no in range(ROUNDS_PER_BLOCK):
            one_round = [
                (
                    qid,
                    VIEW if slot % ROUNDS_PER_BLOCK == round_no else CHO,
                    sets[(slot + round_no + block) % len(sets)],
                )
                for slot, qid in enumerate(SLOTS)
            ]
            rng.shuffle(one_round)
            reads += one_round
    return reads


def update_ranges(
    doc: Document, matrix: AccessMatrix, seed: int, count: int
) -> List[Tuple[int, int, int]]:
    """(start, end, group) triples: seeded ``item`` subtrees the group can
    read in full, so revoke-then-grant restores the starting state."""
    rng = random.Random(seed * 32452843 + 7)
    item_tag = doc.tag_dict.get("item")
    items = [pos for pos, tag in enumerate(doc.tags) if tag == item_tag]
    rng.shuffle(items)
    masks = matrix.masks()
    chosen: List[Tuple[int, int, int]] = []
    for pos in items:
        group = rng.randrange(SERVE_GROUPS)
        end = pos + doc.subtree[pos]
        if all(masks[p] >> group & 1 for p in range(pos, end)):
            chosen.append((pos, end, group))
            if len(chosen) == count:
                return chosen
    # a document whose items are all partly denied: the root alone is
    # always readable (skeleton) and still exercises the whole path
    return chosen + [(0, 1, 0)] * (count - len(chosen))


def update_op(ranges: Sequence[Tuple[int, int, int]], index: int) -> Update:
    """The ``index``-th update: revoke a range, then grant it back."""
    start, end, group = ranges[(index // 2) % len(ranges)]
    return ("update", start, end, group, bool(index % 2))


def update_pairs(ranges: Sequence[Tuple[int, int, int]], count: int) -> List[Update]:
    """``count`` (rounded down to even) updates: revoke/grant pairs."""
    return [update_op(ranges, i) for i in range(count - count % 2)]


def op_sequence(
    workload: Workload, seed: int, blocks: int,
    ranges: Sequence[Tuple[int, int, int]],
) -> List[tuple]:
    """One repetition: the reads, plus — where the workload has them — an
    update after every round. A block holds ``ROUNDS_PER_BLOCK`` (even)
    updates, so a repetition ends in the ACL state it started in."""
    reads = read_sequence(workload, seed, blocks)
    if not workload.updates:
        return list(reads)
    ops: List[tuple] = []
    for index, read in enumerate(reads):
        ops.append(read)
        if (index + 1) % len(SLOTS) == 0:
            ops.append(update_op(ranges, index // len(SLOTS)))
    return ops


def distinct_reads(workload: Workload) -> List[Read]:
    """Every read the workload can issue, whatever the seed."""
    return sorted(
        (qid, semantics, subjects)
        for qid in QUERIES
        for semantics in (CHO, VIEW)
        for subjects in subject_sets(workload)
    )


def warmup_reads(workload: Workload) -> List[Read]:
    """The untimed pass that fills caches and finishes lazy set-up.

    Every distinct request where the caches can hold them; where they
    cannot (``twig-cold`` thrashes by design) only what is not evicted
    needs warming: one cheap query per (subject set, semantics) for the
    class directory and run cache, and each (query, semantics) once.
    """
    reads = distinct_reads(workload)
    if workload.warm_all:
        return reads
    sets = subject_sets(workload)
    cover = [("Q3", sem, subjects) for subjects in sets for sem in (CHO, VIEW)]
    for i, (qid, sem) in enumerate(sorted({read[:2] for read in reads})):
        cover.append((qid, sem, sets[i % len(sets)]))
    return cover


def query_text(qid: str) -> str:
    return QUERIES[qid]


def wire_request(read: Read) -> Dict[str, object]:
    qid, semantics, subjects = read
    return {"query": QUERIES[qid], "semantics": semantics, "subject": list(subjects)}


def union_masks(matrix: AccessMatrix, subjects: Sequence[int]) -> List[int]:
    """Single-subject masks of the union of ``subjects`` (for the oracle)."""
    wanted = sum(1 << s for s in subjects)
    return [1 if mask & wanted else 0 for mask in matrix.masks()]


def apply_update(matrix: AccessMatrix, update: Update) -> None:
    """Replay one update on the benchmark's own mirror of the ACL."""
    _, start, end, subject, value = update
    for pos in range(start, end):
        matrix.set_accessible(subject, pos, value)


def inaccessible(
    masks: Sequence[int], subjects: Sequence[int], positions: Sequence[int]
) -> List[int]:
    """Positions in a reply that the subject set may not see (must be [])."""
    wanted = sum(1 << s for s in subjects)
    return [pos for pos in positions if not masks[pos] & wanted]

"""Answer checks. All of them run outside the timed windows.

(a) ``twin_check``: on a small twin built by the same generators, every
    (query, subject set, semantics) of the mix equals the brute-force
    oracle ``nok/reference.evaluate_reference`` over the union mask — and,
    for workloads with updates, still does after updates are replayed.
(b) ``ReplyChecker``: at full size every position of every reply is
    readable by the request's subject set under the benchmark's own
    ``AccessMatrix`` at the reply's epoch (the matrix replays the updates
    the benchmark sent) — "never return a node the subject may not see".
(c) every epoch-0 reply to one request is the same answer; for
    ``twig-cold`` that answer is the one the benchmark computed itself with
    an engine over a fully cached store, so hot and cold agree position for
    position, and a full run also compares the two workloads' digests.
(d) the saved store is ``fsck_store``-clean, after set-up and after the run.
"""

from __future__ import annotations

import os
import zlib
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.acl.model import AccessMatrix
from repro.labeling import build_labeling
from repro.nok.engine import QueryEngine
from repro.nok.pattern import parse_query
from repro.nok.reference import evaluate_reference
from repro.storage.nokstore import NoKStore

import datagen
from datagen import Read
from worker import answer_digest, make_service
from workloads import CODEC, PAGE_SIZE, Sizes, Workload


def _oracle(doc, matrix: AccessMatrix, read: Read) -> List[int]:
    qid, semantics, subjects = read
    found = evaluate_reference(
        doc, parse_query(datagen.query_text(qid)),
        datagen.union_masks(matrix, subjects), 0, semantics,
    )
    return sorted(found)


def twin_check(workload: Workload, sizes: Sizes, seed: int, directory: str) -> List[str]:
    """Run the workload's distinct reads on the twin; returns mismatches."""
    doc = datagen.build_document(sizes.twin_items)
    matrix = datagen.build_acl(doc)
    ranges = datagen.update_ranges(doc, matrix, seed, sizes.update_ranges)
    reads = datagen.distinct_reads(workload)
    # the twin is ~10x smaller than the store, so are its caches: the
    # eviction paths twig-cold lives on must run here too
    scale = max(1, sizes.n_items // sizes.twin_items)
    store = NoKStore(
        doc, build_labeling("dol", doc, matrix),
        path=os.path.join(directory, "twin.pages"), page_size=PAGE_SIZE, codec=CODEC,
        buffer_capacity=max(1, workload.buffer_capacity // scale),
        decoded_cache_bytes=max(4096, workload.decoded_cache_bytes // scale),
    )
    problems: List[str] = []
    try:
        engine = QueryEngine(doc, store=store)
        if workload.kind == "twig":
            def ask(read: Read) -> List[int]:
                qid, semantics, subjects = read
                return engine.evaluate(
                    datagen.query_text(qid), subject=subjects, semantics=semantics
                ).positions
            passes, closer = 1, None
        else:
            service = make_service(engine)
            closer = service.close

            def ask(read: Read) -> List[int]:
                reply = service.handle({"op": "query", **datagen.wire_request(read)})
                if not reply.get("ok"):
                    raise RuntimeError(f"twin query failed: {reply}")
                return reply["positions"]
            passes = 2  # second pass is answered by the result cache

        def compare(label: str) -> None:
            for read in reads:
                want = _oracle(doc, matrix, read)
                for _ in range(passes):
                    got = ask(read)
                    if list(got) != want:
                        problems.append(
                            f"twin {label} {read}: {len(got)} answers, oracle {len(want)}"
                        )

        try:
            compare("epoch 0")
            if workload.updates:
                for update in datagen.update_pairs(ranges, 4):
                    _, start, end, subject, value = update
                    store.update_subject_range(start, end, subject, value)
                    datagen.apply_update(matrix, update)
                    compare(f"after {update}")
        finally:
            if closer is not None:
                closer()
    finally:
        store.close()
    return problems


def judge_records(checker: "ReplyChecker", records) -> int:
    """Feed wire replies to the checker; returns how many failed outright."""
    bad = 0
    for _index, op, _sent, _latency, reply in records:
        if reply is None:
            bad += 1
        elif op[0] == "update":
            checker.saw_update(reply["epoch"], op)
        elif not checker.saw_read(op, reply["epoch"], reply["positions"]):
            bad += 1
    return bad


class ReplyChecker:
    """Checks (b) and (c) over everything a run received.

    ``expected`` holds the benchmark's own epoch-0 answers where it
    computed them (``twig-cold``); elsewhere the first epoch-0 reply to a
    request becomes the expectation every later one must equal. Either
    way an expectation is only accepted once it passed (b).
    """

    def __init__(self, matrix: AccessMatrix, expected: Dict[Read, List[int]]):
        self._matrix = matrix
        self._masks0 = matrix.masks()
        self.expected: Dict[Read, List[int]] = {}
        self._reads: Dict[int, List[Tuple[Read, Sequence[int]]]] = defaultdict(list)
        self._updates: Dict[int, tuple] = {}
        self.problems: List[str] = []
        for read, positions in expected.items():
            self.saw_read(read, 0, positions)

    def saw_read(self, read: Read, epoch: int, positions: Sequence[int]) -> bool:
        """Record one reply; epoch-0 replies are judged at once."""
        if epoch:
            self._reads[epoch].append((read, positions))
            return True
        want = self.expected.get(read)
        if want is None:
            hidden = datagen.inaccessible(self._masks0, read[2], positions)
            if hidden:
                self.problems.append(f"{read}: {len(hidden)} inaccessible positions")
            self.expected[read] = list(positions)
            return not hidden
        if list(positions) == want:
            return True
        self.problems.append(f"{read}: differs from the expected answer")
        return False

    def saw_warmup(self, reads: Sequence[Read], answers: Sequence[Sequence[int]]) -> int:
        """Judge an in-process warm-up pass; returns how many reads failed."""
        return sum(
            1 for read, positions in zip(reads, answers)
            if not self.saw_read(read, 0, positions)
        )

    def wrong_digests(self, ops: Sequence[Read], digests: Sequence[int]) -> int:
        """How many of one repetition's answer digests are not the expected."""
        return sum(
            1 for op, got in zip(ops, digests)
            if got != answer_digest(self.expected[op])
        )

    def answers_digest(self) -> int:
        """One number for all epoch-0 answers (equal across twig-hot/-cold)."""
        digest = 0
        for read in sorted(self.expected):
            digest = zlib.crc32(repr((read, self.expected[read])).encode(), digest)
        return digest

    def saw_update(self, epoch: int, update: tuple) -> None:
        self._updates[epoch] = update

    def finish(self) -> int:
        """Replay updates in commit order, judging later-epoch replies (b).

        Returns the number of replies that failed.
        """
        bad = 0
        masks = None
        judged: Dict[Tuple[Read, int], Sequence[int]] = {}
        for epoch in sorted(set(self._reads) | set(self._updates)):
            update = self._updates.get(epoch)
            if update is None:
                self.problems.append(f"reply at epoch {epoch} the benchmark never created")
                bad += len(self._reads[epoch])
                continue
            datagen.apply_update(self._matrix, update)
            masks = None
            for read, positions in self._reads.get(epoch, ()):
                first = judged.get((read, epoch))
                if first is not None and list(first) == list(positions):
                    continue
                if masks is None:
                    masks = self._matrix.masks()
                if first is not None or datagen.inaccessible(masks, read[2], positions):
                    self.problems.append(
                        f"{read} at epoch {epoch}: inaccessible or inconsistent reply"
                    )
                    bad += 1
                else:
                    judged[(read, epoch)] = positions
        if self._matrix.masks() != self._masks0:
            # every revoke has its grant: later repetitions would otherwise
            # have measured a different ACL than the first
            self.problems.append("the updates did not restore the starting ACL")
        return bad

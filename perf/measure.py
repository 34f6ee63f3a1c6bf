"""Set-up and the untraced run: the end-to-end metrics of one workload.

A run is: ``sizes.setups`` full set-ups (``setup_s`` is their median), the
answer checks, then the worker process runs the workload's repetition —
one fixed op sequence — again and again until ``--seconds`` of measured
time have passed. Every repetition replays the same ops, so each op has
one latency per repetition; a read's latency is the *median* of those (an
update's the minimum, see ``Repetitions.per_op``), and the percentiles are
taken over ops. Throughput is ops per repetition over
the median repetition's wall time. A slow phase of the machine that hits
one repetition therefore moves nothing.
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.acl.model import AccessMatrix
from repro.labeling import build_labeling
from repro.nok.engine import QueryEngine
from repro.storage.nokstore import NoKStore
from repro.storage.persist import fsck_store, open_store, save_store
from repro.xmltree.document import Document

import checks
import datagen
import loadgen
from launcher import Worker
from worker import settle
from workloads import CODEC, PAGE_SIZE, SERVE_CONNECTIONS, Sizes, Workload

#: set-up phases, in order; their sum is one set-up
PHASES = (
    "xmark.generate_s", "acl.generate_s", "dol.build_s",
    "storage.build_s", "storage.persist.save_s", "storage.persist.open_s",
)

#: buffer frames of the benchmark's own fully cached store
HOT_FRAMES = 1024


@dataclass
class Inputs:
    """One set-up's products. ``store``/``engine`` are the benchmark's own
    fully cached copy, used for the expected answers, never timed."""

    doc: Document
    matrix: AccessMatrix
    path: str
    store: NoKStore
    engine: QueryEngine
    phases: Dict[str, float]

    @property
    def setup_s(self) -> float:
        return sum(self.phases.values())


def set_up(n_items: int, directory: str) -> Inputs:
    """Generate, label, build, save and reopen — timed phase by phase."""
    marks = [perf_counter()]

    def lap() -> None:
        marks.append(perf_counter())

    doc = datagen.build_document(n_items)
    lap()
    matrix = datagen.build_acl(doc)
    lap()
    labeling = build_labeling("dol", doc, matrix)
    lap()
    path = os.path.join(directory, "store.pages")
    store = NoKStore(
        doc, labeling, path=path, page_size=PAGE_SIZE, codec=CODEC,
        buffer_capacity=HOT_FRAMES,
    )
    lap()
    save_store(store)
    store.close()
    lap()
    store = open_store(path, buffer_capacity=HOT_FRAMES)
    engine = QueryEngine(store.doc, store=store)
    lap()
    phases = {name: marks[i + 1] - marks[i] for i, name in enumerate(PHASES)}
    return Inputs(doc, matrix, path, store, engine, phases)


def repeated_set_up(sizes: Sizes, scratch: str):
    """``sizes.setups`` full set-ups; keeps the last, returns all the times."""
    times: List[float] = []
    inputs: Optional[Inputs] = None
    for attempt in range(sizes.setups):
        if inputs is not None:
            inputs.store.close()
            shutil.rmtree(os.path.dirname(inputs.path))
        directory = os.path.join(scratch, f"setup-{attempt}")
        os.mkdir(directory)
        inputs = set_up(sizes.n_items, directory)
        times.append(inputs.setup_s)
    return inputs, times


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (never a value between two samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def metric(value: float, unit: str, samples: int = 1, rep_values=()) -> Dict[str, object]:
    return {
        "value": value, "unit": unit, "samples": samples,
        "rep_values": list(rep_values),
    }


def scratch_dir(root: str) -> str:
    """A fresh directory inside the checkout (``results/`` is git-ignored)."""
    base = os.path.join(root, "perf", "results")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="tmp-", dir=base)


def expected_answers(inputs: Inputs, workload: Workload) -> Dict[tuple, List[int]]:
    """The benchmark's own answers, from its fully cached engine.

    Only where the warm-up does not already visit every distinct request
    (``twig-cold``): there these are the hot side of the hot/cold
    comparison. Elsewhere the warm-up replies serve (``ReplyChecker``).
    """
    if workload.warm_all:
        return {}
    return {
        read: inputs.engine.evaluate(
            datagen.query_text(read[0]), subject=read[2], semantics=read[1]
        ).positions
        for read in datagen.distinct_reads(workload)
    }


class Repetitions:
    """Latencies of the same ops, repetition after repetition."""

    def __init__(self, ops: Sequence[tuple]):
        self.ops = ops
        self.walls: List[float] = []
        self._latencies: List[List[Optional[float]]] = []

    def add(self, wall: float, latencies: Sequence[Optional[float]]) -> None:
        """``latencies[i]`` belongs to ``ops[i]`` (None: the op failed)."""
        self.walls.append(wall)
        self._latencies.append(list(latencies))

    @property
    def measured_s(self) -> float:
        return sum(self.walls)

    def per_op(self, updates: bool) -> List[float]:
        """One latency per read (or update) op, taken over the repetitions.

        Reads: the median. Updates: the minimum — a commit's flush to disk
        takes ~18 ms or ~28 ms on this box, by the update, and the share of
        slow ones drifts between 20% and 80% by the hour; the median of a
        two-valued sample flips with that share, the minimum over five or
        more repetitions is the commit itself.
        """
        pick = min if updates else statistics.median
        return [
            pick(seen)
            for index, op in enumerate(self.ops)
            if (op[0] == "update") == updates
            and (seen := [rep[index] for rep in self._latencies if rep[index] is not None])
        ]

    def rep_percentile(self, share: float) -> List[float]:
        """The read percentile of each repetition on its own (in-run spread)."""
        return [
            percentile(
                [lat for op, lat in zip(self.ops, rep)
                 if op[0] != "update" and lat is not None],
                share,
            )
            for rep in self._latencies
        ]


def run_untraced(
    workload: Workload, sizes: Sizes, seed: int, seconds: float, root: str
) -> Dict[str, object]:
    """One workload, tracing off: returns metrics, counts and checks."""
    scratch = scratch_dir(root)
    try:
        return _run_untraced(workload, sizes, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_untraced(workload, sizes, seed, seconds, scratch) -> Dict[str, object]:
    inputs, setup_times = repeated_set_up(sizes, scratch)
    problems: List[str] = list(fsck_store(inputs.path))
    ranges = datagen.update_ranges(inputs.doc, inputs.matrix, seed, sizes.update_ranges)
    ops = datagen.op_sequence(workload, seed, workload.blocks(sizes), ranges)
    checker = checks.ReplyChecker(inputs.matrix, expected_answers(inputs, workload))
    problems += checks.twin_check(workload, sizes, seed, scratch)
    inputs.store.close()  # one process at a time owns the store and its WAL

    reps = Repetitions(ops)
    with Worker(
        inputs.path, workload.kind, workload.buffer_capacity,
        workload.decoded_cache_bytes,
    ) as worker:
        if workload.kind == "twig":
            run = _drive_twig(worker, sizes, ops, reps, seconds, ranges, checker, workload)
        else:
            settle()  # the load generator lives in this process
            run = asyncio.run(
                _drive_serve(worker, sizes, ops, reps, seconds, ranges, checker, workload)
            )
        disk = worker.call("checkpoint")
        peak_rss = worker.peak_rss_mib()
        ready_s = worker.ready_s
    run["failed"] += checker.finish()
    problems += checker.problems
    served_path = inputs.path
    if os.path.exists(inputs.path + ".sized"):
        served_path = inputs.path + ".sized"
    problems += fsck_store(served_path)

    reads = reps.per_op(updates=False)
    updates = reps.per_op(updates=True) or run["probe_latencies"]
    rates = [len(ops) / wall for wall in reps.walls]
    setup_s = statistics.median(setup_times) + ready_s
    metrics = {
        "setup_s": metric(
            setup_s, "s", len(setup_times), [t + ready_s for t in setup_times]
        ),
        "throughput_qps": metric(
            len(ops) / statistics.median(reps.walls), "ops/s",
            len(ops) * len(rates), rates,
        ),
        "latency_p50_ms": metric(
            1e3 * percentile(reads, 0.5), "ms", len(reads),
            [1e3 * value for value in reps.rep_percentile(0.5)],
        ),
        "latency_p90_ms": metric(
            1e3 * percentile(reads, 0.9), "ms", len(reads),
            [1e3 * value for value in reps.rep_percentile(0.9)],
        ),
        "update_p50_ms": metric(1e3 * percentile(updates, 0.5), "ms", len(updates)),
        "disk_bytes_per_node": metric(
            (disk["page_file_bytes"] + disk["catalog_bytes"]) / disk["n_nodes"], "B/node"
        ),
        "peak_rss_mb": metric(peak_rss, "MiB"),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "correct": not problems and run["failed"] == 0,
        "problems": problems[:20],
        "metrics": metrics,
        "repetitions": {"ops_each": len(ops), "wall_s": reps.walls},
        "store": {
            "n_nodes": disk["n_nodes"], "n_pages": disk["n_pages"],
            "distinct_reads": len(checker.expected), "child_ready_s": ready_s,
        },
        "answers_digest": checker.answers_digest(),
    }


def _keep_going(reps: Repetitions, sizes: Sizes, seconds: float) -> bool:
    return len(reps.walls) < sizes.min_reps or reps.measured_s < seconds


def _drive_twig(worker, sizes, ops, reps, seconds, ranges, checker, workload):
    """Repetitions run inside the worker; the update probe follows them."""
    warm = datagen.warmup_reads(workload)
    worker.call("load", ops=ops)
    failed = checker.saw_warmup(warm, worker.call("warm", reads=warm)["positions"])
    worker.call("settle")
    while _keep_going(reps, sizes, seconds):
        result = worker.call("repetition")
        failed += checker.wrong_digests(ops, result["digests"])
        reps.add(result["wall"], result["latencies"])
    probe = Repetitions(datagen.update_pairs(ranges, sizes.update_probe))
    for _ in range(sizes.probe_reps):
        result = worker.call("updates", updates=probe.ops)
        probe.add(sum(result["latencies"]), result["latencies"])
    return {
        "probe_latencies": probe.per_op(updates=True),
        "attempted": (
            len(warm) + len(ops) * len(reps.walls) + len(probe.ops) * len(probe.walls)
        ),
        "failed": failed,
    }


async def _drive_serve(worker, sizes, ops, reps, seconds, ranges, checker, workload):
    """Repetitions run from here against the worker's server."""
    address = worker.ready["address"]
    count = {"attempted": 0, "failed": 0}

    def judge(records) -> None:
        count["attempted"] += len(records)
        count["failed"] += checks.judge_records(checker, records)

    judge(await loadgen.sequential(address, datagen.warmup_reads(workload)))
    worker.call("settle")
    while _keep_going(reps, sizes, seconds):
        wall, records = await loadgen.repetition(address, ops, SERVE_CONNECTIONS)
        judge(records)
        latencies: List[Optional[float]] = [None] * len(ops)
        for index, _op, _sent, latency, reply in records:
            if reply is not None:
                latencies[index] = latency
        reps.add(wall, latencies)
        if workload.updates:
            worker.call("checkpoint")  # truncate the WAL outside the clock
    probe = Repetitions(datagen.update_pairs(ranges, sizes.update_probe))
    if not workload.updates:
        for _ in range(sizes.probe_reps):
            records = await loadgen.sequential(address, probe.ops)
            judge(records)
            probe.add(0.0, [r[3] if r[4] is not None else None for r in records])
    return {"probe_latencies": probe.per_op(updates=True), **count}

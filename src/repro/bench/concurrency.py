"""Concurrent-serving benchmark: throughput, update interference, cache.

Three measurements over one store-backed engine, reported honestly for
the machine they ran on (``cpu_count`` is in the payload — CPython
threads share the GIL, so on a single core rising thread counts measure
scheduling overhead and snapshot safety, not parallel speedup):

- **throughput vs threads**: a fixed batch of secure queries drained by
  1/2/4/8 worker threads; every thread's answers are checked against the
  single-threaded result, so the numbers only count *correct* work;
- **reader latency under an update stream**: reader threads evaluating
  in a loop while a writer commits Section 3.4 updates; per-request
  latencies against the no-writer baseline quantify what snapshot
  isolation costs readers (they never block on the writer — the delta is
  clone/copy-on-write overhead plus GIL sharing);
- **plan-cache effect**: hit ratio and recompile counts across the whole
  workload.

The payload behind ``BENCH_concurrency.json``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.nok.engine import QueryEngine

#: thread counts the throughput scan sweeps
DEFAULT_THREADS = (1, 2, 4, 8)


def _percentile(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        return {"n": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "n": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": _percentile(samples, 0.50),
        "p95": _percentile(samples, 0.95),
        "max": max(samples),
    }


def throughput_scan(
    engine: QueryEngine,
    queries: Dict[str, str],
    subject: int,
    semantics: str = "cho",
    threads: Sequence[int] = DEFAULT_THREADS,
    requests_per_thread: int = 25,
) -> Dict[str, object]:
    """Queries/second at each thread count, answers verified en route."""
    workload = list(queries.items())
    oracle = {
        qid: sorted(engine.evaluate(query, subject=subject, semantics=semantics).positions)
        for qid, query in workload
    }

    scan: Dict[str, object] = {}
    for n_threads in threads:
        mismatches = 0
        done = 0
        counter_lock = threading.Lock()
        start_gate = threading.Event()

        def worker() -> None:
            nonlocal mismatches, done
            local_bad = 0
            local_done = 0
            start_gate.wait()
            for i in range(requests_per_thread):
                qid, query = workload[i % len(workload)]
                result = engine.evaluate(query, subject=subject, semantics=semantics)
                if sorted(result.positions) != oracle[qid]:
                    local_bad += 1
                local_done += 1
            with counter_lock:
                mismatches += local_bad
                done += local_done

        pool = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in pool:
            thread.start()
        started = time.perf_counter()
        start_gate.set()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - started
        scan[str(n_threads)] = {
            "requests": done,
            "wall_time": elapsed,
            "throughput_qps": done / elapsed if elapsed else 0.0,
            "answer_mismatches": mismatches,
        }
    return scan


def reader_latency_under_updates(
    engine: QueryEngine,
    query: str,
    subject: int,
    semantics: str = "cho",
    n_readers: int = 4,
    reads_per_reader: int = 30,
    update_span: int = 64,
) -> Dict[str, object]:
    """Reader latencies with and without a concurrent update stream.

    The writer alternately revokes and restores one subject over a
    rotating node range, committing (and so publishing a snapshot) as
    fast as it can until every reader finishes. Readers time each
    ``evaluate`` individually.
    """
    store = engine.store
    if store is None:
        raise ValueError("reader/update interference needs a store-backed engine")
    n_nodes = len(engine.doc)
    n_subjects = getattr(
        store.labeling, "n_subjects", None
    ) or store.labeling.codebook.n_subjects
    write_subject = subject + 1 if subject + 1 < n_subjects else 0

    def read_phase(concurrent_updates: bool) -> Dict[str, object]:
        latencies: List[List[float]] = [[] for _ in range(n_readers)]
        stop_writer = threading.Event()
        commits = 0

        def writer() -> None:
            nonlocal commits
            offset = 1
            value = False
            while not stop_writer.is_set():
                start = offset % max(n_nodes - update_span - 1, 1) + 1
                store.update_subject_range(
                    start, start + update_span, write_subject, value
                )
                commits += 1
                value = not value
                offset += update_span

        def reader(slot: int) -> None:
            for _ in range(reads_per_reader):
                started = time.perf_counter()
                engine.evaluate(query, subject=subject, semantics=semantics)
                latencies[slot].append(time.perf_counter() - started)

        writer_thread: Optional[threading.Thread] = None
        if concurrent_updates:
            writer_thread = threading.Thread(target=writer)
            writer_thread.start()
        readers = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(n_readers)
        ]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop_writer.set()
        if writer_thread is not None:
            writer_thread.join()
        flat = [sample for series in latencies for sample in series]
        return {
            "latency": _latency_summary(flat),
            "update_commits": commits,
        }

    baseline = read_phase(concurrent_updates=False)
    contended = read_phase(concurrent_updates=True)
    return {
        "n_readers": n_readers,
        "reads_per_reader": reads_per_reader,
        "baseline": baseline,
        "under_updates": contended,
        "epoch_end": store.epoch,
    }


def run_concurrency_bench(
    engine: QueryEngine,
    queries: Dict[str, str],
    subject: int,
    semantics: str = "cho",
    threads: Sequence[int] = DEFAULT_THREADS,
    requests_per_thread: int = 25,
) -> Dict[str, object]:
    """The full benchmark: throughput scan, interference, cache stats."""
    engine.plan_cache.reset_stats()
    report: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "n_nodes": len(engine.doc),
        "subject": subject,
        "semantics": semantics,
        "throughput_vs_threads": throughput_scan(
            engine, queries, subject, semantics, threads, requests_per_thread
        ),
    }
    first_query = next(iter(queries.values()))
    report["reader_latency"] = reader_latency_under_updates(
        engine, first_query, subject, semantics
    )
    report["plan_cache"] = engine.plan_cache.stats()
    if engine.store is not None:
        report["buffer"] = engine.store.buffer.stats.snapshot()
        report["epoch"] = engine.store.epoch
    return report

"""Concurrent serving benchmark: throughput vs threads, reader latency
under an update stream, and plan-cache effectiveness, emitted as
``BENCH_concurrency.json``.

Numbers are honest for the host (``cpu_count`` is in the payload): on a
single CPython core the thread sweep measures safety and overhead, not
parallel speedup. The assertions therefore check *correctness under
concurrency* (zero answer mismatches, monotone epochs, cache hits), not
a scaling factor.
"""

from __future__ import annotations

import os

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.bench.concurrency import run_concurrency_bench
from repro.bench.reporting import write_report
from repro.nok.engine import QueryEngine

QUERIES = {
    "q_name": "//item/name",
    "q_twig": "//item[.//name]//price",
    "q_person": "//person/name",
}


def test_concurrency_bench(xmark_doc, bench_scale):
    matrix = generate_synthetic_acl(
        xmark_doc, SyntheticACLConfig(seed=11), n_subjects=8
    )
    engine = QueryEngine.build(xmark_doc, matrix, use_store=True)
    try:
        report = run_concurrency_bench(
            engine,
            QUERIES,
            subject=2,
            threads=(1, 2, 4, 8),
            requests_per_thread=10 * bench_scale,
        )
    finally:
        engine.store.close()

    scan = report["throughput_vs_threads"]
    assert set(scan) == {"1", "2", "4", "8"}
    for entry in scan.values():
        assert entry["answer_mismatches"] == 0
        assert entry["throughput_qps"] > 0

    interference = report["reader_latency"]
    assert interference["under_updates"]["update_commits"] > 0
    assert interference["under_updates"]["latency"]["n"] > 0
    # every committed update published a snapshot
    assert report["epoch"] == interference["epoch_end"]
    assert report["epoch"] >= interference["under_updates"]["update_commits"]

    cache = report["plan_cache"]
    assert cache["hits"] > cache["misses"]
    assert cache["hit_ratio"] > 0.5

    out = os.environ.get("REPRO_BENCH_CONCURRENCY_OUT", "BENCH_concurrency.json")
    path = write_report(report, out)
    assert os.path.exists(path)

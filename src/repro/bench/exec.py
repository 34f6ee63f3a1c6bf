"""Plain-vs-codec storage benchmark — the payload of ``repro-dol bench``.

:func:`run_storage_benchmark` builds one XMark-like document twice as a
file-backed store — plain v2 layout and the requested page codec — runs
the secure-query workload (:data:`~repro.bench.queries.QUERIES`) over
both, and records on-disk bytes plus best-of-repeats latency for each.
:func:`gate_storage_report` enforces the acceptance ratios (compressed
store ≥ 25% smaller, latency within 10% of plain). End-to-end and
per-layer execution timings live in ``perf/`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Optional

from repro.bench.reporting import write_report
from repro.bench.queries import QUERIES
from repro.bench.workloads import secured_xmark
from repro.errors import ReproError
from repro.nok.engine import QueryEngine

__all__ = [
    "run_storage_benchmark",
    "gate_storage_report",
    "write_report",
]


def run_storage_benchmark(
    n_items: int = 160,
    codec: str = "structure-delta",
    page_size: int = 4096,
    queries: Optional[Dict[str, str]] = None,
    subject: int = 0,
    semantics: str = "cho",
    repeats: int = 3,
) -> Dict[str, object]:
    """Disk footprint + query latency of a compressed vs plain store.

    Both stores are built from the same document and ACL, saved to disk,
    and queried through store-backed engines. Answers must match
    position-for-position — compression may never change results — and
    the report carries the two ratios the gate checks:
    ``bytes_ratio`` (compressed page file / plain page file) and
    ``latency_ratio`` (compressed best-of-repeats total / plain).
    """
    from repro.storage.persist import save_store

    queries = queries if queries is not None else dict(QUERIES)
    doc, matrix, _ = secured_xmark(n_items)
    report: Dict[str, object] = {
        "n_items": n_items,
        "n_nodes": len(doc),
        "codec": codec,
        "page_size": page_size,
        "repeats": repeats,
        "variants": {},
    }
    answers: Dict[str, Dict[str, List[int]]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in (("plain", None), ("compressed", codec)):
            path = os.path.join(tmp, f"{name}.pages")
            engine = QueryEngine.build(
                doc, matrix, use_store=True, store_path=path,
                page_size=page_size, codec=spec,
            )
            try:
                save_store(engine.store)
                total_ms = 0.0
                answers[name] = {}
                for qid, query in queries.items():
                    best_ms = None
                    for _ in range(max(repeats, 1)):
                        started = time.perf_counter()
                        result = engine.evaluate(
                            query, subject=subject, semantics=semantics
                        )
                        elapsed = (time.perf_counter() - started) * 1000.0
                        best_ms = (
                            elapsed if best_ms is None else min(best_ms, elapsed)
                        )
                    answers[name][qid] = result.positions
                    total_ms += best_ms
                report["variants"][name] = {
                    "store_bytes": os.path.getsize(path),
                    "n_pages": engine.store.n_pages,
                    "entries_per_page": engine.store.entries_per_page,
                    "total_ms": total_ms,
                }
            finally:
                engine.store.close()
    for qid in queries:
        if answers["plain"][qid] != answers["compressed"][qid]:
            raise ReproError(
                f"compressed store answers diverge from plain on {qid} "
                f"at n_items={n_items}"
            )
    plain = report["variants"]["plain"]
    compressed = report["variants"]["compressed"]
    report["bytes_ratio"] = compressed["store_bytes"] / plain["store_bytes"]
    report["latency_ratio"] = compressed["total_ms"] / plain["total_ms"]
    return report


def gate_storage_report(
    storage: Dict[str, object],
    max_bytes_ratio: float = 0.75,
    max_latency_ratio: float = 1.10,
) -> List[str]:
    """Acceptance-ratio violations of a storage report; empty when clean."""
    violations: List[str] = []
    if storage["bytes_ratio"] > max_bytes_ratio:
        violations.append(
            f"codec {storage['codec']}: store is "
            f"{storage['bytes_ratio']:.2f}x the plain size "
            f"(must be <= {max_bytes_ratio:.2f}x, i.e. "
            f">= {1.0 - max_bytes_ratio:.0%} smaller)"
        )
    if storage["latency_ratio"] > max_latency_ratio:
        violations.append(
            f"codec {storage['codec']}: latency "
            f"{storage['latency_ratio']:.2f}x plain "
            f"(must be <= {max_latency_ratio:.2f}x)"
        )
    return violations

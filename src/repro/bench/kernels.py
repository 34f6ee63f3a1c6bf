"""Kernel microbenchmarks — the payload behind ``BENCH_kernels.json``.

Two micros isolate the primitives the columnar rework vectorized, each
reported as a machine-independent *ratio* of two measurements taken in
the same process (absolute latencies do not transfer across machines;
ratios of the same workload do):

``run_intersection``
    One bulk :meth:`~repro.labeling.runs.RunList.filter_positions` call
    (routed through the active kernel) against the per-position
    ``is_accessible`` loop it replaced.

``page_decode``
    :meth:`~repro.storage.codecs.CompressedPageFormat.decode_page_columns`
    against the entry-at-a-time ``decode_page`` on the same page bytes.
    The page is encoded with ``none`` container codecs so the comparison
    measures reconstruction, not decompression (which both paths share).

:func:`gate_kernels_report` enforces floor ratios chosen well below the
measured values, so CI noise does not flake the gate while a real
regression (a kernel silently falling back to per-element work) fails
it.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, Optional, Sequence

from repro.bench.reporting import write_report
from repro.exec.kernels import active_kernels, available_backends
from repro.labeling.runs import RunList
from repro.storage.codecs import CompressedPageFormat
from repro.storage.encoding import NodeEntry
from repro.storage.headers import PageHeader

__all__ = [
    "run_kernels_benchmark",
    "gate_kernels_report",
    "write_report",
]

#: floor on each micro's speedup ratio — generous against CI noise
GATES = {
    "run_intersection": 1.5,
    "page_decode": 1.2,
}


def _best_of(fn, repeats: int) -> float:
    best = None
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _bench_run_intersection(n: int, repeats: int) -> Dict[str, float]:
    # alternating accessibility runs of varying width; positions hit
    # every third node, the density PageSkipScan sees on real workloads
    flags = []
    width, flag = 1, True
    while len(flags) < n:
        flags.extend([flag] * width)
        flag = not flag
        width = width % 37 + 3
    run_list = RunList.from_flags(flags[:n])
    positions = array("q", range(0, n, 3))

    def bulk():
        run_list.filter_positions(positions)

    def per_position():
        [pos for pos in positions if run_list.is_accessible(pos)]

    bulk_s = _best_of(bulk, repeats)
    loop_s = _best_of(per_position, repeats)
    assert list(run_list.filter_positions(positions)) == [
        pos for pos in positions if run_list.is_accessible(pos)
    ]
    return {
        "n_positions": len(positions),
        "bulk_ms": bulk_s * 1000.0,
        "per_position_ms": loop_s * 1000.0,
        "ratio": loop_s / bulk_s,
    }


def _bench_page_decode(repeats: int) -> Dict[str, float]:
    fmt = CompressedPageFormat(structure="none", codes="none")
    page_size = 4096
    # structure (8n) + worst-case codes must fit beside the headers
    n = 300
    entries = [
        NodeEntry(
            tag_id=i % 23,
            depth=1 + i % 12,
            subtree=1 + (i * 3) % 50,
            code=(i % 7) if i % 9 == 0 else 0,
            is_transition=i % 9 == 0,
        )
        for i in range(n)
    ]
    header = PageHeader(first_code=1, change_bit=0, n_entries=n)
    page = fmt.encode_page(header, entries, page_size)
    rounds = 50

    def columnar():
        for _ in range(rounds):
            fmt.decode_page_columns(page)

    def entrywise():
        for _ in range(rounds):
            fmt.decode_page(page)

    columnar_s = _best_of(columnar, repeats)
    entry_s = _best_of(entrywise, repeats)
    assert list(fmt.decode_page_columns(page).entries) == fmt.decode_page(page)[1]
    return {
        "entries_per_page": n,
        "decodes": rounds,
        "columnar_ms": columnar_s * 1000.0,
        "entrywise_ms": entry_s * 1000.0,
        "ratio": entry_s / columnar_s,
    }


def run_kernels_benchmark(
    n_positions: int = 200_000,
    repeats: int = 5,
) -> Dict[str, object]:
    """Run the two micros under the active kernel backend."""
    return {
        "backend": active_kernels().name,
        "available_backends": available_backends(),
        "repeats": repeats,
        "micros": {
            "run_intersection": _bench_run_intersection(n_positions, repeats),
            "page_decode": _bench_page_decode(repeats),
        },
        "gates": dict(GATES),
    }


def gate_kernels_report(
    report: Dict[str, object], gates: Optional[Dict[str, float]] = None
) -> Sequence[str]:
    """Ratio-floor violations in a kernels report (empty = pass)."""
    gates = gates if gates is not None else GATES
    violations = []
    micros = report["micros"]
    for name, floor in gates.items():
        ratio = micros[name]["ratio"]
        if ratio < floor:
            violations.append(
                f"{name}: ratio {ratio:.2f}x below the {floor:.2f}x floor"
            )
    return violations

#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload), driven by the bounds in
``BENCHMARK.json``. ``B`` is judged against ``A``:

``ok``          B is not worse than A by more than the metric's bound
``worse``       it is
``unresolved``  the run-to-run spread inside the two files (per-repetition
                values) is wider than the bound, so neither can be said

Counts that one seed fixes exactly (``EXACT``) must be bit-identical on the
single-threaded twig-* workloads; their rows say ``ok`` or ``differs``.

Exit code 0 when every row is ``ok``, 1 otherwise, 2 when the two runs are
not comparable (different machine shape, kernel backend, sizes or
sequence) — comparing those would be comparing two different benchmarks.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: environment fields that must match
MUST_MATCH = ("cpu_count", "kernels", "sizes", "page_size", "codec", "data_seed",
              "mix", "rounds_per_block", "workloads", "seed")

#: per-layer counts that do not depend on timing (twig-* only)
EXACT = (
    "exec.candidates_per_answer", "exec.access_checks_per_answer",
    "storage.pages_decoded_per_answer", "storage.logical_reads_per_answer",
    "dol.transitions", "dol.codebook_entries", "dol.label_bytes_per_node",
)


def incomparable(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    env_a, env_b = a["environment"], b["environment"]
    reasons = [
        f"{field}: {env_a.get(field)!r} vs {env_b.get(field)!r}"
        for field in MUST_MATCH
        if env_a.get(field) != env_b.get(field)
    ]
    if a["seconds"] != b["seconds"]:
        reasons.append(f"seconds: {a['seconds']} vs {b['seconds']}")
    return reasons


def in_run_spread(metric: Dict[str, object]) -> float:
    """Inter-quartile range of the per-repetition values over their median."""
    values = metric.get("rep_values") or []
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def verdict(spec: Dict[str, object], a: Dict[str, object], b: Dict[str, object]) -> Tuple[str, float, float]:
    """(verdict, how much worse B is as a share of A, spread)."""
    base, new = a["value"], b["value"]
    worse_by = (new - base) / base if spec["better"] == "lower" else (base - new) / base
    spread = max(in_run_spread(a), in_run_spread(b))
    if spread > spec["bound"]:
        return "unresolved", worse_by, spread
    return ("worse" if worse_by > spec["bound"] else "ok"), worse_by, spread


def compare(a: Dict[str, object], b: Dict[str, object], declared: Dict[str, object]) -> int:
    bad = 0
    print(f"{'workload':<11} {'metric':<34} {'A':>12} {'B':>12} {'worse by':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in declared["workloads"]:
        name = workload["name"]
        run_a, run_b = a["workloads"].get(name), b["workloads"].get(name)
        if run_a is None or run_b is None:
            print(f"{name:<11} missing from {'A' if run_a is None else 'B'}")
            bad += 1
            continue
        for spec in declared["end_to_end"]:
            m_a = run_a["untraced"]["metrics"][spec["name"]]
            m_b = run_b["untraced"]["metrics"][spec["name"]]
            word, worse_by, spread = verdict(spec, m_a, m_b)
            bad += word != "ok"
            print(f"{name:<11} {spec['name']:<34} {m_a['value']:>12.5g} {m_b['value']:>12.5g} "
                  f"{worse_by:>+9.1%} {spread:>7.1%} {spec['bound']:>6.0%}  {word}")
        if not name.startswith("twig-"):
            continue
        for metric in EXACT:
            v_a = run_a["traced"]["metrics"][metric]["value"]
            v_b = run_b["traced"]["metrics"][metric]["value"]
            word = "ok" if v_a == v_b else "differs"
            bad += word != "ok"
            print(f"{name:<11} {metric:<34} {v_a:>12.6g} {v_b:>12.6g} "
                  f"{'':>9} {'':>7} {'exact':>6}  {word}")
    return bad


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    reasons = incomparable(a, b)
    if reasons:
        print("refusing to compare:", *reasons, sep="\n  ", file=sys.stderr)
        return 2
    bad = compare(a, b, declared)
    print("every row ok" if not bad else f"{bad} row(s) not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

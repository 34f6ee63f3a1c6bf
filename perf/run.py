#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

Two ways in:

``python3 perf/run.py --seed 0``
    Build the data, run all four workloads untraced (end-to-end metrics)
    and traced (per-layer metrics), check every answer, print every metric
    with its unit and sample count, write one result JSON (``--out``).
    ``--workload`` picks workloads, ``--traced`` skips the untraced runs,
    ``--quick`` is the seconds-long smoke configuration.

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, as the driver described by ``BENCHMARK.json``
    makes it. The last line of standard output is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Either way the exit code is non-zero if any answer check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

QUICK_SECONDS = 0.2


def environment(sizes, seed: int) -> Dict[str, object]:
    """What must match before two results may be compared."""
    from repro.exec.kernels import active_kernels

    import workloads

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernels": active_kernels().name,
        "git_commit": _git_commit(),
        "seed": seed,
        "sizes": sizes.as_dict(),
        "page_size": workloads.PAGE_SIZE,
        "codec": workloads.CODEC,
        "data_seed": workloads.DATA_SEED,
        "mix": dict(workloads.MIX),
        "rounds_per_block": workloads.ROUNDS_PER_BLOCK,
        "workloads": {
            w.name: {
                "buffer_capacity": w.buffer_capacity,
                "decoded_cache_bytes": w.decoded_cache_bytes,
                "reads_per_repetition": 40 * w.blocks(sizes),
            }
            for w in workloads.WORKLOADS.values()
        },
    }


def pin_to_one_cpu() -> None:
    """Run the benchmark, and every process it starts, on one CPU.

    Client and server hand each request back and forth; unpinned, the
    scheduler sometimes placed them on one CPU and sometimes on two, and a
    cross-CPU wake-up in this VM costs enough that ``serve-read`` came out
    at 1180 or 1670 ops/s depending on the run. On one CPU it is 2160 +-5%.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _git_commit() -> str:
    """HEAD's commit id, read from ``.git`` without starting a process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _print_metrics(title: str, metrics: Dict[str, Dict[str, object]]) -> None:
    print(f"  {title}")
    for name, m in metrics.items():
        print(f"    {name:<44} {m['value']:>14.6g} {m['unit']:<7} n={m.get('samples', 1)}")


def _declared() -> Dict[str, object]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def contract_run(args) -> int:
    import layers
    import measure
    import workloads

    workload = workloads.WORKLOADS[args.workload[0]]
    sizes = workloads.QUICK if args.quick else workloads.FULL
    runner = layers.run_traced if args.trace else measure.run_untraced
    result = runner(workload, sizes, args.seed, args.seconds, ROOT)
    _print_metrics(f"{workload.name} seed={args.seed} trace={args.trace}", result["metrics"])
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


def full_run(args) -> int:
    import layers
    import measure
    import workloads

    sizes = workloads.QUICK if args.quick else workloads.FULL
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(_declared()["run_seconds"])
    names: List[str] = args.workload or list(workloads.WORKLOADS)
    report = {"environment": environment(sizes, args.seed), "seconds": seconds, "workloads": {}}
    correct = True
    for name in names:
        workload = workloads.WORKLOADS[name]
        print(f"{name}: {workload.why}")
        entry: Dict[str, object] = {}
        if not args.traced:
            entry["untraced"] = measure.run_untraced(workload, sizes, args.seed, seconds, ROOT)
            _print_metrics("end-to-end (tracing off)", entry["untraced"]["metrics"])
        entry["traced"] = layers.run_traced(workload, sizes, args.seed, seconds, ROOT)
        _print_metrics("per-layer (traced run)", entry["traced"]["metrics"])
        for run in entry.values():
            print(f"  answer checks: attempted={run['attempted']} failed={run['failed']}"
                  f" correct={run['correct']}")
            for problem in run["problems"]:
                print(f"  CHECK FAILED: {problem}")
            correct = correct and run["correct"]
        report["workloads"][name] = entry
    digests = {
        name: entry["untraced"]["answers_digest"]
        for name, entry in report["workloads"].items()
        if name.startswith("twig-") and "untraced" in entry
    }
    if len(set(digests.values())) > 1:
        print(f"CHECK FAILED: twig-hot and twig-cold answers differ: {digests}")
        correct = False
    out = args.out or os.path.join(
        HERE, "results", f"result-seed{args.seed}{'-quick' if args.quick else ''}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"result: {out}")
    print("all answer checks passed" if correct else "ANSWER CHECKS FAILED")
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: one run, result JSON on the last line")
    parser.add_argument("--traced", action="store_true",
                        help="only the traced (per-layer) runs")
    parser.add_argument("--quick", action="store_true",
                        help="100-item document, sub-second windows (smoke test)")
    parser.add_argument("--out", help="where to write the result JSON")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/run.py: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    pin_to_one_cpu()
    import workloads

    for name in args.workload or ():
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {list(workloads.WORKLOADS)}")
    if args.trace is None:
        return full_run(args)
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        parser.error("--trace needs exactly one --workload and --seconds")
    return contract_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

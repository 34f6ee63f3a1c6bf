"""Command-line interface: ``repro-dol``.

Subcommands
-----------

``xmark``
    Generate an XMark-like document to a file (or stdout).
``inspect``
    Parse an XML file and print structural statistics.
``label``
    Attach synthetic access controls, build the DOL, and print its size
    beside the per-subject minimal CAMs and naive per-node labels (the
    paper's Section 5.1.1 comparison).
``build``
    Build a page store from an XML file and save it to disk.
``query``
    Evaluate a twig query against an XML file, optionally securely.
``explain``
    Print the NoK evaluation plan for a twig query.
``disseminate``
    Filter an XML file for one subject (one-pass secure dissemination).
``verify-store``
    Offline fsck of a saved page store: checksums, catalog agreement,
    header/entry agreement, WAL state. Exits non-zero on any finding;
    ``--json`` emits the machine-readable report.
``health``
    Probe a running server's self-reported health over the wire; the
    exit code (0/1/2 = healthy/degraded/unavailable) is scriptable.
``bench``
    Run a benchmark suite. ``--suite storage`` (default) builds one
    workload as a plain and as a codec-compressed store, writes
    ``BENCH_storage.json``, and gates on disk and latency ratios;
    ``--suite classes`` measures cache growth against simulated user
    populations (``--users``), writes ``BENCH_classes.json``, and gates
    that every cache layer's entry count is bounded by the number of
    access classes, not users; ``--suite kernels`` runs the array-kernel
    micros (run intersection, columnar page decode) under the active
    backend, writes ``BENCH_kernels.json``, and gates on
    machine-independent ratios. End-to-end timings are ``perf/run.py``.
``serve``
    Serve secure queries and accessibility updates concurrently over a
    newline-delimited JSON TCP protocol (bounded worker pool, snapshot
    isolation, request shedding under overload, self-healing around
    storage corruption). ``--chaos-seed`` turns on seeded fault
    injection at every layer for resilience drills.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.bench.reporting import format_table
from repro.cam.cam import CAM
from repro.dol.labeling import DOL
from repro.errors import ReproError
from repro.labeling.classes import ClassDirectory, normalize_subjects
from repro.nok.engine import QueryEngine
from repro.secure.semantics import CHO, SEMANTICS
from repro.xmark.generator import XMarkConfig, generate
from repro.xmltree.document import Document
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize


def _load_document(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as handle:
        return Document.from_tree(parse(handle.read()))


def _parse_subject(text: Optional[str]):
    """``--subject`` value: one id, or a comma-separated set (``0,3,7``).

    Routed through the engine-shared :func:`normalize_subjects`, so the
    CLI, the service, and the engine agree on one canonical form —
    duplicates and ordering cannot produce distinct cache entries.
    """
    if text is None:
        return None
    try:
        ids = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        ids = []
    if not ids:
        raise argparse.ArgumentTypeError(
            f"--subject takes an id or comma-separated ids, got {text!r}"
        )
    subjects = normalize_subjects(ids)
    return subjects[0] if len(subjects) == 1 else subjects


def _cmd_xmark(args: argparse.Namespace) -> int:
    config = XMarkConfig(n_items=args.items, seed=args.seed)
    text = serialize(generate(config), indent=2 if args.pretty else 0)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    tag_counts: dict = {}
    for pos in range(len(doc)):
        name = doc.tag_name(pos)
        tag_counts[name] = tag_counts.get(name, 0) + 1
    rows = sorted(tag_counts.items(), key=lambda kv: -kv[1])[:20]
    print(f"nodes: {len(doc)}")
    print(f"max depth: {max(doc.depth)}")
    print(f"distinct tags: {len(tag_counts)}")
    print(format_table("top tags", ["tag", "count"], rows))
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    config = SyntheticACLConfig(
        propagation_ratio=args.propagation,
        accessibility_ratio=args.accessibility,
        seed=args.seed,
    )
    matrix = generate_synthetic_acl(doc, config, n_subjects=args.subjects)
    dol = DOL.from_matrix(matrix)
    # One minimal CAM per subject: CAM is a single-subject structure.
    cams = [CAM.from_matrix(doc, matrix, s) for s in range(args.subjects)]
    rows = [
        ("document nodes", len(doc)),
        ("subjects", args.subjects),
        ("DOL transition nodes", dol.n_transitions),
        ("DOL codebook entries", len(dol.codebook)),
        ("DOL total bytes", dol.size_bytes()),
        ("CAM labels (all subjects)", sum(cam.n_labels for cam in cams)),
        ("CAM total bytes", sum(cam.size_bytes() for cam in cams)),
        ("naive labels (one per node)", len(doc)),
        ("naive total bytes", len(doc) * ((args.subjects + 7) // 8)),
    ]
    print(format_table("labeling sizes", ["metric", "value"], rows))
    if args.classes:
        directory = ClassDirectory()
        epoch_key = ("cli", dol.runs_epoch)
        singles = {
            directory.class_of(dol, epoch_key, (s,)) for s in range(args.subjects)
        }
        pairs = {
            directory.class_of(dol, epoch_key, (a, b))
            for a in range(args.subjects)
            for b in range(a + 1, args.subjects)
        }
        class_rows = [
            ("distinct ACLs (atoms)", len(set(matrix.masks()))),
            ("single-subject classes", len(singles)),
            ("subject-pair classes", len(pairs)),
        ]
        print(
            format_table(
                "access classes (equal class = identical accessibility)",
                ["metric", "value"],
                class_rows,
            )
        )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    import os

    from repro.storage.nokstore import NoKStore
    from repro.storage.persist import save_store

    doc = _load_document(args.file)
    config = SyntheticACLConfig(
        propagation_ratio=args.propagation,
        accessibility_ratio=args.accessibility,
        seed=args.seed,
    )
    matrix = generate_synthetic_acl(doc, config, n_subjects=args.subjects)
    labeling = DOL.from_matrix(matrix)
    with NoKStore(
        doc, labeling, path=args.store, page_size=args.page_size,
        codec=args.codec,
    ) as store:
        catalog = save_store(store)
        print(
            f"built store: {store.n_nodes} nodes on "
            f"{store.n_pages} pages ({store.entries_per_page}/page, "
            f"codec {args.codec}), {labeling.n_transitions} transitions "
            f"({labeling.size_bytes()} bytes)"
        )
        print(
            f"wrote {args.store} ({os.path.getsize(args.store)} bytes) "
            f"+ {catalog}"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    if args.subject is not None:
        config = SyntheticACLConfig(
            accessibility_ratio=args.accessibility, seed=args.seed
        )
        n_subjects = max(normalize_subjects(args.subject)) + 1
        matrix = generate_synthetic_acl(config=config, doc=doc, n_subjects=n_subjects)
        engine = QueryEngine.build(doc, matrix)
    else:
        engine = QueryEngine.build(doc)

    if args.explain:
        plan = engine.compile(
            args.query, subject=args.subject, semantics=args.semantics
        )
        print("physical plan:")
        print(plan.explain())
        return 0

    if args.explain_analyze:
        result, plan_text = engine.explain_analyze(
            args.query, subject=args.subject, semantics=args.semantics
        )
        print("physical plan (analyzed):")
        print(plan_text)
        print(
            f"answers: {result.n_answers}  bindings: {result.n_bindings}  "
            f"access checks: {result.stats.access_checks}  "
            f"kernels: {result.stats.kernel_backend}  "
            f"wall time: {result.stats.wall_time * 1000.0:.3f}ms"
        )
        return 0

    result = engine.evaluate(
        args.query, subject=args.subject, semantics=args.semantics
    )
    print(f"answers: {result.n_answers}")
    for pos in result.positions[: args.limit]:
        print(f"  {pos}: <{doc.tag_name(pos)}> {doc.text(pos)[:60]}")
    if result.n_answers > args.limit:
        print(f"  ... and {result.n_answers - args.limit} more")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    engine = QueryEngine.build(doc)
    if args.analyze:
        result, plan_text = engine.explain_analyze(args.query)
        print(engine.explain(args.query))
        print("physical plan (analyzed):")
        print(plan_text)
        print(f"answers: {result.n_answers}")
    else:
        print(engine.explain(args.query))
    return 0


def _cmd_disseminate(args: argparse.Namespace) -> int:
    from repro.secure.dissemination import filter_xml

    doc = _load_document(args.file)
    config = SyntheticACLConfig(
        accessibility_ratio=args.accessibility, seed=args.seed
    )
    matrix = generate_synthetic_acl(doc, config, n_subjects=args.subject + 1)
    labeling = DOL.from_matrix(matrix)
    with open(args.file, "r", encoding="utf-8") as handle:
        xml_text = handle.read()
    out = filter_xml(xml_text, labeling, args.subject, args.policy)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(out)
        print(f"wrote {len(out)} bytes to {args.output}")
    else:
        sys.stdout.write(out + "\n")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.chaos import default_chaos
    from repro.server.service import QueryService, ServiceConfig

    doc = _load_document(args.file)
    config = SyntheticACLConfig(
        propagation_ratio=args.propagation,
        accessibility_ratio=args.accessibility,
        seed=args.seed,
    )
    matrix = generate_synthetic_acl(doc, config, n_subjects=args.subjects)
    engine = QueryEngine.build(doc, matrix, use_store=True)
    chaos = None
    if args.chaos_seed is not None:
        chaos = default_chaos(args.chaos_seed)
    service_config = ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        timeout=args.timeout if args.timeout > 0 else None,
    )
    if args.max_request_bytes is not None:
        service_config.max_request_bytes = args.max_request_bytes
    service = QueryService(engine, service_config, chaos=chaos)
    print(
        f"serving {args.file} ({len(doc)} nodes, {args.subjects} subjects) "
        f"on {args.host}:{args.port} "
        f"with {args.workers} workers ({args.server} server)"
    )
    if chaos is not None:
        print(
            f"CHAOS MODE: injecting seeded faults at every layer "
            f"(seed {args.chaos_seed}) — do not point real clients here"
        )
    if args.server == "async":
        from repro.server.aserver import serve_async

        # The facade's context manager owns the full teardown chain:
        # listeners, loop thread, service pool, store.
        with serve_async(
            service,
            host=args.host,
            port=args.port,
            chaos=chaos,
            http_port=args.http_port,
        ) as running:
            if running.http_address is not None:
                print(
                    f"http front end on "
                    f"{running.http_address[0]}:{running.http_address[1]}"
                )
            try:
                threading.Event().wait()
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                pass
        return 0
    if args.http_port is not None:
        print("--http-port requires --server async", file=sys.stderr)
        return 2
    from repro.server.netserver import serve

    # serve() owns the teardown chain in its finally block
    serve(service, host=args.host, port=args.port, chaos=chaos)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.acl.surrogates import generate_livelink
    from repro.bench.loadgen import gate_serving_report, run_serving_benchmark
    from repro.server.aserver import serve_async
    from repro.server.netserver import serve
    from repro.server.service import QueryService, ServiceConfig
    from repro.storage.nokstore import NoKStore

    dataset = generate_livelink(
        n_items=args.items,
        n_groups=args.groups,
        n_users=0,
        seed=args.seed,
    )
    built = DOL.from_matrix(dataset.matrix, "add_items")
    store = NoKStore(dataset.doc, built, page_size=4096)
    engine = QueryEngine(dataset.doc, labeling=built, store=store)
    config = ServiceConfig(workers=args.workers, queue_depth=args.queue_depth)
    v1_service = QueryService(engine, config)
    v2_service = QueryService(engine, config)
    v1_server = serve(v1_service, host="127.0.0.1", port=0, background=True)
    try:
        with serve_async(v2_service, host="127.0.0.1", port=0) as v2_server:
            print(
                f"loadgen: {args.items} items, {args.users} users over "
                f"{args.groups} groups, {args.requests} requests/profile "
                f"at {args.rate} req/s"
            )
            report = run_serving_benchmark(
                v1_server.address,
                v2_server.address,
                n_users=args.users,
                n_groups=args.groups,
                connections=tuple(args.connections),
                requests=args.requests,
                arrival_rate_hz=args.rate,
                seed=args.seed,
            )
    finally:
        v1_server.shutdown()
        v1_server.server_close()
        v1_service.close()
        # v2_server's context manager closed v2_service and the store

    out = Path(args.out)
    out.write_text(_json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    for entry in report["profiles"]:
        stream = " stream" if entry["stream"] else ""
        latency = entry["latency"]
        print(
            f"  v{entry['protocol']}{stream} conns={entry['connections']}: "
            f"{entry['throughput_rps']} req/s, "
            f"p50={latency.get('p50_ms', 0):.1f}ms "
            f"p99={latency.get('p99_ms', 0):.1f}ms, "
            f"{entry['completed']}/{entry['requests']} ok"
        )
    largest = report["largest_query"]
    print(
        f"  largest query: ttff={largest['ttff_ms']}ms "
        f"full={largest['full_ms']}ms"
    )
    if args.gate:
        problems = gate_serving_report(report)
        if problems:
            for problem in problems:
                print(f"GATE FAIL: {problem}", file=sys.stderr)
            return 1
        print("serving gates passed")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Exit 0 healthy, 1 degraded, 2 unavailable or unreachable."""
    import json

    from repro.server.client import ResilientClient, RetryPolicy

    policy = RetryPolicy(max_attempts=3, deadline_s=args.timeout)
    try:
        with ResilientClient(args.host, args.port, policy=policy) as client:
            report = client.health(deadline_s=args.timeout)
    except ReproError as exc:
        print(
            json.dumps({"state": "unavailable", "error": str(exc)}, indent=2)
            if args.json
            else f"{args.host}:{args.port}: unreachable ({exc})"
        )
        return 2
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        breaker = report.get("breaker", {})
        print(
            f"{args.host}:{args.port}: {report['state']} "
            f"(breaker {breaker.get('state')}, "
            f"quarantined {report.get('quarantined_pages')}, "
            f"brownout tier {report.get('brownout_tier')})"
        )
    return {"healthy": 0, "degraded": 1}.get(report.get("state"), 2)


def _cmd_verify_store(args: argparse.Namespace) -> int:
    import json

    from repro.storage.persist import fsck_report

    report = fsck_report(args.store, catalog_path=args.catalog)
    if args.json:
        print(json.dumps(report, indent=2, default=str))
        return 0 if report["clean"] else 1
    codec = report.get("codec")
    codec_text = (
        f"structure={codec['structure']} codes={codec['codes']}"
        if codec else "none (plain v2)"
    )
    print(f"{args.store}: codec {codec_text}")
    print(
        f"{args.store}: {report['n_pages']} pages, "
        f"{report['physical_bytes']} physical bytes, "
        f"{report['logical_bytes']} logical bytes"
    )
    for name, totals in sorted(report.get("containers", {}).items()):
        used = ",".join(totals["codecs"]) or "-"
        print(
            f"{args.store}:   {name}: {totals['physical_bytes']} physical / "
            f"{totals['logical_bytes']} logical bytes (codecs: {used})"
        )
    if report["clean"]:
        print(f"{args.store}: clean")
        return 0
    for finding in report["findings"]:
        print(f"{args.store}: {finding['message']}")
    print(f"{len(report['findings'])} problem(s) found")
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.output is None:
        args.output = f"BENCH_{args.suite}.json"
    if args.suite == "classes":
        return _cmd_bench_classes(args)
    if args.suite == "kernels":
        return _cmd_bench_kernels(args)
    from repro.bench.exec import (
        gate_storage_report,
        run_storage_benchmark,
        write_report,
    )

    storage = run_storage_benchmark(
        codec=args.storage_codec, repeats=args.repeats,
        semantics=args.semantics,
    )
    write_report(storage, args.output)
    print(f"wrote {args.output}")
    plain = storage["variants"]["plain"]
    compressed = storage["variants"]["compressed"]
    print(
        f"  storage codec {storage['codec']}: "
        f"{compressed['store_bytes']} vs {plain['store_bytes']} bytes "
        f"({storage['bytes_ratio']:.2f}x), latency "
        f"{storage['latency_ratio']:.2f}x plain"
    )
    violations = gate_storage_report(storage)
    if violations:
        for line in violations:
            print(f"VIOLATION: {line}")
        return 1
    print("storage-codec gate: >=25% smaller on disk, latency within 10%")
    return 0


def _cmd_bench_kernels(args: argparse.Namespace) -> int:
    from repro.bench.kernels import (
        gate_kernels_report,
        run_kernels_benchmark,
        write_report,
    )

    report = run_kernels_benchmark(repeats=args.repeats)
    write_report(report, args.output)
    print(f"wrote {args.output}")
    print(f"  kernel backend: {report['backend']}")
    for name, micro in report["micros"].items():
        print(f"  {name}: {micro['ratio']:.2f}x")
    violations = list(gate_kernels_report(report))
    if violations:
        for line in violations:
            print(f"VIOLATION: {line}")
        return 1
    print("kernels gate: every micro at or above its ratio floor")
    return 0


def _cmd_bench_classes(args: argparse.Namespace) -> int:
    from repro.bench.classes import (
        gate_class_report,
        run_class_benchmark,
        write_report,
    )

    report = run_class_benchmark(user_counts=tuple(args.users))
    write_report(report, args.output)
    print(f"wrote {args.output}")
    for label in sorted(report["scales"], key=int):
        entry = report["scales"][label]
        print(
            f"  users={label}: {entry['n_classes']} classes, "
            f"caches plan={entry['plan_cache_entries']} "
            f"run={entry['run_cache_entries']} "
            f"result={entry['result_cache_entries']}, "
            f"{entry['users_per_sec']:.0f} canonicalizations/s, "
            f"{entry['queries_per_sec']:.0f} q/s"
        )
    violations = gate_class_report(report)
    if violations:
        for line in violations:
            print(f"VIOLATION: {line}")
        return 1
    print("class-collapse gate: cache growth bounded by #classes, not #users")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dol",
        description="DOL access control labeling for XML (ICDE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_xmark = sub.add_parser("xmark", help="generate an XMark-like document")
    p_xmark.add_argument("--items", type=int, default=100)
    p_xmark.add_argument("--seed", type=int, default=42)
    p_xmark.add_argument("--pretty", action="store_true")
    p_xmark.add_argument("-o", "--output")
    p_xmark.set_defaults(func=_cmd_xmark)

    p_inspect = sub.add_parser("inspect", help="print document statistics")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_label = sub.add_parser(
        "label", help="build the DOL and compare its size to CAM and naive labels"
    )
    p_label.add_argument("file")
    p_label.add_argument("--subjects", type=int, default=1)
    p_label.add_argument("--accessibility", type=float, default=0.5)
    p_label.add_argument("--propagation", type=float, default=0.3)
    p_label.add_argument("--seed", type=int, default=0)
    p_label.add_argument(
        "--classes",
        action="store_true",
        help="also report access-class counts (single subjects and pairs)",
    )
    p_label.set_defaults(func=_cmd_label)

    p_build = sub.add_parser(
        "build", help="build a page store from an XML file and save it"
    )
    p_build.add_argument("file")
    p_build.add_argument("store", help="path for the page file")
    p_build.add_argument("--subjects", type=int, default=2)
    p_build.add_argument("--accessibility", type=float, default=0.7)
    p_build.add_argument("--propagation", type=float, default=0.3)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--page-size", type=int, default=4096)
    p_build.add_argument(
        "--codec",
        choices=("none", "zlib", "structure-delta"),
        default="none",
        help="page-interior codec: none (plain v2 layout), zlib (DEFLATE "
        "both containers), or structure-delta (delta+varint structure, "
        "DEFLATE codes); recorded in the catalog",
    )
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="evaluate a twig query")
    p_query.add_argument("file")
    p_query.add_argument("query")
    p_query.add_argument(
        "--subject",
        type=_parse_subject,
        default=None,
        help="subject id, or comma-separated ids for user-level "
        "evaluation (rights are the union)",
    )
    p_query.add_argument("--semantics", choices=SEMANTICS, default=CHO)
    p_query.add_argument("--accessibility", type=float, default=0.7)
    p_query.add_argument("--seed", type=int, default=0)
    p_query.add_argument("--limit", type=int, default=10)
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="print the compiled physical plan instead of executing",
    )
    p_query.add_argument(
        "--explain-analyze",
        action="store_true",
        help="execute, then print the plan with per-operator rows/timings",
    )
    p_query.set_defaults(func=_cmd_query)

    p_bench = sub.add_parser(
        "bench",
        help="ratio-gated benchmark suites (storage codec, classes, kernels)",
    )
    p_bench.add_argument(
        "--suite",
        choices=("storage", "classes", "kernels"),
        default="storage",
        help="storage: compressed-vs-plain store, disk and latency ratios; "
        "classes: class-collapse cache-growth benchmark; kernels: "
        "array-kernel micros (run intersection, columnar decode)",
    )
    p_bench.add_argument(
        "--users", type=int, nargs="+", default=[1_000, 10_000, 100_000],
        help="simulated-user population sizes (classes suite only)",
    )
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--semantics", choices=SEMANTICS, default=CHO)
    p_bench.add_argument(
        "-o", "--output", default=None,
        help="report path (default BENCH_<suite>.json)",
    )
    p_bench.add_argument(
        "--storage-codec",
        choices=("structure-delta", "zlib"),
        default="structure-delta",
        help="page codec compared against the plain layout (storage suite)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_explain = sub.add_parser(
        "explain", help="print the NoK logical plan and the physical plan"
    )
    p_explain.add_argument("file")
    p_explain.add_argument("query")
    p_explain.add_argument(
        "--analyze",
        action="store_true",
        help="also execute and print per-operator row counts and timings",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_diss = sub.add_parser(
        "disseminate", help="filter an XML file for one subject"
    )
    p_diss.add_argument("file")
    p_diss.add_argument("--subject", type=int, default=0)
    p_diss.add_argument("--policy", choices=("prune", "hoist"), default="prune")
    p_diss.add_argument("--accessibility", type=float, default=0.7)
    p_diss.add_argument("--seed", type=int, default=0)
    p_diss.add_argument("-o", "--output")
    p_diss.set_defaults(func=_cmd_disseminate)

    p_fsck = sub.add_parser(
        "verify-store", help="check a saved page store for corruption"
    )
    p_fsck.add_argument("store", help="path to the page file")
    p_fsck.add_argument(
        "--catalog", default=None, help="sidecar catalog (default: <store>.catalog.json)"
    )
    p_fsck.add_argument(
        "--json", action="store_true",
        help="machine-readable fsck report (findings, corrupt pages, WAL state)",
    )
    p_fsck.set_defaults(func=_cmd_verify_store)

    p_health = sub.add_parser(
        "health",
        help="probe a running server's health (exit 0/1/2 = healthy/degraded/unavailable)",
    )
    p_health.add_argument("--host", default="127.0.0.1")
    p_health.add_argument("--port", type=int, default=8787)
    p_health.add_argument("--timeout", type=float, default=5.0)
    p_health.add_argument("--json", action="store_true")
    p_health.set_defaults(func=_cmd_health)

    p_serve = sub.add_parser(
        "serve",
        help="serve secure queries over newline-delimited JSON on TCP",
    )
    p_serve.add_argument("file", help="XML document to serve")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument("--workers", type=int, default=4)
    p_serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="extra requests admitted beyond busy workers before shedding",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds (0 disables)",
    )
    p_serve.add_argument("--subjects", type=int, default=8)
    p_serve.add_argument("--propagation", type=float, default=0.85)
    p_serve.add_argument("--accessibility", type=float, default=0.5)
    p_serve.add_argument("--seed", type=int, default=42)
    p_serve.add_argument(
        "--chaos-seed", type=int, default=None,
        help="inject seeded faults at every layer (storage/service/network) "
        "for resilience drills; NOT for real serving",
    )
    p_serve.add_argument(
        "--server", choices=("thread", "async"), default="thread",
        help="thread: one handler thread per connection (protocol v1); "
        "async: event-loop server speaking protocol v1+v2 with "
        "multiplexing and fragment streaming",
    )
    p_serve.add_argument(
        "--http-port", type=int, default=None,
        help="also serve POST /query, GET /health, GET /metrics over HTTP "
        "on this port (async server only; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--max-request-bytes", type=int, default=None,
        help="largest accepted request frame (default 1 MiB)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="benchmark serving: open-loop load against both servers, "
        "latency histograms to BENCH_serving.json",
    )
    p_loadgen.add_argument("--items", type=int, default=300,
                           help="LiveLink surrogate size (items)")
    p_loadgen.add_argument("--groups", type=int, default=16)
    p_loadgen.add_argument("--users", type=int, default=2000,
                           help="simulated user population (subject sets)")
    p_loadgen.add_argument("--workers", type=int, default=4)
    p_loadgen.add_argument("--queue-depth", type=int, default=16)
    p_loadgen.add_argument(
        "--connections", type=int, nargs="+", default=[8, 64],
        help="connection counts to profile",
    )
    p_loadgen.add_argument("--requests", type=int, default=200,
                           help="requests per profile")
    p_loadgen.add_argument("--rate", type=float, default=400.0,
                           help="offered load in requests/second")
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument("--out", default="BENCH_serving.json")
    p_loadgen.add_argument(
        "--gate", action="store_true",
        help="exit 1 unless the machine-independent serving gates pass",
    )
    p_loadgen.set_defaults(func=_cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

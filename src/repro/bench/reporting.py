"""Plain-text table rendering and report stamping for benchmark output.

Every reproduced figure/table prints through these helpers so the bench
logs read like the paper's tables: a caption, aligned columns, one row per
measured point. :func:`serving_stamp` is the shared identity block for
serving measurements, so BENCH_serving.json snapshots taken across PRs
stay comparable point-by-point; :func:`write_report` writes every
suite's JSON payload.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def write_report(report: Dict[str, object], path: str) -> str:
    """Write a benchmark payload as sorted, indented JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def serving_stamp(
    protocol: int, connections: int, arrival_rate_hz: float
) -> Dict[str, Any]:
    """The identity block every serving-benchmark entry carries.

    A measured point is only comparable to another taken under the same
    protocol version, connection count, and offered load; stamping the
    three into each entry lets trajectory tooling join snapshots across
    BENCH_serving.json revisions by key instead of by list position.
    """
    return {
        "protocol": int(protocol),
        "connections": int(connections),
        "arrival_rate_hz": float(arrival_rate_hz),
    }


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table(
    caption: str, header: Sequence[str], rows: Iterable[Sequence[Cell]]
) -> str:
    """Render a fixed-width text table with a caption."""
    text_rows: List[List[str]] = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out = [caption, line(list(header)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)


def print_table(
    caption: str, header: Sequence[str], rows: Iterable[Sequence[Cell]]
) -> None:
    """Print a table (benchmarks run pytest with ``-s`` unnecessary; pytest
    captures and shows output for failing or ``-rA`` runs, and
    pytest-benchmark prints its own timing table separately)."""
    print("\n" + format_table(caption, header, rows) + "\n")


def plan_rows(plan) -> List[Sequence[Cell]]:
    """Per-operator report rows for a (run) physical plan.

    One row per operator, preorder: name, detail, rows out, inclusive
    milliseconds, and any operator-specific counters (pages skipped,
    candidates denied, join pairs pruned). Feed the result straight to
    :func:`format_table` / :func:`print_table`.
    """
    rows: List[Sequence[Cell]] = []
    for depth, op in _walk_with_depth(plan.root, 0):
        extras = " ".join(
            f"{key}={value}" for key, value in sorted(op.stats.extra.items())
        )
        rows.append(
            (
                "  " * depth + op.name,
                op.describe(),
                op.stats.rows_out,
                op.stats.time * 1000.0,
                extras,
            )
        )
    return rows


def format_plan_table(caption: str, plan) -> str:
    """Render a physical plan's per-operator counters as a text table."""
    return format_table(
        caption,
        ["operator", "detail", "rows", "ms", "counters"],
        plan_rows(plan),
    )


def _walk_with_depth(op, depth: int):
    yield depth, op
    for child in op.children:
        yield from _walk_with_depth(child, depth + 1)

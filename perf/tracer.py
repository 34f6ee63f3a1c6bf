"""Spans recorded from outside the program.

The tracer wraps public callables *on live instances* (an instance
attribute shadows the class's method, so nothing under ``src/`` changes and
``uninstall`` restores the original lookup). Each wrapped call is a span:
name, start, end, parent, request id. A span's *self time* is its duration
minus the time its child spans cover.

Two recording modes keep memory and overhead bounded:

- ``span``: one record per call (requests, plan/compile/run, updates);
- ``leaf``: calls that happen thousands of times per request (page
  lookups and everything below them) are summed per (request, name) —
  calls, total and self time — instead of stored one by one.

Every thread records into its own lists, so the hot path takes no lock.
Spans live in memory and are written as JSON lines by ``dump``.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (span id, parent id, request id, name, start ns, end ns, self ns)
Span = Tuple[int, int, Any, str, int, int, int]


class Frame:
    """An open span."""

    __slots__ = ("span_id", "rid", "child_ns", "parent", "below")

    def __init__(self, span_id: int, rid: Any, parent: Optional["Frame"], below: Optional["Frame"]):
        self.span_id = span_id
        self.rid = rid
        self.child_ns = 0
        #: the span this one is charged to (may be open on another thread)
        self.parent = parent
        #: what was on top of this thread's stack before
        self.below = below


class _ThreadState(threading.local):
    """Per-thread stack top and recordings."""

    def __init__(self) -> None:
        self.top: Optional[Frame] = None
        self.spans: List[Span] = []
        #: (request id, name) -> [calls, total ns, self ns]
        self.leaves: Dict[Tuple[Any, str], List[int]] = {}
        self.registered = False


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._recordings: List[Tuple[List[Span], Dict[Tuple[Any, str], List[int]]]] = []
        self._installed: List[Tuple[object, str]] = []

    # -- the span stack ------------------------------------------------------

    def _thread(self) -> _ThreadState:
        state = self._state
        if not state.registered:
            state.registered = True
            with self._lock:
                self._recordings.append((state.spans, state.leaves))
        return state

    def current(self) -> Optional[Frame]:
        return self._state.top

    def push(self, rid: Any = None, parent: Optional[Frame] = None) -> Frame:
        """Open a span under ``parent`` (default: this thread's open span)."""
        state = self._state
        below = state.top
        if parent is None:
            parent = below
        if rid is None and parent is not None:
            rid = parent.rid
        frame = state.top = Frame(next(self._ids), rid, parent, below)
        return frame

    def pop(self, frame: Frame, name: str, start: int, end: int, leaf: bool = False) -> None:
        """Close ``frame`` and charge its duration to its parent's children."""
        state = self._thread()
        state.top = frame.below
        duration = end - start
        parent = frame.parent
        if parent is not None:
            parent.child_ns += duration
        own = duration - frame.child_ns
        if leaf:
            cell = state.leaves.get((frame.rid, name))
            if cell is None:
                state.leaves[(frame.rid, name)] = [1, duration, own]
            else:
                cell[0] += 1
                cell[1] += duration
                cell[2] += own
        else:
            state.spans.append((
                frame.span_id, parent.span_id if parent else 0, frame.rid,
                name, start, end, own,
            ))

    def record(self, name: str, start: int, end: int, rid: Any, parent: Optional[Frame] = None) -> None:
        """A finished childless span the caller measured itself."""
        if parent is not None:
            parent.child_ns += end - start
        self._thread().spans.append((
            next(self._ids), parent.span_id if parent else 0, rid,
            name, start, end, end - start,
        ))

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self, owner: object, attr: str, name: str, leaf: bool = False,
        rid_of: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[[Any, Frame], None]] = None,
    ) -> None:
        """Shadow ``owner.attr`` with a span-recording wrapper.

        ``rid_of(*args)`` names the request a root span belongs to;
        ``after(result, frame)`` runs once the call returned (to wrap what
        it returned, or to read counters it left behind).
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            frame = tracer.push(rid_of(*args, **kwargs) if rid_of else None)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.pop(frame, name, start, perf_counter_ns(), leaf)
            if after is not None:
                after(result, frame)
            return result

        self.install(owner, attr, wrapper)

    def install(self, owner: object, attr: str, replacement: Callable) -> None:
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr))

    def uninstall(self) -> None:
        """Drop every shadowing attribute: lookups reach the class again."""
        for owner, attr in reversed(self._installed):
            try:
                delattr(owner, attr)
            except AttributeError:
                pass
        self._installed.clear()

    # -- reading ---------------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        with self._lock:
            recordings = list(self._recordings)
        for spans, _leaves in recordings:
            yield from list(spans)

    def durations(self, name: str) -> List[int]:
        return [end - start for _i, _p, _r, n, start, end, _s in self.spans() if n == name]

    def by_request(self, name: str) -> Dict[Any, int]:
        """Total duration of ``name`` spans per request id."""
        totals: Dict[Any, int] = {}
        for _i, _p, rid, n, start, end, _s in self.spans():
            if n == name:
                totals[rid] = totals.get(rid, 0) + end - start
        return totals

    def leaf_totals(self, name: str) -> Tuple[int, int, int]:
        """(calls, total ns, self ns) of a leaf name over all requests."""
        calls = total = own = 0
        for _rid, leaf_name, cell in self._leaves():
            if leaf_name == name:
                calls += cell[0]
                total += cell[1]
                own += cell[2]
        return calls, total, own

    def _leaves(self):
        with self._lock:
            recordings = list(self._recordings)
        for _spans, leaves in recordings:
            for (rid, name), cell in list(leaves.items()):
                yield rid, name, cell

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, rid, name, start, end, own in self.spans():
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "rid": rid, "name": name,
                    "start_us": start / 1e3, "end_us": end / 1e3, "self_us": own / 1e3,
                }) + "\n")
            for rid, name, (calls, total, own) in self._leaves():
                out.write(json.dumps({
                    "rid": rid, "name": name, "calls": calls,
                    "total_us": total / 1e3, "self_us": own / 1e3,
                }) + "\n")

"""Volcano-style physical operators for secure NoK query evaluation.

Each operator is an iterator factory: :meth:`Operator.execute` returns a
generator that pulls *batches* of rows lazily from its children, so
results stream out of the plan incrementally — a :class:`Limit` near the
root stops the entire pipeline after ``k`` rows, touching only the
candidates, pages and access checks needed to produce them. Moving a
batch rather than a row per generator hop amortizes interpreter dispatch
and the two clock reads of instrumentation over the whole batch.

Batch types are uniform per plan edge:

- scan-level operators (:class:`TagIndexScan`, :class:`PageSkipScan`,
  :class:`AccessFilter`) produce sorted ``array('q')`` batches of
  candidate document positions;
  :class:`TagIndexScan` emits them with doubling sizes (32 up to 1024),
  so a ``Limit`` still touches only a prefix of the candidates;
- :class:`NPMMatch` turns candidate batches into binding batches: a
  :class:`ColumnBatch` of position columns when every binding is
  positional (the ``//``-chain case), a list of binding dicts
  (``id(pattern node) -> position``) for full NPM matches;
- :class:`STDJoin` consumes and produces binding batches, staying
  columnar whenever both inputs are;
- :class:`Project` reduces bindings to distinct returning-node positions.

:class:`AccessFilter` intersects whole batches against the query's
decoded accessibility run list (:meth:`~repro.exec.context.ExecutionContext.run_list`) through the
active array kernel (:mod:`repro.exec.kernels`); :class:`STDJoin` uses
the same kernels over sorted position arrays.

Every operator records :class:`~repro.exec.context.OperatorStats`
(``rows_out`` counts rows, ``extra['batches']`` the batches that carried
them, ``time`` is inclusive), which ``EXPLAIN ANALYZE`` renders per plan
node together with rows-per-batch.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from itertools import chain
from typing import Dict, Iterator, List, Tuple, Union

from repro.errors import PageCorruptionError
from repro.exec.context import ExecutionContext, OperatorStats
from repro.exec.kernels import active_kernels
from repro.nok.decompose import NoKSubtree
from repro.nok.matcher import Binding, match_nok_subtree
from repro.nok.pattern import CHILD, PatternNode
from repro.xmltree.document import Document

#: First batch a scan emits; each subsequent batch doubles up to the max,
#: so early-terminating plans (Limit) touch few candidates while long
#: scans amortize per-batch overhead.
MIN_BATCH_SIZE = 32
MAX_BATCH_SIZE = 1024


class ColumnBatch:
    """A binding batch as parallel position columns — no dicts.

    ``keys`` are the bound pattern-node ids and ``columns`` the matching
    ``array('q')`` position columns; row ``i`` is the binding
    ``{keys[k]: columns[k][i]}``. ``n`` is explicit so a batch of
    empty bindings (no bound keys) still knows its row count.

    Operators that understand the positional form work on the columns
    directly; anything else calls :meth:`bindings` to materialize the
    dict rows — the two representations are interchangeable by
    construction.
    """

    __slots__ = ("keys", "columns", "n")

    def __init__(
        self, keys: Tuple[int, ...], columns: Tuple[array, ...], n: int
    ):
        self.keys = keys
        self.columns = columns
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, item) -> "ColumnBatch":
        if not isinstance(item, slice):
            raise TypeError("ColumnBatch supports slice access only")
        columns = tuple(col[item] for col in self.columns)
        n = len(columns[0]) if columns else len(range(*item.indices(self.n)))
        return ColumnBatch(self.keys, columns, n)

    def column(self, key: int) -> array:
        return self.columns[self.keys.index(key)]

    def bindings(self) -> List[Binding]:
        """Materialize the dict-row view (the fallback interop path)."""
        if not self.keys:
            return [{} for _ in range(self.n)]
        keys = self.keys
        return [dict(zip(keys, row)) for row in zip(*self.columns)]


#: what binding-level plan edges may carry
BindingBatch = Union[ColumnBatch, List[Binding]]


def _as_bindings(batch: BindingBatch) -> List[Binding]:
    return batch.bindings() if isinstance(batch, ColumnBatch) else batch


class Operator:
    """Base class: a plan node with children, stats, and a batch generator."""

    name = "Operator"

    def __init__(self, *children: "Operator"):
        self.children: List[Operator] = list(children)
        self.stats = OperatorStats()

    @property
    def child(self) -> "Operator":
        return self.children[0]

    def execute(self, ctx: ExecutionContext) -> Iterator:
        """Open the operator and return its (instrumented) batch stream."""
        self.stats.executions += 1
        return self._instrumented(ctx)

    def _instrumented(self, ctx: ExecutionContext) -> Iterator:
        """Two clock reads per batch; ``rows_out`` counts the rows inside."""
        rows = self._rows(ctx)
        stats = self.stats
        perf = time.perf_counter
        while True:
            started = perf()
            try:
                batch = next(rows)
            except StopIteration:
                stats.time += perf() - started
                return
            stats.time += perf() - started
            stats.rows_out += len(batch)
            stats.bump("batches")
            yield batch

    def _rows(self, ctx: ExecutionContext) -> Iterator:
        """Yield this operator's non-empty batches."""
        raise NotImplementedError

    def describe(self) -> str:
        """Operator-specific detail shown in EXPLAIN output."""
        return ""

    def walk(self) -> Iterator["Operator"]:
        """This operator and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


class StaticEmpty(Operator):
    """A plan root proven empty at compile time (the static deny pre-pass).

    Emitted by the :class:`~repro.exec.planner.Planner` when the subject
    set's access class is fully denied over the document: the decoded
    run list has no accessible position, so no candidate could survive
    an access filter. The operator yields nothing — no scan, no page
    reads, no access checks.
    """

    name = "StaticEmpty"

    def __init__(self, reason: str = "access class fully denied"):
        super().__init__()
        self.reason = reason

    def _rows(self, ctx: ExecutionContext) -> Iterator:
        return iter(())

    def describe(self) -> str:
        return self.reason


def root_candidates(
    doc: Document, pnode: PatternNode, anchored: bool = False
) -> "range | array":
    """Sorted positions passing a NoK subtree root's node test over ``doc``.

    This is the whole root test — tag, value and attribute tests — and
    it reads only the document the plan evaluates (a store-backed plan's
    snapshot document, which its pages were rendered from), so no plan
    reads a page to check a root. ``anchored`` marks the query root
    under a ``/`` root axis: the only candidate is position 0. The tag
    index narrows a named tag; a wildcard starts from every position.
    """
    if anchored:
        positions = range(1 if pnode.tag in ("*", doc.tag_name(0)) else 0)
    elif pnode.tag == "*":
        positions = range(len(doc))
    else:
        positions = doc.positions_with_tag(pnode.tag)
    value = pnode.value
    if value is None and not pnode.attr_tests:
        return positions
    texts, attrs_of, matches_attrs = doc.texts, doc.attrs_of, pnode.matches_attrs
    return array(
        "q",
        [
            pos
            for pos in positions
            if (value is None or texts[pos] == value) and matches_attrs(attrs_of(pos))
        ],
    )


class TagIndexScan(Operator):
    """Candidate positions for one NoK subtree root, from the tag index.

    The candidates are :func:`root_candidates` over the context's
    document — the snapshot's, so the index always matches what the
    plan reads — and so have passed the root's whole node test. They
    leave as ``array('q')`` batches (slices of the tag index's array)
    with doubling sizes; every emitted candidate is counted in
    ``EvalStats.candidates``.
    """

    name = "TagIndexScan"

    def __init__(self, pnode: PatternNode, anchored: bool = False):
        super().__init__()
        self.pnode = pnode
        self.anchored = anchored

    def _rows(self, ctx: ExecutionContext) -> Iterator[array]:
        stats = ctx.stats
        positions = root_candidates(ctx.doc, self.pnode, self.anchored)
        ranged = isinstance(positions, range)
        total = len(positions)
        start = 0
        size = MIN_BATCH_SIZE
        while start < total:
            batch = positions[start : start + size]
            if ranged:
                batch = array("q", batch)
            stats.candidates += len(batch)
            start += len(batch)
            size = min(size * 2, MAX_BATCH_SIZE)
            yield batch

    def describe(self) -> str:
        detail = f"<{self.pnode.tag}>"
        if self.pnode.value is not None:
            detail += f" ={self.pnode.value!r}"
        if self.anchored:
            detail += " anchored@root"
        return detail


class PageSkipScan(Operator):
    """Header-driven page skipping (Section 3.3) over a candidate stream.

    A candidate whose page header denies every subject and has a clear
    change bit is inaccessible without reading the page — it is dropped
    here at zero I/O cost. Inserted by the secure rewrites only when the
    plan runs over a :class:`~repro.storage.nokstore.NoKStore`.

    Candidate batches arrive sorted, so each batch splits into runs of
    positions sharing a page; the header test runs once per group, its
    verdict memoized for the query. A quarantined page needs no branch
    here: the store refuses it to whichever operator actually reads it.
    """

    name = "PageSkipScan"

    def _rows(self, ctx: ExecutionContext) -> Iterator[array]:
        store, subjects, stats = ctx.store, ctx.subjects, ctx.stats
        entries_per_page = store.entries_per_page
        header_skips: Dict[int, bool] = {}
        for batch in self.child.execute(ctx):
            out = array("q")
            i, n = 0, len(batch)
            while i < n:
                page_id = batch[i] // entries_per_page
                j = bisect_left(batch, (page_id + 1) * entries_per_page, i)
                skip = header_skips.get(page_id)
                if skip is None:
                    skip = store.page_fully_inaccessible_any(page_id, subjects)
                    header_skips[page_id] = skip
                if skip:
                    stats.candidates_skipped_by_header += j - i
                    self.stats.bump("skipped", j - i)
                else:
                    out.extend(batch[i:j])
                i = j
            if out:
                yield out

    def describe(self) -> str:
        return "header table"


class AccessFilter(Operator):
    """The ε-NoK ACCESS pre-condition on candidate roots (Algorithm 1).

    Under Cho semantics the check is node-level accessibility; under view
    semantics the run list is path-based, making this the Gabillon–Bruno
    pruned-view test — and, since every binding a join sees has passed
    it, the only path test a view plan needs. Inserted only by the secure
    rewrite — non-secure plans carry no filter at all.

    Instead of probing each candidate, the sorted batch is intersected
    against the accessible intervals of the query's run list — one array
    kernel call per batch. Checks are still counted per candidate in
    ``stats.access_checks``, each one a probe saved.
    """

    name = "AccessFilter"

    def _rows(self, ctx: ExecutionContext) -> Iterator[array]:
        run_list = ctx.run_list()  # never None: only secure plans carry a filter
        stats = ctx.stats
        for batch in self.child.execute(ctx):
            kept = run_list.filter_positions(batch)
            n, k = len(batch), len(kept)
            stats.access_checks += n
            stats.probes_saved += n
            if k < n:
                self.stats.bump("denied", n - k)
            if k:
                yield kept

    def describe(self) -> str:
        return "ε-NoK pre-condition"


class NPMMatch(Operator):
    """ε-NoK next-of-kin pattern matching of one NoK subtree.

    For each (root-tested, access-checked) candidate root it enumerates the
    output-node bindings via :func:`~repro.nok.matcher.match_nok_subtree`.
    With ``ordered=True`` pattern children must bind to data siblings in
    pattern order.

    A single-node NoK subtree (the common shape under ``//``-chained
    queries: every step its own subtree, folded by structural joins)
    matches trivially — the candidate already passed the root's node
    test and the access test, so the binding is just ``{root: pos}``. That case emits the
    position batch as a :class:`ColumnBatch` — the candidate array
    *becomes* the binding column, zero per-row work and no access calls.

    Matching navigates through the context's
    :meth:`~repro.exec.context.ExecutionContext.navigator` — over a store,
    one page cursor for the whole execution, whose page lookups are
    reported as ``pins`` (a corrupt page raises at the pin and costs the
    candidate being matched, as any page read would).
    """

    name = "NPMMatch"

    def __init__(self, child: Operator, subtree: NoKSubtree, ordered: bool = False):
        super().__init__(child)
        self.subtree = subtree
        self.ordered = ordered

    def _rows(self, ctx: ExecutionContext) -> Iterator[BindingBatch]:
        subtree, ordered = self.subtree, self.ordered
        root = subtree.root
        if not any(axis == CHILD for axis in root.axes):
            key = id(root)
            bound = any(node is root for node in subtree.output_nodes)
            for batch in self.child.execute(ctx):
                if bound:
                    yield ColumnBatch((key,), (batch,), len(batch))
                else:
                    yield ColumnBatch((), (), len(batch))
            return
        access = ctx.access
        nav = ctx.navigator()
        try:
            for batch in self.child.execute(ctx):
                out: List[Binding] = []
                for pos in batch:
                    try:
                        out.extend(
                            match_nok_subtree(nav, subtree, pos, access, ordered)
                        )
                    except PageCorruptionError as exc:
                        ctx.report_corruption(exc)  # raises when ctx.strict
                if out:
                    yield out
        finally:
            if ctx.store is not None:
                self.stats.bump("pins", nav.pins)

    def describe(self) -> str:
        detail = f"subtree {self.subtree.index} root <{self.subtree.root.tag}>"
        if self.ordered:
            detail += " ordered"
        return detail


class STDJoin(Operator):
    """Structural ancestor–descendant join of two binding streams.

    The descendant (build) side is materialized and its positions frozen
    into one sorted ``array('q')``; the ancestor (probe) side then
    streams through, each probe batch resolving every anchor's
    descendant slice — the preorder interval test
    ``a < d < subtree_end(a)``, exactly the proper-AD pairs of
    Stack-Tree-Desc — in one kernel call (vectorized ``searchsorted``
    under numpy, a bisect gallop under stdlib). When both inputs are
    positional (:class:`ColumnBatch`), the joined rows stay positional —
    column concatenation plus a tuple-keyed dedup — and no binding dicts
    exist until :class:`Project`. Mixed or dict-shaped inputs merge as
    dicts. Duplicate merged bindings are suppressed either way.
    """

    name = "STDJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        parent_node: PatternNode,
        child_root: PatternNode,
    ):
        super().__init__(left, right)
        self.parent_node = parent_node
        self.child_root = child_root
        self.parent_key = id(parent_node)
        self.child_key = id(child_root)

    def _rows(self, ctx: ExecutionContext) -> Iterator[BindingBatch]:
        build_batches = list(self.children[1].execute(ctx))
        n_build = sum(len(batch) for batch in build_batches)
        self.stats.bump("build_rows", n_build)
        if n_build == 0:
            return  # empty build side: never pull the probe side
        probe = self.children[0].execute(ctx)
        first = next(probe, None)
        if first is None:
            return
        probe_stream = chain([first], probe)
        if self._positional(first, build_batches):
            yield from self._join_columns(ctx, build_batches, first, probe_stream)
        else:
            yield from self._join_dicts(ctx, build_batches, probe_stream)

    def _positional(
        self, first_probe: BindingBatch, build_batches: List[BindingBatch]
    ) -> bool:
        """True when both sides can join column-wise (disjoint keys)."""
        if not isinstance(first_probe, ColumnBatch):
            return False
        if self.parent_key not in first_probe.keys:
            return False
        for batch in build_batches:
            if not isinstance(batch, ColumnBatch):
                return False
            if self.child_key not in batch.keys:
                return False
            if set(batch.keys) & set(first_probe.keys):
                return False
        return True

    def _join_columns(
        self,
        ctx: ExecutionContext,
        build_batches: List[ColumnBatch],
        first_probe: ColumnBatch,
        probe_stream,
    ) -> Iterator[ColumnBatch]:
        build_keys = build_batches[0].keys
        build_cols = [array("q") for _ in build_keys]
        for batch in build_batches:
            for slot, key in enumerate(build_keys):
                build_cols[slot].extend(batch.column(key))
        ck_slot = build_keys.index(self.child_key)
        ck = build_cols[ck_slot]
        if any(ck[i] > ck[i + 1] for i in range(len(ck) - 1)):
            order = sorted(range(len(ck)), key=ck.__getitem__)
            build_cols = [
                array("q", (col[i] for i in order)) for col in build_cols
            ]
            ck = build_cols[ck_slot]
        kernels = active_kernels()
        subtree = ctx.doc.subtree
        parent_key = self.parent_key
        probe_keys = first_probe.keys
        out_keys = probe_keys + build_keys
        seen = set()
        for pbatch in probe_stream:
            anchors = pbatch.column(parent_key)
            ends = array("q", (pos + subtree[pos] for pos in anchors))
            los, his = kernels.join_ranges(anchors, ends, ck)
            pcols = pbatch.columns
            rows_out: List[tuple] = []
            if len(pcols) == 1 and len(build_cols) == 1:
                # the ``//``-chain shape: one bound column a side
                pk, bk = pcols[0], build_cols[0]
                for r, (lo, hi) in enumerate(zip(los, his)):
                    if lo >= hi:
                        continue
                    anchor = pk[r]
                    for b in range(lo, hi):
                        row = (anchor, bk[b])
                        if row not in seen:
                            seen.add(row)
                            rows_out.append(row)
            else:
                for r, (lo, hi) in enumerate(zip(los, his)):
                    if lo >= hi:
                        continue
                    prow = tuple(col[r] for col in pcols)
                    for b in range(lo, hi):
                        row = prow + tuple(col[b] for col in build_cols)
                        if row not in seen:
                            seen.add(row)
                            rows_out.append(row)
            if rows_out:
                yield ColumnBatch(
                    out_keys,
                    tuple(array("q", col) for col in zip(*rows_out)),
                    len(rows_out),
                )

    def _join_dicts(
        self,
        ctx: ExecutionContext,
        build_batches: List[BindingBatch],
        probe_stream,
    ) -> Iterator[List[Binding]]:
        descendants_of: Dict[int, List[Binding]] = {}
        for batch in build_batches:
            for binding in _as_bindings(batch):
                descendants_of.setdefault(binding[self.child_key], []).append(
                    binding
                )
        desc_positions = array("q", sorted(descendants_of))
        kernels = active_kernels()
        subtree = ctx.doc.subtree
        parent_key = self.parent_key
        seen = set()
        for batch in probe_stream:
            rows = _as_bindings(batch)
            anchors = array("q", (m[parent_key] for m in rows))
            ends = array("q", (pos + subtree[pos] for pos in anchors))
            los, his = kernels.join_ranges(anchors, ends, desc_positions)
            out: List[Binding] = []
            for m, lo, hi in zip(rows, los, his):
                for i in range(lo, hi):
                    for dm in descendants_of[desc_positions[i]]:
                        combined = {**m, **dm}
                        key = frozenset(combined.items())
                        if key not in seen:
                            seen.add(key)
                            out.append(combined)
            if out:
                yield out

    def describe(self) -> str:
        return f"<{self.parent_node.tag}> // <{self.child_root.tag}>"


class Project(Operator):
    """Distinct returning-node positions, in discovery (streaming) order.

    Counts incoming bindings in ``extra['bindings_in']`` so the facade can
    report ``QueryResult.n_bindings`` without a blocking materialization.
    Positional batches project straight off the returning column — the
    first (and only) place a ``//``-chain pipeline touches per-row
    Python values.
    """

    name = "Project"

    def __init__(self, child: Operator, returning_node: PatternNode):
        super().__init__(child)
        self.returning_node = returning_node
        self.returning_key = id(returning_node)

    def _rows(self, ctx: ExecutionContext) -> Iterator[array]:
        seen = set()
        key = self.returning_key
        for batch in self.child.execute(ctx):
            self.stats.bump("bindings_in", len(batch))
            out = array("q")
            if isinstance(batch, ColumnBatch):
                for pos in batch.column(key):
                    if pos not in seen:
                        seen.add(pos)
                        out.append(pos)
            else:
                for binding in batch:
                    pos = binding[key]
                    if pos not in seen:
                        seen.add(pos)
                        out.append(pos)
            if out:
                yield out

    def describe(self) -> str:
        return f"returning <{self.returning_node.tag}>"


class Limit(Operator):
    """Stop the pipeline after ``k`` rows, truncating the final batch."""

    name = "Limit"

    def __init__(self, child: Operator, k: int):
        super().__init__(child)
        self.k = k

    def _rows(self, ctx: ExecutionContext):
        k = self.k
        if k <= 0:
            return
        emitted = 0
        for batch in self.child.execute(ctx):
            remaining = k - emitted
            if len(batch) > remaining:
                batch = batch[:remaining]
            emitted += len(batch)
            yield batch
            if emitted >= k:
                return

    def describe(self) -> str:
        return f"k={self.k}"

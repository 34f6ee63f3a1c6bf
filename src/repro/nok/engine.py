"""The end-to-end secure NoK query engine (Section 4) — a facade.

Evaluation is compiled, not interpreted: a query is parsed, decomposed
into NoK subtrees, and handed to the :class:`~repro.exec.planner.Planner`,
which emits an explicit physical plan of Volcano-style operators
(``TagIndexScan → NPMMatch``, folded together by ``STDJoin`` edges, with
secure evaluation applied as a plan rewrite — the ε-NoK ACCESS
pre-condition and header-driven page skipping over a
:class:`~repro.storage.nokstore.NoKStore`; under view semantics ACCESS
is root-path accessibility, so joins need no path check). The scan
answers each root's whole node test from the document, so a plan reads
only the pages its matcher needs. Operators pull bindings lazily from
their children, so results stream out incrementally;
:meth:`QueryEngine.stream` exposes the raw iterator and
:meth:`QueryEngine.evaluate` drains it into the historical
:class:`QueryResult`.

The engine runs over an in-memory :class:`~repro.xmltree.document.Document`
or, when constructed with ``use_store=True``, over the block-oriented
:class:`~repro.storage.nokstore.NoKStore` — in which case every navigation
and access check goes through the buffer pool and the result carries full
I/O statistics, including pages *skipped* via the in-memory header table.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from repro.acl.model import READ, AccessMatrix
from repro.dol.labeling import DOL
from repro.errors import ReproError
from repro.exec.context import EvalStats, ExecutionContext, QueryResult
from repro.exec.plancache import PlanCache, plan_key
from repro.exec.resultcache import ResultCache
from repro.labeling import build_labeling
from repro.labeling.classes import ClassDirectory, normalize_subjects
from repro.labeling.runs import RunCache
from repro.nok.decompose import decompose
from repro.nok.pattern import CHILD, PatternTree, parse_query
from repro.secure.semantics import CHO
from repro.storage.nokstore import NoKStore
from repro.storage.snapshot import StoreSnapshot
from repro.xmltree.document import Document

__all__ = ["EvalStats", "QueryEngine", "QueryResult"]


class QueryEngine:
    """Twig query evaluator with optional DOL-based access control."""

    def __init__(
        self,
        doc: Document,
        labeling: Optional[DOL] = None,
        store: Optional[NoKStore] = None,
        plan_cache_size: int = 128,
        run_cache_size: int = 64,
        result_cache_size: int = 256,
    ):
        if store is not None and labeling is not None and store.labeling is not labeling:
            raise ReproError("store and engine must share one labeling")
        self.doc = doc
        self.labeling = (
            labeling if labeling is not None else (store.labeling if store else None)
        )
        self.store = store
        #: compiled (pattern, decomposition) artifacts, shared by every
        #: execution — immutable once built, so cache hits are thread-safe
        self.plan_cache = PlanCache(plan_cache_size)
        #: decoded accessibility run lists, shared across queries and
        #: threads; keys carry the epoch, so commits invalidate by key
        self.run_cache = RunCache(run_cache_size)
        #: canonicalizes subject sets to accessibility-equivalence class
        #: ids; every subject-keyed cache below keys on the class instead
        self.class_directory = ClassDirectory()
        #: complete answers per (epoch, query, class, knobs); consulted
        #: only when a caller opts in (``use_result_cache=True``) —
        #: repeat-evaluation benchmarks and tests rely on re-execution
        self.result_cache = ResultCache(result_cache_size)

    @classmethod
    def build(
        cls,
        doc: Document,
        matrix: Optional[AccessMatrix] = None,
        mode: str = READ,
        use_store: bool = False,
        page_size: int = 4096,
        buffer_capacity: int = 64,
        store_path: Optional[str] = None,
        codec=None,
    ) -> "QueryEngine":
        """Construct an engine, optionally with a DOL and block storage.

        The DOL is built from ``mode`` of ``matrix``; ``codec`` is the
        page codec for the block store (``use_store=True`` only).
        """
        built = (
            build_labeling("dol", doc, matrix, mode)
            if matrix is not None
            else None
        )
        store = None
        if use_store:
            if built is None:
                raise ReproError("a store requires access control data")
            store = NoKStore(
                doc, built, path=store_path, page_size=page_size,
                buffer_capacity=buffer_capacity, codec=codec,
            )
        return cls(doc, labeling=built, store=store)

    # -- compilation & evaluation ---------------------------------------------

    def compile(
        self,
        query: Union[str, PatternTree],
        subject: Optional[Union[int, Sequence[int]]] = None,
        semantics: str = CHO,
        ordered: bool = False,
        limit: Optional[int] = None,
        strict: bool = True,
        snapshot: Optional[StoreSnapshot] = None,
        use_run_cache: bool = True,
    ):
        """Compile a query into a :class:`~repro.exec.planner.PhysicalPlan`.

        The plan carries a fresh :class:`~repro.exec.context.ExecutionContext`
        (and so fresh statistics); execute it once via ``plan.execute()``
        (streaming) or ``plan.run()`` (drained :class:`QueryResult`).

        Over a block store the context binds to a
        :class:`~repro.storage.snapshot.StoreSnapshot` — by default the
        store's current one, or an explicitly pinned ``snapshot=`` — so
        the whole execution reads one consistent epoch even while updates
        commit concurrently. The data-independent compile artifacts
        (pattern parse + NoK decomposition) come from the engine's
        :class:`~repro.exec.plancache.PlanCache` for string queries,
        making compile/evaluate/stream safe and cheap to call from many
        threads at once.

        ``use_run_cache=False`` sheds the engine's *shared* run cache
        for this compilation (the context falls back to a private one):
        the serving layer's brownout tiers use it so a browning-out or
        possibly-corrupt service stops touching cross-request caches.
        """
        from repro.exec.planner import Planner

        if snapshot is None and self.store is not None:
            snapshot = self.store.snapshot()
        if snapshot is not None:
            doc, labeling, source = snapshot.doc, snapshot.labeling, snapshot
        else:
            doc, labeling, source = self.doc, self.labeling, None
        subjects = normalize_subjects(subject)
        class_id = None
        if subjects is not None and labeling is not None:
            class_id = self.class_directory.class_of(
                labeling, self._epoch_key(labeling, source), subjects
            )
        ctx = ExecutionContext(
            doc,
            labeling=labeling,
            store=source,
            subject=subject if isinstance(subject, int) else subjects,
            semantics=semantics,
            strict=strict,
            run_cache=self.run_cache if use_run_cache else None,
            class_id=class_id,
        )
        if isinstance(query, str):
            key = plan_key(query, semantics, subjects, ordered, class_id=class_id)
            cached = self.plan_cache.get(key)
            if cached is None:
                pattern = parse_query(query)
                dec = decompose(pattern)
                self.plan_cache.put(key, pattern, dec)
            else:
                pattern, dec = cached
        else:
            pattern = query
            dec = decompose(pattern)
        return Planner(ctx).plan_from(pattern, dec, ordered=ordered, limit=limit)

    def _epoch_key(self, labeling, source):
        """The data-version key class and result caches partition by.

        Store-backed evaluation keys on the snapshot's store epoch (the
        snapshot labeling is a frozen clone whose ``id`` changes per
        snapshot — useless as identity); in-memory evaluation keys on
        the labeling object and its monotone ``runs_epoch``.
        """
        if source is not None:
            return ("store", source.epoch)
        return ("mem", id(labeling), labeling.runs_epoch)

    def access_class_of(
        self,
        subject: Union[int, Sequence[int]],
        snapshot: Optional[StoreSnapshot] = None,
    ) -> int:
        """Canonicalize a subject set to its current access-class id.

        The same resolution :meth:`compile` performs — exposed for the
        CLI's ``label --classes`` report, the class-collapse bench, and
        tests. Requires a labeling.
        """
        if snapshot is None and self.store is not None:
            snapshot = self.store.snapshot()
        labeling = snapshot.labeling if snapshot is not None else self.labeling
        if labeling is None:
            raise ReproError("access classes require an access labeling")
        return self.class_directory.class_of(
            labeling, self._epoch_key(labeling, snapshot), subject
        )

    def evaluate(
        self,
        query: Union[str, PatternTree],
        subject: Optional[Union[int, Sequence[int]]] = None,
        semantics: str = CHO,
        ordered: bool = False,
        limit: Optional[int] = None,
        strict: bool = True,
        snapshot: Optional[StoreSnapshot] = None,
        use_result_cache: bool = False,
        use_run_cache: bool = True,
    ) -> QueryResult:
        """Evaluate a twig query, securely when ``subject`` is given.

        ``subject`` may be a single subject id, or a sequence of ids for
        user-level evaluation (the user's own subject plus her groups —
        rights are the union, per Section 4's footnote). ``ordered=True``
        switches to ordered pattern trees: a pattern node's child-axis
        children must bind to data siblings in pattern order (the
        following-sibling next-of-kin constraint the paper's experiments
        used). ``limit`` caps the number of distinct answers via a
        streaming ``Limit`` operator — the pipeline stops pulling (and
        checking, and reading pages) as soon as the cap is reached.
        ``strict=False`` degrades gracefully on storage corruption: a
        page that fails its checksum is quarantined and skipped, and the
        result's ``stats.corrupted_pages`` lists what was lost; the
        default raises :class:`~repro.errors.PageCorruptionError`.
        ``use_result_cache=True`` additionally consults the engine's
        :class:`~repro.exec.resultcache.ResultCache` after compiling:
        when a class-equivalent user already asked this exact question
        of this exact epoch, the answer is returned without executing
        the plan (``stats.result_cache_hits`` records it). Off by
        default — benchmarks and cache-accounting tests rely on
        re-execution; the serving layer opts in.
        """
        if snapshot is None and self.store is not None:
            snapshot = self.store.snapshot()
        plan = self.compile(
            query, subject=subject, semantics=semantics, ordered=ordered,
            limit=limit, strict=strict, snapshot=snapshot,
            use_run_cache=use_run_cache,
        )
        ctx = plan.ctx
        result_key = None
        if use_result_cache and strict and isinstance(query, str):
            epoch_key = (
                self._epoch_key(ctx.labeling, ctx.store)
                if ctx.labeling is not None or ctx.store is not None
                else None
            )
            if epoch_key is not None:
                access = ctx.class_id if ctx.class_id is not None else ctx.subjects
                result_key = (
                    epoch_key, query, access, semantics, ordered, limit,
                )
                hit = self.result_cache.get(result_key)
                if hit is not None:
                    positions, n_bindings = hit
                    ctx.stats.result_cache_hits = 1
                    return QueryResult(
                        positions=positions,
                        n_bindings=n_bindings,
                        stats=ctx.stats,
                    )
        result = plan.run()
        if result_key is not None and not result.stats.corrupted_pages:
            self.result_cache.put(
                result_key, result.positions, result.n_bindings
            )
        return result

    def stream(
        self,
        query: Union[str, PatternTree],
        subject: Optional[Union[int, Sequence[int]]] = None,
        semantics: str = CHO,
        ordered: bool = False,
        limit: Optional[int] = None,
        strict: bool = True,
        snapshot: Optional[StoreSnapshot] = None,
        use_run_cache: bool = True,
    ) -> Iterator[int]:
        """Lazily yield distinct returning-node positions as found.

        The streaming face of :meth:`evaluate`: positions arrive in
        discovery order (not sorted), and abandoning the iterator stops
        the pipeline early — no further candidates are matched, checked,
        or paged in. The serving layer's wire streams hand off here, so
        the brownout knob (``use_run_cache=False``) applies to streams
        exactly as it does to drained evaluations.
        """
        return self.compile(
            query, subject=subject, semantics=semantics, ordered=ordered,
            limit=limit, strict=strict, snapshot=snapshot,
            use_run_cache=use_run_cache,
        ).execute()

    # -- plan inspection ------------------------------------------------------

    def explain(self, query: Union[str, PatternTree]) -> str:
        """Describe how a query would be evaluated.

        Returns a human-readable report in two parts: the logical NoK
        plan (canonical query form, subtree decomposition with candidate
        counts from the tag index of the document the plan reads,
        bottom-up structural-join order) and the compiled physical
        operator tree.
        """
        from repro.exec.operators import root_candidates

        pattern = parse_query(query) if isinstance(query, str) else query
        plan = self.compile(pattern)
        dec = plan.decomposition
        lines = [f"query: {pattern.to_string()}"]
        lines.append(
            f"pattern nodes: {pattern.size()}, NoK subtrees: "
            f"{len(dec.subtrees)}, AD joins: {len(dec.edges)}"
        )
        for subtree in dec.subtrees:
            anchored = subtree.index == 0 and pattern.root_axis == CHILD
            candidates = len(root_candidates(plan.ctx.doc, subtree.root, anchored))
            marker = " (query root)" if subtree.index == 0 else ""
            returning = " [returning]" if subtree.contains_returning() else ""
            lines.append(
                f"  NoK subtree {subtree.index}: root <{subtree.root.tag}>, "
                f"{candidates} index candidates{marker}{returning}"
            )
        for edge in dec.edges:
            lines.append(
                f"  AD join: subtree {edge.parent_subtree} "
                f"node <{edge.parent_node.tag}> // subtree {edge.child_subtree}"
            )
        order = dec.join_order()
        if len(order) > 1:
            lines.append("join order (bottom-up): " + " -> ".join(map(str, order)))
        lines.append("physical plan:")
        lines.append(plan.explain())
        return "\n".join(lines)

    def explain_analyze(
        self,
        query: Union[str, PatternTree],
        subject: Optional[Union[int, Sequence[int]]] = None,
        semantics: str = CHO,
        ordered: bool = False,
        limit: Optional[int] = None,
        strict: bool = True,
        snapshot: Optional[StoreSnapshot] = None,
    ) -> "tuple[QueryResult, str]":
        """Execute a query and return (result, annotated physical plan).

        The plan text carries per-operator output row counts, inclusive
        timings, and operator-specific counters (pages skipped, candidates
        denied, join pairs pruned, batch counts and rows per batch) —
        EXPLAIN ANALYZE for secure twig queries.
        """
        plan = self.compile(
            query, subject=subject, semantics=semantics, ordered=ordered,
            limit=limit, strict=strict, snapshot=snapshot,
        )
        result = plan.run()
        return result, plan.explain(analyze=True)

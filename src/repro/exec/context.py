"""Execution context and statistics for the physical operator pipeline.

One :class:`ExecutionContext` is threaded through every operator of a
compiled plan. It carries the data source (in-memory document or block
store), the access labeling (a :class:`~repro.dol.labeling.DOL`), the
tag index, the secure-evaluation
subject(s) and semantics, and the measurement state: the query-level
:class:`EvalStats` plus the per-subject path-accessibility oracle
(:class:`PathAccessIndex`) used by view semantics.

:class:`EvalStats` and :class:`QueryResult` are defined here (rather than
in :mod:`repro.nok.engine`) so the operator layer does not depend on the
engine facade; the engine re-exports both under their historical names.

This module must not import from :mod:`repro.nok` — the ``nok`` package
imports the engine, which imports the execution layer.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.dol.labeling import DOL
from repro.errors import PageCorruptionError, ReproError
from repro.labeling.classes import normalize_subjects
from repro.labeling.runs import RunCache, RunList
from repro.secure.semantics import CHO, SEMANTICS, VIEW
from repro.storage.nokstore import NoKStore
from repro.xmltree.document import NO_NODE, Document

AccessFn = Optional[Callable[[int], bool]]
Subject = Union[int, Sequence[int]]


@dataclass
class EvalStats:
    """Measurements for one query evaluation."""

    wall_time: float = 0.0
    access_checks: int = 0
    candidates: int = 0
    candidates_skipped_by_header: int = 0
    #: per-node probes avoided because the answer came from a
    #: decoded accessibility run interval instead
    probes_saved: int = 0
    run_cache_hits: int = 0
    run_cache_misses: int = 0
    logical_page_reads: int = 0
    physical_page_reads: int = 0
    #: page accesses served from the decoded-page cache (no re-decode,
    #: and — when the raw frame was evicted — no physical read either)
    decoded_cache_hits: int = 0
    #: pages that failed checksum verification during this query
    #: (``strict=False`` only — strict evaluation raises instead)
    corrupted_pages: List[int] = field(default_factory=list)
    candidates_skipped_corrupt: int = 0
    #: access class id the subject set canonicalized to (None when the
    #: engine has no class directory, or the query is non-secure)
    access_class: Optional[int] = None
    #: 1 when the static pre-pass proved the class fully accessible and
    #: dropped the access filters from the plan
    static_allow: int = 0
    #: 1 when the static pre-pass proved the class fully denied and the
    #: plan answered empty without touching the store
    static_deny: int = 0
    #: 1 when the answer came from the result cache (execution skipped)
    result_cache_hits: int = 0
    #: pages decoded into columnar form during this query (store-backed
    #: only; a decoded-cache hit performs no new columnar decode)
    pages_decoded_columnar: int = 0
    #: array-kernel backend that executed the plan ("stdlib"/"numpy")
    kernel_backend: Optional[str] = None

    def as_dict(self) -> Dict[str, float]:
        report = dict(self.__dict__)
        report["corrupted_pages"] = list(self.corrupted_pages)
        return report


@dataclass
class QueryResult:
    """Answer of one evaluation: returning-node positions + statistics."""

    positions: List[int] = field(default_factory=list)
    n_bindings: int = 0
    stats: EvalStats = field(default_factory=EvalStats)

    @property
    def n_answers(self) -> int:
        """Distinct data nodes bound to the returning node."""
        return len(self.positions)


@dataclass
class OperatorStats:
    """Per-operator instrumentation collected while a plan runs.

    ``time`` is *inclusive*: the seconds spent inside this operator's
    iterator, children included (the convention of EXPLAIN ANALYZE).
    ``extra`` holds operator-specific counters, e.g. ``skipped`` for
    :class:`~repro.exec.operators.PageSkipScan`.
    """

    rows_out: int = 0
    time: float = 0.0
    executions: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, counter: str, amount: int = 1) -> None:
        self.extra[counter] = self.extra.get(counter, 0) + amount


class PathAccessIndex:
    """Per-subject path-accessibility oracle for view semantics.

    For the view semantics of Gabillon–Bruno (Section 4.2) a joined pair
    additionally requires *every node on the path* from ancestor to
    descendant to be accessible. ``deepest_blocked[pos]`` is the document
    position of the deepest inaccessible node on the root-to-pos path
    (including ``pos`` itself), or ``NO_NODE`` if the whole path is
    accessible, so the path test is O(1) per pair without extra page
    reads. Computed in one linear scan over the document and the DOL's
    per-node masks.

    The index is the subject's pruned view materialised: a function of
    the document version and the access class, not of the query. It is
    immutable once built, so :attr:`ExecutionContext.path_index` shares
    one per (epoch, class) between queries and threads.
    """

    def __init__(self, doc: Document, labeling: DOL, subject):
        self.doc = doc
        n = len(doc)
        blocked = array("i", [NO_NODE]) * n
        masks = labeling.to_masks()
        # `subject` may be a single subject id or a collection of ids (a
        # user's own subject plus her groups; union semantics).
        if isinstance(subject, int):
            bit = 1 << subject
        else:
            bit = 0
            for s in subject:
                bit |= 1 << s
        for pos in range(n):
            par = doc.parent[pos]
            inherited = blocked[par] if par != NO_NODE else NO_NODE
            blocked[pos] = pos if not masks[pos] & bit else inherited
        self.deepest_blocked = blocked

    def node_accessible(self, pos: int) -> bool:
        return self.deepest_blocked[pos] != pos

    def path_accessible(self, ancestor: int, descendant: int) -> bool:
        """True iff every node on [ancestor, descendant] is accessible.

        The deepest blocked node above ``descendant`` must be a proper
        ancestor of ``ancestor`` (i.e. outside the joined path) or absent.
        """
        blocked = self.deepest_blocked[descendant]
        if blocked == NO_NODE:
            return True
        # `blocked` lies on the root→descendant path; the path segment
        # [ancestor, descendant] avoids it iff it is a *proper ancestor*
        # of `ancestor`.
        return blocked < ancestor < self.doc.subtree_end(blocked)


class ExecutionContext:
    """Shared state for one plan execution.

    Normalizes the ``subject`` argument (a single subject id, or a
    sequence of ids for user-level evaluation — rights are the union, per
    Section 4's footnote), owns the per-query :class:`EvalStats`, and
    lazily builds the ACCESS function appropriate to the semantics:

    - Cho semantics: node-level accessibility from the decoded run list
      of the DOL (no page I/O);
    - view semantics: whole-root-path accessibility via the
      :class:`PathAccessIndex` (the pruned-view model).
    """

    def __init__(
        self,
        doc: Document,
        labeling: Optional[DOL] = None,
        store: Optional[NoKStore] = None,
        index=None,
        subject: Optional[Subject] = None,
        semantics: str = CHO,
        strict: bool = True,
        run_cache: Optional[RunCache] = None,
        class_id: Optional[int] = None,
    ):
        if semantics not in SEMANTICS:
            raise ReproError(f"unknown semantics {semantics!r}")
        if subject is not None and labeling is None:
            raise ReproError("secure evaluation requires an access labeling")
        self.doc = doc
        self.labeling = labeling
        self.store = store
        self.index = index
        self.semantics = semantics
        #: the shared normalization (engine, service, and CLI all route
        #: through it): duplicates and ordering collapse, so every cache
        #: keyed on the subject set downstream sees one canonical form
        self.subjects: Optional[Tuple[int, ...]] = normalize_subjects(subject)
        self.subject = (
            subject if isinstance(subject, int) or subject is None
            else self.subjects
        )
        #: access class the engine's directory resolved for the subject
        #: set (None for standalone contexts); when present it replaces
        #: the subject tuple in the run-cache key, so class-equivalent
        #: users share one decoded run list
        self.class_id = class_id
        self.strict = strict
        self.stats = EvalStats()
        self.stats.access_class = class_id
        self._access: AccessFn = None
        self._access_built = False
        self._path_index = None
        #: shared across queries when the engine passes its cache in; a
        #: standalone context gets a private one on first use
        self._run_cache = run_cache
        self._run_list: Optional[RunList] = None

    # -- data source -------------------------------------------------------

    def navigator(self):
        """The next-of-kin interface one plan execution navigates through.

        Store-backed: a fresh :class:`~repro.storage.cursor.PageCursor`
        over the bound snapshot — scratch state of the caller, never
        shared. Otherwise the in-memory document itself.
        """
        return self.store.cursor() if self.store is not None else self.doc

    @property
    def secure(self) -> bool:
        return self.subjects is not None

    # -- graceful degradation ----------------------------------------------

    def report_corruption(self, exc: PageCorruptionError) -> None:
        """Handle a corrupt page hit mid-query.

        In strict mode (the default) the error propagates: a query never
        silently computes over damaged data. With ``strict=False`` the
        page is quarantined on the store (so the scan does not re-read
        and re-fail on the same bytes per candidate), recorded in
        ``stats.corrupted_pages``, and the candidate is dropped — the
        query completes over the readable remainder and the caller can
        see exactly what was skipped.
        """
        if self.strict:
            raise exc
        page_id = exc.page_id
        if self.store is not None and page_id is not None:
            self.store.quarantine(page_id)
        if page_id not in self.stats.corrupted_pages:
            self.stats.corrupted_pages.append(page_id)
        self.stats.candidates_skipped_corrupt += 1

    def io_snapshot(self) -> Tuple[int, int, int, int]:
        """(logical, physical, decoded-cache-hit, columnar-decode) counts.

        Zeros without a store; the last two components are 0 for stores
        (and snapshots of stores) predating the decoded-page cache and
        the columnar decoder respectively.
        """
        if self.store is None:
            return (0, 0, 0, 0)
        backing = getattr(self.store, "_store", self.store)  # snapshot → store
        cache = getattr(backing, "decoded_cache", None)
        return (
            self.store.buffer.stats.logical_reads,
            self.store.pager.stats.reads,
            cache.stats.hits if cache is not None else 0,
            getattr(backing, "columnar_decodes", 0),
        )

    # -- access control ----------------------------------------------------

    @property
    def path_index(self) -> PathAccessIndex:
        """Path-accessibility oracle of the subject set (view semantics).

        Cached beside the run lists, under the same (epoch, access
        class) key, so every view query of one class at one epoch — its
        ACCESS function, its run list and its :class:`PathCheck`s — reads
        one index, and a commit invalidates it by key.
        """
        if self._path_index is None:
            if self.subject is None:
                raise ReproError("path index requires a subject")
            self._path_index = self._cache().get_or_build(
                self._cache_key("path-index"),
                lambda: PathAccessIndex(self.doc, self.labeling, self.subject),
            )[0]
        return self._path_index

    @property
    def access(self) -> AccessFn:
        """The ACCESS function of Algorithm 1 (None for non-secure plans).

        Every call is counted in ``stats.access_checks``.
        """
        if not self._access_built:
            self._access = self._build_access()
            self._access_built = True
        return self._access

    def neutralize_access(self) -> None:
        """Pin the ACCESS function to None (every check would pass).

        Called by the planner's static pre-pass when the access class is
        fully accessible: the plan then runs exactly like a non-secure
        one — no filters, and no per-child probes inside the NPM
        matcher — while :attr:`secure` stays true for accounting.
        """
        self._access = None
        self._access_built = True

    def run_list(self) -> Optional[RunList]:
        """The query's decoded accessibility run list (None if non-secure).

        Under Cho semantics this is the bulk decode of the labeling's
        node-level accessibility for the subject set; under view
        semantics, of *path* accessibility (a position's run flag says
        its whole root path is accessible). Always decoded from the
        in-memory labeling — the snapshot's frozen clone when store-backed
        — so building it performs no page I/O.

        Lists are memoized in the :class:`~repro.labeling.runs.RunCache`
        keyed by ``(epoch, access class, semantics)`` (see
        :meth:`_cache_key`). Hits and misses land in
        ``stats.run_cache_hits`` / ``stats.run_cache_misses``.
        """
        if self.subjects is None:
            return None
        if self._run_list is not None:
            return self._run_list
        built, hit = self._cache().get_or_build(
            self._cache_key(self.semantics), self._decode_run_list
        )
        if hit:
            self.stats.run_cache_hits += 1
        else:
            self.stats.run_cache_misses += 1
        self._run_list = built
        return built

    def _cache(self) -> RunCache:
        """The engine's shared cache, or a private one created on first use."""
        if self._run_cache is None:
            self._run_cache = RunCache(capacity=8)
        return self._run_cache

    def _cache_key(self, artifact: str) -> Tuple:
        """``(epoch, access class, artifact)`` — the one key discipline.

        The epoch is the store epoch when a snapshot is bound (a commit
        bumps it, so a commit *is* the invalidation), the labeling's
        identity and ``runs_epoch`` otherwise. The access component is
        the :attr:`class_id` when the engine resolved one —
        class-equivalent subject sets share the entry — or the
        normalized subject tuple for standalone contexts. ``artifact``
        is the semantics for a run list, ``"path-index"`` for the path
        index.
        """
        access = self.class_id if self.class_id is not None else self.subjects
        if self.store is not None:
            return ("store", self.store.epoch, access, artifact)
        labeling = self.labeling
        return ("mem", id(labeling), labeling.runs_epoch, access, artifact)

    def _decode_run_list(self) -> RunList:
        n = len(self.doc)
        if self.semantics == VIEW:
            deepest_blocked = self.path_index.deepest_blocked
            return RunList.from_flags(
                [blocked == NO_NODE for blocked in deepest_blocked]
            )
        return RunList.from_runs(
            self.labeling.access_runs_any(self.subjects, 0, n), 0, n
        )

    def _build_access(self) -> AccessFn:
        if self.subjects is None:
            return None
        stats = self.stats
        if self.semantics == VIEW:
            # View semantics: a node is usable iff its whole root path is
            # accessible (the pruned-view model).
            deepest_blocked = self.path_index.deepest_blocked

            def view_access(pos: int) -> bool:
                stats.access_checks += 1
                return deepest_blocked[pos] == NO_NODE

            return view_access

        # Cho semantics: node-level accessibility, answered from the
        # decoded run list — a bisect over run boundaries instead of a
        # per-node code read, and zero I/O even store-backed. Each
        # answered check is a probe the labeling never had to perform.
        run_list = self.run_list()

        def run_access(pos: int) -> bool:
            stats.access_checks += 1
            stats.probes_saved += 1
            return run_list.is_accessible(pos)

        return run_access

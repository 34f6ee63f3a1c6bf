"""Execution context and statistics for the physical operator pipeline.

One :class:`ExecutionContext` is threaded through every operator of a
compiled plan. It carries the data source (in-memory document or block
store), the access labeling (a :class:`~repro.dol.labeling.DOL`), the
secure-evaluation subject(s) and semantics, and the query-level
:class:`EvalStats`.

Both semantics answer ACCESS from one decoded
:class:`~repro.labeling.runs.RunList`; the semantics decides only which
list (:meth:`ExecutionContext._decode_run_list` — node-level runs under
Cho, their :func:`~repro.labeling.runs.view_runs` under view). Every
operator and rewrite downstream is semantics-blind.

:class:`EvalStats` and :class:`QueryResult` are defined here (rather than
in :mod:`repro.nok.engine`) so the operator layer does not depend on the
engine facade; the engine re-exports both under their historical names.

This module must not import from :mod:`repro.nok` — the ``nok`` package
imports the engine, which imports the execution layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.dol.labeling import DOL
from repro.errors import PageCorruptionError, ReproError
from repro.labeling import runs
from repro.labeling.classes import normalize_subjects
from repro.labeling.runs import RunCache, RunList
from repro.secure.semantics import CHO, SEMANTICS, VIEW
from repro.storage.nokstore import NoKStore
from repro.xmltree.document import Document

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


class ExecutionContext:
    """Shared state for one plan execution.

    Normalizes the ``subject`` argument (a single subject id, or a
    sequence of ids for user-level evaluation — rights are the union, per
    Section 4's footnote), owns the per-query :class:`EvalStats`, and
    lazily builds the ACCESS function from the query's decoded run list
    (no page I/O):

    - Cho semantics: node-level accessibility;
    - view semantics: whole-root-path accessibility (the pruned-view
      model of Gabillon–Bruno).
    """

    def __init__(
        self,
        doc: Document,
        labeling: Optional[DOL] = None,
        store: Optional[NoKStore] = None,
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
        self.semantics = semantics
        #: the shared normalization (engine, service, and CLI all route
        #: through it): duplicates and ordering collapse, so every cache
        #: keyed on the subject set downstream sees one canonical form
        self.subjects: Optional[Tuple[int, ...]] = normalize_subjects(subject)
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
        — and the document's subtree sizes, so building it performs no
        page I/O.

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

    def _cache_key(self, semantics: str) -> Tuple:
        """``(epoch, access class, semantics)`` — the one key discipline.

        The epoch is the store epoch when a snapshot is bound (a commit
        bumps it, so a commit *is* the invalidation), the labeling's
        identity and ``runs_epoch`` otherwise. The access component is
        the :attr:`class_id` when the engine resolved one —
        class-equivalent subject sets share the entry — or the
        normalized subject tuple for standalone contexts.
        """
        access = self.class_id if self.class_id is not None else self.subjects
        if self.store is not None:
            return ("store", self.store.epoch, access, semantics)
        labeling = self.labeling
        return ("mem", id(labeling), labeling.runs_epoch, access, semantics)

    def _decode_run_list(self) -> RunList:
        """The only place execution tells the semantics apart.

        A view list is derived from the class's Cho list, read through
        the same cache under the Cho key, so one transition decode per
        (epoch, class) serves both semantics.
        """
        if self.semantics == VIEW:
            cho, _hit = self._cache().get_or_build(
                self._cache_key(CHO), self._decode_cho_runs
            )
            return runs.view_runs(cho, self.doc.subtree_end)
        return self._decode_cho_runs()

    def _decode_cho_runs(self) -> RunList:
        n = len(self.doc)
        return RunList.from_runs(
            self.labeling.access_runs_any(self.subjects, 0, n), 0, n
        )

    def _build_access(self) -> AccessFn:
        if self.subjects is None:
            return None
        stats = self.stats
        # Answered from the decoded run list — zero I/O even store-backed,
        # and each answered check is a probe the labeling never had to
        # perform. The matcher probes a candidate's children, which lie
        # close together in document order (§3.2), so the run that
        # answered the last probe usually answers the next: only a probe
        # outside it pays the bisect over run boundaries. The run is one
        # tuple, replaced whole, so bounds and flag always belong together.
        run_at = self.run_list().run_at
        run = (0, 0, False)

        def run_access(pos: int) -> bool:
            nonlocal run
            stats.access_checks += 1
            stats.probes_saved += 1
            if not run[0] <= pos < run[1]:
                run = run_at(pos)
            return run[2]

        return run_access

"""Secure one-pass XML dissemination.

The paper's conclusion points out that because DOL embeds access controls
into the document encoding in document order, "many one-pass algorithms on
streaming XML data can be made secure". This module implements the
canonical such algorithm — selective dissemination: given raw XML text,
a DOL, and a subject, emit the portion of the document the subject may
see, in a single pass over the input event stream.

Two filtering policies are provided, mirroring the two secure-evaluation
semantics:

- ``PRUNE`` (view semantics, Gabillon-Bruno): an inaccessible element is
  removed together with its entire subtree.
- ``HOIST`` (Cho-style): an inaccessible element is removed but its
  accessible children are spliced into the nearest retained ancestor —
  the transformation used by fine-grained dissemination systems that let
  answers come from inside denied regions.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.dol.labeling import DOL
from repro.errors import AccessControlError
from repro.labeling.runs import RunList, view_runs
from repro.xmltree import parser
from repro.xmltree.document import NO_NODE
from repro.xmltree.node import Node
from repro.xmltree.serializer import escape_attr, escape_text, serialize

PRUNE = "prune"
HOIST = "hoist"

_POLICIES = (PRUNE, HOIST)


def filter_xml(
    xml_text: str,
    labeling: DOL,
    subject: int,
    policy: str = PRUNE,
) -> str:
    """Produce the XML a subject is allowed to see, in one pass.

    The input is consumed as a SAX-like event stream; each start event is
    matched to its document position (events arrive in document order, the
    same order the DOL is keyed on) and checked against the DOL. Every
    start event counts, pruned or not: input with more elements than the
    DOL covers, or fewer, raises :class:`AccessControlError` — labels
    applied to the wrong document would filter it silently wrong.

    The output is a well-formed XML *fragment*: under ``PRUNE`` it is a
    single element or empty; under ``HOIST`` hoisting can surface several
    sibling roots (wrap it before re-parsing if a single document is
    needed).
    """
    if policy not in _POLICIES:
        raise AccessControlError(f"unknown dissemination policy {policy!r}")

    out: List[str] = []
    position = 0
    # Per open element: its tag if kept, None if dropped.
    stack: List[Optional[str]] = []
    #: kept element whose start tag is buffered until we know whether it
    #: is empty (lets us emit <tag/> like the serializer does)
    pending: Optional[str] = None
    prune_depth: Optional[int] = None  # depth at which a PRUNE cut began

    def flush_pending() -> None:
        nonlocal pending
        if pending is not None:
            out.append(f"<{pending[0]}{pending[1]}>")
            pending = None

    for kind, payload in parser.iterparse(xml_text):
        if kind == parser.START:
            tag, attrs = payload  # type: ignore[misc]
            pos = position
            position += 1
            if pos >= labeling.n_nodes:
                raise AccessControlError(
                    "document has more elements than the DOL covers"
                )
            if prune_depth is not None:
                stack.append(None)
                continue
            if labeling.accessible(subject, pos):
                flush_pending()
                attr_text = "".join(
                    f' {name}="{escape_attr(value)}"'
                    for name, value in attrs.items()  # type: ignore[union-attr]
                )
                pending = (tag, attr_text)
                stack.append(tag)
            elif policy == PRUNE:
                prune_depth = len(stack)
                stack.append(None)
            else:  # HOIST: drop the element, keep descending
                stack.append(None)
        elif kind == parser.END:
            kept = stack.pop()
            if kept is not None:
                if pending is not None and pending[0] == kept:
                    out.append(f"<{pending[0]}{pending[1]}/>")
                    pending = None
                else:
                    out.append(f"</{kept}>")
            if prune_depth is not None and len(stack) == prune_depth:
                prune_depth = None
        else:  # TEXT belongs to the innermost open element
            if prune_depth is None and stack and stack[-1] is not None:
                flush_pending()
                out.append(escape_text(str(payload)))

    if position != labeling.n_nodes:
        raise AccessControlError(
            f"document has {position} elements, the DOL covers {labeling.n_nodes}"
        )
    return "".join(out)


def _expand(run_list: RunList) -> List[int]:
    return [
        pos for start, end in run_list.accessible_intervals()
        for pos in range(start, end)
    ]


def _cho_runs(labeling: DOL, subject: int) -> RunList:
    n = labeling.n_nodes
    return RunList.from_runs(labeling.access_runs(subject, 0, n), 0, n)


def visible_positions(labeling: DOL, subject: int, doc) -> List[int]:
    """Positions surviving PRUNE filtering (view-visible nodes).

    A node survives iff every node on its root path, itself included, is
    accessible: the accessible runs of the same
    :func:`~repro.labeling.runs.view_runs` list view-semantics queries
    filter with. Exposed for verification and tests.
    """
    return _expand(view_runs(_cho_runs(labeling, subject), doc.subtree_end))


def hoisted_positions(labeling: DOL, subject: int) -> List[int]:
    """Positions surviving HOIST filtering: simply the accessible nodes."""
    return _expand(_cho_runs(labeling, subject))


# -- query-driven dissemination ------------------------------------------------


def stream_answer_fragments(
    engine,
    query,
    subject: int,
    semantics: str = "cho",
    policy: str = PRUNE,
    limit: Optional[int] = None,
    ordered: bool = False,
    strict: bool = True,
    snapshot=None,
    use_run_cache: bool = True,
) -> Iterator[Tuple[int, str]]:
    """Disseminate *query answers*: (position, XML fragment) pairs, lazily.

    Consumes the engine's streaming iterator — the compiled physical plan
    is pulled one answer at a time, so a subscriber that stops reading (or
    passes ``limit``) terminates evaluation early, with no further access
    checks or page reads. Each answer subtree is filtered for the subject
    under the given policy before serialization, exactly like
    :func:`filter_xml` filters a whole document:

    - ``PRUNE``: an inaccessible descendant disappears with its subtree;
    - ``HOIST``: an inaccessible descendant is dropped but its accessible
      children are spliced into the nearest retained ancestor.

    This iterator is the serving stack's transport source: the protocol
    v2 ``fragment`` frames carry its output verbatim. ``snapshot=`` pins
    document, labeling, *and* plan execution to one store epoch for the
    stream's whole lifetime; ``strict=False`` degrades around quarantined
    pages (fragments then cover a subset of the accessible answers);
    ``use_run_cache`` passes through to the engine compile.
    """
    return AnswerFragmentStream(
        engine,
        query,
        subject,
        semantics=semantics,
        policy=policy,
        limit=limit,
        ordered=ordered,
        strict=strict,
        snapshot=snapshot,
        use_run_cache=use_run_cache,
    )


class AnswerFragmentStream:
    """The iterator behind :func:`stream_answer_fragments`.

    Iterating yields ``(position, xml_fragment)`` pairs lazily, exactly
    as the generator it replaced; in addition the compiled plan's live
    :class:`~repro.exec.context.EvalStats` is exposed as :attr:`stats`
    (the wire protocol's ``end`` frame reports it) and the pinned epoch
    as :attr:`epoch`. Abandoning the iterator (``close()``/GC) stops the
    underlying plan — no further access checks or page reads happen.
    """

    def __init__(
        self,
        engine,
        query,
        subject,
        semantics: str = "cho",
        policy: str = PRUNE,
        limit: Optional[int] = None,
        ordered: bool = False,
        strict: bool = True,
        snapshot=None,
        use_run_cache: bool = True,
    ):
        if policy not in _POLICIES:
            raise AccessControlError(f"unknown dissemination policy {policy!r}")
        if snapshot is None and engine.store is not None:
            snapshot = engine.store.snapshot()
        if snapshot is not None:
            doc, labeling = snapshot.doc, snapshot.labeling
        else:
            doc, labeling = engine.doc, engine.labeling
        if labeling is None:
            raise AccessControlError("dissemination requires access control data")
        plan = engine.compile(
            query,
            subject=subject,
            semantics=semantics,
            ordered=ordered,
            limit=limit,
            strict=strict,
            snapshot=snapshot,
            use_run_cache=use_run_cache,
        )
        #: live statistics of the executing plan (complete once drained)
        self.stats = plan.ctx.stats
        #: the store epoch every fragment reads (0 for in-memory engines)
        self.epoch = snapshot.epoch if snapshot is not None else 0
        self.policy = policy
        self._doc = doc
        self._labeling = labeling
        self._subject = subject
        self._positions = plan.execute()

    def __iter__(self) -> "AnswerFragmentStream":
        return self

    def __next__(self) -> Tuple[int, str]:
        pos = next(self._positions)
        return pos, serialize_visible_subtree(
            self._doc, self._labeling, self._subject, pos, self.policy
        )

    def close(self) -> None:
        """Stop the underlying plan early (no more page reads)."""
        close = getattr(self._positions, "close", None)
        if close is not None:
            close()


def _can_see(labeling: DOL, subject, pos: int) -> bool:
    """One accessibility probe, subject-set aware.

    ``subject`` may be a single id or a sequence of ids (user-level
    evaluation: rights are the union, per Section 4's footnote).
    """
    if isinstance(subject, int):
        return labeling.accessible(subject, pos)
    return labeling.accessible_any(subject, pos)


def serialize_visible_subtree(
    doc, labeling: DOL, subject, root: int, policy: str = PRUNE
) -> str:
    """Serialize the subtree at ``root``, filtered for one subject (or a
    subject set, whose rights are the union).

    The root itself must be accessible (under Cho semantics every answer
    position is). Returns a well-formed XML fragment.
    """
    if policy not in _POLICIES:
        raise AccessControlError(f"unknown dissemination policy {policy!r}")
    if not _can_see(labeling, subject, root):
        raise AccessControlError(
            f"answer position {root} is not accessible to subject {subject}"
        )
    return serialize(_visible_node(doc, labeling, subject, root, policy))


def _visible_node(doc, labeling: DOL, subject, pos: int, policy: str) -> Node:
    """Rebuild the accessible portion of the subtree at ``pos`` as a tree."""
    node = Node(doc.tag_name(pos), text=doc.text(pos), attrs=doc.attrs_of(pos))
    for child_node in _visible_children(doc, labeling, subject, pos, policy):
        node.append(child_node)
    return node


def _visible_children(
    doc, labeling: DOL, subject, pos: int, policy: str
) -> List[Node]:
    out: List[Node] = []
    child = doc.first_child(pos)
    while child != NO_NODE:
        if _can_see(labeling, subject, child):
            out.append(_visible_node(doc, labeling, subject, child, policy))
        elif policy == HOIST:
            # Drop the element, splice its accessible children upward.
            out.extend(_visible_children(doc, labeling, subject, child, policy))
        child = doc.following_sibling(child)
    return out

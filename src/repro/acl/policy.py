"""Rule-based access control policies.

The paper assumes the *net effect* of a high-level rule language (Jajodia et
al. [12], Bertino et al. [5]) has been materialized into an accessibility
map. This module provides that front end: administrators write a small set
of :class:`AccessRule` objects; :meth:`Policy.compile` propagates them over
a document with the Most-Specific-Override policy and produces the
:class:`~repro.acl.model.AccessMatrix` the rest of the system consumes.

Rule targets are simple absolute paths (``/site/regions/africa``), rooted
descendant patterns (``//keyword``), or explicit node positions. Rules are
either *local* (apply to the matched node only) or *recursive* (cascade to
the whole subtree, overridden by more specific rules below).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.acl.model import READ, AccessMatrix
from repro.errors import AccessControlError
from repro.xmltree.document import NO_NODE, Document

DENY_OVERRIDES = "deny-overrides"
GRANT_OVERRIDES = "grant-overrides"
LAST_RULE_WINS = "last-rule-wins"

_CONFLICT_POLICIES = (DENY_OVERRIDES, GRANT_OVERRIDES, LAST_RULE_WINS)

Target = Union[str, int]


@dataclass(frozen=True)
class AccessRule:
    """One authorization rule.

    Attributes
    ----------
    subject:
        Subject id the rule applies to.
    target:
        A path expression (``/a/b``, ``//tag``) or an explicit document
        position.
    grant:
        True for a positive authorization, False for a negative one.
    recursive:
        Cascade to the target's whole subtree (overridden by more specific
        rules), versus applying to the target node only.
    mode:
        Action mode the rule governs.
    """

    subject: int
    target: Target
    grant: bool
    recursive: bool = True
    mode: str = READ


def select(doc: Document, path: str) -> List[int]:
    """Evaluate a simple path expression against a document.

    Supports absolute child paths (``/site/regions``), a rooted descendant
    prefix (``//keyword`` = every node with that tag), and ``*`` wildcards
    in child steps. This is intentionally a small subset — full twig queries
    live in :mod:`repro.nok`.
    """
    if path.startswith("//"):
        tag = path[2:]
        if not tag or "/" in tag:
            raise AccessControlError(f"invalid descendant pattern {path!r}")
        if tag == "*":
            return list(range(len(doc)))
        return list(doc.positions_with_tag(tag))
    if not path.startswith("/"):
        raise AccessControlError(f"path {path!r} must be absolute")
    steps = path[1:].split("/")
    if any(not step for step in steps):
        raise AccessControlError(f"empty step in path {path!r}")
    current = [0] if steps[0] in ("*", doc.tag_name(0)) else []
    for step in steps[1:]:
        next_level: List[int] = []
        for pos in current:
            for child in doc.children(pos):
                if step == "*" or doc.tag_name(child) == step:
                    next_level.append(child)
        current = next_level
    return current


class Policy:
    """An ordered collection of access rules over one document."""

    def __init__(
        self,
        doc: Document,
        n_subjects: int,
        conflict: str = DENY_OVERRIDES,
        default_grant: bool = False,
    ):
        if conflict not in _CONFLICT_POLICIES:
            raise AccessControlError(
                f"conflict policy must be one of {_CONFLICT_POLICIES}"
            )
        self.doc = doc
        self.n_subjects = n_subjects
        self.conflict = conflict
        self.default_grant = default_grant
        self.rules: List[AccessRule] = []

    def add_rule(self, rule: AccessRule) -> None:
        """Append a rule (later rules matter under last-rule-wins)."""
        if not 0 <= rule.subject < self.n_subjects:
            raise AccessControlError(f"subject {rule.subject} out of range")
        self.rules.append(rule)

    def grant(self, subject: int, target: Target, recursive: bool = True) -> None:
        """Convenience wrapper for a positive rule."""
        self.add_rule(AccessRule(subject, target, True, recursive))

    def deny(self, subject: int, target: Target, recursive: bool = True) -> None:
        """Convenience wrapper for a negative rule."""
        self.add_rule(AccessRule(subject, target, False, recursive))

    def compile(self, modes: Optional[Sequence[str]] = None) -> AccessMatrix:
        """Materialize the rules into an accessibility matrix.

        Each subject's rules are resolved per target node (conflict policy),
        then recursive decisions cascade down the tree with Most-Specific-
        Override: a node inherits from its closest ancestor that carries a
        recursive decision; local decisions override at their node only.
        Unlabeled nodes fall back to ``default_grant`` (closed world by
        default).
        """
        modes = list(modes) if modes else sorted({r.mode for r in self.rules} | {READ})
        matrix = AccessMatrix(len(self.doc), self.n_subjects, modes)
        for mode in modes:
            for subject in range(self.n_subjects):
                decisions = self._node_decisions(subject, mode)
                vector = self._propagate(decisions)
                for pos, value in enumerate(vector):
                    if value:
                        matrix.set_accessible(subject, pos, True, mode)
        return matrix

    # -- internals -----------------------------------------------------------

    def _resolve_target(self, target: Target) -> List[int]:
        if isinstance(target, int):
            if not 0 <= target < len(self.doc):
                raise AccessControlError(f"node position {target} out of range")
            return [target]
        return select(self.doc, target)

    def _node_decisions(
        self, subject: int, mode: str
    ) -> Dict[int, Tuple[Optional[bool], Optional[bool]]]:
        """Per-node (local_decision, recursive_decision) for one subject."""
        local: Dict[int, List[bool]] = {}
        cascade: Dict[int, List[bool]] = {}
        for rule in self.rules:
            if rule.subject != subject or rule.mode != mode:
                continue
            bucket = cascade if rule.recursive else local
            for pos in self._resolve_target(rule.target):
                bucket.setdefault(pos, []).append(rule.grant)
        decisions: Dict[int, Tuple[Optional[bool], Optional[bool]]] = {}
        for pos in set(local) | set(cascade):
            decisions[pos] = (
                self._combine(local.get(pos)),
                self._combine(cascade.get(pos)),
            )
        return decisions

    def _combine(self, votes: Optional[List[bool]]) -> Optional[bool]:
        if not votes:
            return None
        if self.conflict == DENY_OVERRIDES:
            return all(votes)
        if self.conflict == GRANT_OVERRIDES:
            return any(votes)
        return votes[-1]

    def _propagate(
        self, decisions: Dict[int, Tuple[Optional[bool], Optional[bool]]]
    ) -> List[bool]:
        doc = self.doc
        vector = [self.default_grant] * len(doc)
        inherited = [self.default_grant] * len(doc)
        for pos in range(len(doc)):
            par = doc.parent[pos]
            inh = self.default_grant if par == NO_NODE else inherited[par]
            local, cascade = decisions.get(pos, (None, None))
            if cascade is not None:
                inh = cascade
            inherited[pos] = inh
            vector[pos] = local if local is not None else inh
        return vector

"""DOL construction and lookup (Sections 2 and 2.1).

A :class:`DOL` is a document-ordered list of transition positions with
access control codes, plus the shared :class:`~repro.dol.codebook.Codebook`.
Construction is a single linear scan over per-node bitmasks in document
order; lookup is a binary search for the nearest preceding transition.

The DOL is the one access labeling the system stores and queries: its
transition codes embed into :class:`~repro.storage.nokstore.NoKStore`
pages, enabling the Section 3.3 page-skip test and zero-I/O
accessibility checks. Update hooks delegate to
:class:`~repro.dol.updates.DOLUpdater`, the local splice that Proposition
1 bounds at two extra transitions per operation. (CAM, the prior art,
lives in :mod:`repro.cam.cam` as the size baseline of Figs. 4a/4b.)
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.acl.model import READ, AccessMatrix
from repro.dol.codebook import Codebook
from repro.errors import AccessControlError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dol.updates import DOLUpdater, MaskFn


def transitions_from_masks(masks: Sequence[int]) -> List[Tuple[int, int]]:
    """Compute (position, mask) transition pairs from document-order masks.

    A node is a transition node iff its access control list differs from
    its document-order predecessor; the root (position 0) always is.
    """
    if not masks:
        raise AccessControlError("cannot label an empty document")
    transitions = [(0, masks[0])]
    previous = masks[0]
    for pos in range(1, len(masks)):
        if masks[pos] != previous:
            transitions.append((pos, masks[pos]))
            previous = masks[pos]
    return transitions


def transition_count(vector: Sequence[bool]) -> int:
    """Number of transition nodes for a single subject's +/- labeling."""
    return len(transitions_from_masks([int(v) for v in vector]))


class DOL:
    """Document Ordered Labeling of one document (one action mode).

    Attributes
    ----------
    n_nodes:
        Number of document positions covered.
    codebook:
        Shared code → access-control-list dictionary.
    positions / codes:
        Parallel lists: ``positions`` is strictly increasing with
        ``positions[0] == 0``; ``codes[i]`` is the access control code in
        effect from ``positions[i]`` up to the next transition.
    """

    def __init__(self, n_nodes: int, codebook: Codebook):
        if n_nodes <= 0:
            raise AccessControlError("DOL needs at least one node")
        self.n_nodes = n_nodes
        self.codebook = codebook
        self.positions: List[int] = []
        self.codes: List[int] = []

    # -- construction --------------------------------------------------------

    @classmethod
    def from_masks(
        cls, masks: Sequence[int], n_subjects: int, codebook: Optional[Codebook] = None
    ) -> "DOL":
        """Build a DOL from per-node bitmasks in document order."""
        codebook = codebook if codebook is not None else Codebook(n_subjects)
        dol = cls(len(masks), codebook)
        for pos, mask in transitions_from_masks(masks):
            dol.positions.append(pos)
            dol.codes.append(codebook.encode(mask))
        return dol

    @classmethod
    def from_matrix(
        cls,
        matrix: AccessMatrix,
        mode: str = READ,
        codebook: Optional[Codebook] = None,
    ) -> "DOL":
        """Build a DOL for one action mode of an accessibility matrix."""
        return cls.from_masks(matrix.masks(mode), matrix.n_subjects, codebook)

    @classmethod
    def from_vector(cls, vector: Sequence[bool]) -> "DOL":
        """Build a single-subject DOL from a +/- accessibility vector."""
        return cls.from_masks([int(v) for v in vector], n_subjects=1)

    # -- lookup (Section 3.3) --------------------------------------------------

    def transition_index_for(self, pos: int) -> int:
        """Index of the transition governing position ``pos``."""
        if not 0 <= pos < self.n_nodes:
            raise AccessControlError(f"position {pos} out of range")
        return bisect_right(self.positions, pos) - 1

    def code_at(self, pos: int) -> int:
        """Access control code in effect at position ``pos``."""
        return self.codes[self.transition_index_for(pos)]

    def mask_at(self, pos: int) -> int:
        """Access control list (bitmask) in effect at position ``pos``."""
        return self.codebook.decode(self.code_at(pos))

    def accessible(self, subject: int, pos: int) -> bool:
        """The secure-evaluation ACCESS check: bit ``subject`` at ``pos``."""
        return self.codebook.accessible(self.code_at(pos), subject)

    def accessible_any(self, subjects: Sequence[int], pos: int) -> bool:
        """True if *any* of the subjects may access ``pos``.

        This implements the user-level check of Section 4's footnote: a
        user's actual rights are the union of her own subject's rights and
        those of the groups she belongs to.
        """
        mask = self.mask_at(pos)
        return any(mask >> subject & 1 for subject in subjects)

    def is_transition(self, pos: int) -> bool:
        """True iff ``pos`` is a transition node."""
        index = self.transition_index_for(pos)
        return self.positions[index] == pos

    # -- bulk accessibility (run-length intervals) -----------------------------
    #
    # Accessibility is piecewise constant in document order (Section 2),
    # and the DOL *is* its run-length encoding: a run boundary can only
    # sit at a transition node, so decoding the transition codes straight
    # into run lists costs O(transitions in range). The yielded (start,
    # end, accessible) triples are half-open, tile [lo, hi) exactly, and
    # are maximal — consecutive runs differ in their flag.

    def access_runs(self, subject, lo=0, hi=None):
        """Maximal runs for one subject, decoded from the transition list."""
        from repro.dol.stream import decode_transition_runs

        lo, hi = self._check_range(lo, hi)
        return decode_transition_runs(
            self.positions, self.codes, self.codebook, (subject,), lo, hi
        )

    def access_runs_any(self, subjects, lo=0, hi=None):
        """Maximal runs of the subjects' union rights (one decode pass)."""
        from repro.dol.stream import decode_transition_runs

        lo, hi = self._check_range(lo, hi)
        subjects = tuple(subjects)
        if not subjects:
            raise AccessControlError("access_runs_any needs >= 1 subject")
        return decode_transition_runs(
            self.positions, self.codes, self.codebook, subjects, lo, hi
        )

    def _check_range(self, lo: int, hi: "int | None") -> "Tuple[int, int]":
        hi = self.n_nodes if hi is None else hi
        if not 0 <= lo <= hi <= self.n_nodes:
            raise AccessControlError(f"invalid run range [{lo}, {hi})")
        return lo, hi

    # -- access classes --------------------------------------------------------
    #
    # Two subject sets whose bits intersect exactly the same distinct
    # ACLs ("atoms") see exactly the same accessibility at every node —
    # they are in the same *access class* and every derived artifact
    # (run list, plan, answer) is shared. The signature is a small bitmap
    # over the atom list, recomputed per runs_epoch.

    def _signature_atoms(self) -> "Tuple[int, ...]":
        """Distinct ACLs straight off the codebook columns the DOL references.

        O(transitions), not O(nodes): the distinct codes in the
        transition list *are* the distinct ACLs, decoded through the
        shared codebook. (Codebook entries no transition references —
        e.g. after an update rewrote a range — are correctly excluded:
        no node carries them.)
        """
        cached = getattr(self, "_sig_atoms", None)
        epoch = self.runs_epoch
        if cached is not None and cached[0] == epoch:
            return cached[1]
        atoms = tuple(
            self.codebook.decode(code) for code in dict.fromkeys(self.codes)
        )
        self._sig_atoms = (epoch, atoms)
        return atoms

    def access_signature(self, subjects: Sequence[int]) -> int:
        """Bitmap of distinct ACLs the subject set can see (its class key).

        Bit *i* is set iff the subjects' union intersects the *i*-th
        distinct ACL of the labeling. Equal signatures (under one
        ``runs_epoch``) imply node-for-node identical accessibility for
        the whole subject set — the accessibility-equivalence relation
        the :class:`~repro.labeling.classes.ClassDirectory` partitions
        by. Cost after the per-epoch atom build: O(distinct ACLs).
        """
        subjects = tuple(subjects)
        if not subjects:
            raise AccessControlError("access_signature needs >= 1 subject")
        bits = 0
        for subject in subjects:
            bits |= 1 << subject
        signature = 0
        for index, mask in enumerate(self._signature_atoms()):
            if mask & bits:
                signature |= 1 << index
        return signature

    def access_class(self, subjects: Sequence[int], semantics: str = "cho") -> int:
        """The subject set's accessibility-equivalence class signature.

        Valid under the current :attr:`runs_epoch` only — an update
        re-partitions. The signature is semantics-invariant: view-path
        accessibility is a deterministic function of node accessibility
        and document shape, so sets equal under cho are equal under view
        too; ``semantics`` is validated and otherwise ignored.
        """
        from repro.secure.semantics import SEMANTICS

        if semantics not in SEMANTICS:
            raise AccessControlError(f"unknown semantics {semantics!r}")
        return self.access_signature(subjects)

    @property
    def runs_epoch(self) -> int:
        """Monotone version of the labeling's accessibility content.

        Every update bumps it; a cached artifact derived from the
        labeling (decoded run lists, most importantly) is valid exactly
        as long as the ``runs_epoch`` it was keyed under is current.
        Store-backed evaluation keys on the store epoch instead — the
        snapshot's labeling clone is frozen for its lifetime.
        """
        return getattr(self, "_runs_epoch", 0)

    def _bump_runs_epoch(self) -> None:
        self._runs_epoch = self.runs_epoch + 1

    # -- reconstruction & metrics ----------------------------------------------

    def to_masks(self) -> List[int]:
        """Expand back to per-node bitmasks (inverse of from_masks)."""
        masks: List[int] = []
        for i, start in enumerate(self.positions):
            end = self.positions[i + 1] if i + 1 < len(self.positions) else self.n_nodes
            masks.extend([self.codebook.decode(self.codes[i])] * (end - start))
        return masks

    def to_matrix(self, n_subjects: Optional[int] = None) -> AccessMatrix:
        """Expand back to an accessibility matrix."""
        n_subjects = n_subjects if n_subjects is not None else self.codebook.n_subjects
        return AccessMatrix.from_masks(self.to_masks(), n_subjects)

    @property
    def n_transitions(self) -> int:
        """Number of transition nodes (the paper's primary size metric)."""
        return len(self.positions)

    def transition_density(self) -> float:
        """Transitions per node — ``< 0.01`` in the paper's real datasets."""
        return len(self.positions) / self.n_nodes

    def size_bytes(self) -> int:
        """Total storage: in-memory codebook + embedded code per transition.

        Matches the paper's Section 5.1.1 accounting: each transition node
        stores only an access control code (no node pointer — the code is
        embedded in the structural encoding), and each codebook entry is
        one bit per subject.
        """
        return self.codebook.size_bytes() + self.n_transitions * self.codebook.code_bytes()

    def validate(self) -> None:
        """Check structural invariants; raises on corruption."""
        if not self.positions or self.positions[0] != 0:
            raise AccessControlError("DOL must start with a transition at 0")
        if len(self.positions) != len(self.codes):
            raise AccessControlError("positions/codes length mismatch")
        for i in range(1, len(self.positions)):
            if self.positions[i] <= self.positions[i - 1]:
                raise AccessControlError("transition positions must increase")
            if self.codes[i] == self.codes[i - 1]:
                raise AccessControlError(
                    f"redundant transition at {self.positions[i]}"
                )
        if self.positions[-1] >= self.n_nodes:
            raise AccessControlError("transition beyond document end")
        for code in self.codes:
            self.codebook.decode(code)

    # -- catalog serialization ---------------------------------------------------
    #
    # A store-backed DOL round-trips through the page file itself (the
    # embedded transition codes ARE the serialization); the payload below
    # is the page-free form used when a DOL must travel without its pages.

    def to_catalog(self) -> Dict[str, object]:
        return {
            "n_nodes": self.n_nodes,
            "n_subjects": self.codebook.n_subjects,
            "codebook": [f"{mask:x}" for _code, mask in self.codebook.entries()],
            "positions": list(self.positions),
            "codes": list(self.codes),
        }

    @classmethod
    def from_catalog(cls, payload: Dict[str, object]) -> "DOL":
        codebook = Codebook.from_entries(
            payload["n_subjects"],
            [int(mask_hex, 16) for mask_hex in payload["codebook"]],
        )
        dol = cls(payload["n_nodes"], codebook)
        dol.positions = list(payload["positions"])
        dol.codes = list(payload["codes"])
        dol.validate()
        return dol

    # -- updates (Section 3.4) ---------------------------------------------------
    #
    # Delegated to DOLUpdater — the local transition splice: only the
    # segment list covering the range is touched, and Proposition 1
    # bounds each operation at two extra transitions. Each returns the
    # transition-count delta and bumps :attr:`runs_epoch`.

    def transform_range(self, start: int, end: int, fn: "MaskFn") -> int:
        return self._updater().transform_range(start, end, fn)

    def set_node_mask(self, pos: int, mask: int) -> int:
        return self._updater().set_node_mask(pos, mask)

    def set_range_mask(self, start: int, end: int, mask: int) -> int:
        return self._updater().set_range_mask(start, end, mask)

    def set_subject_accessibility(
        self, start: int, end: int, subject: int, value: bool
    ) -> int:
        return self._updater().set_subject_accessibility(start, end, subject, value)

    def set_node_accessibility(self, pos: int, subject: int, value: bool) -> int:
        return self._updater().set_node_accessibility(pos, subject, value)

    def insert_range(self, at: int, masks: Sequence[int]) -> int:
        return self._updater().insert_range(at, masks)

    def delete_range(self, start: int, end: int) -> int:
        return self._updater().delete_range(start, end)

    def move_range(self, start: int, end: int, to: int) -> int:
        return self._updater().move_range(start, end, to)

    def _updater(self) -> "DOLUpdater":
        from repro.dol.updates import DOLUpdater

        return DOLUpdater(self)

    def clone(self) -> "DOL":
        """Independent copy: own transition lists, own codebook.

        The codebook must be copied too — updates encode new masks into
        it, and maintenance (compact, add/remove subject) remaps codes,
        so a shared codebook would leak writer state into a snapshot.
        """
        dol = DOL(self.n_nodes, self.codebook.clone())
        dol.positions = list(self.positions)
        dol.codes = list(self.codes)
        return dol

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DOL):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and self.to_masks() == other.to_masks()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DOL(n_nodes={self.n_nodes}, transitions={self.n_transitions}, "
            f"codebook={len(self.codebook)})"
        )

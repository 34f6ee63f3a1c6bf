"""SecuredDocument: a document and its DOL, updated in lockstep.

Section 3.4 describes two update families — accessibility updates and
structural updates (where "the nodes inserted have access controls
already"). This wrapper coordinates the two representations so neither
can drift: every structural edit rewrites the document arrays *and*
splices the DOL locally (preserving Proposition 1), and an optional
block store is kept physically consistent as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nok.pattern import PatternTree

from repro.dol.labeling import DOL
from repro.errors import AccessControlError
from repro.secure.semantics import CHO
from repro.storage.nokstore import NoKStore
from repro.xmltree import edit
from repro.xmltree.document import Document
from repro.xmltree.node import Node


@dataclass
class EditReport:
    """What one structural edit cost."""

    position: int
    size: int
    transition_delta: int
    pages_rewritten: int


class SecuredDocument:
    """A document + DOL pair with coordinated updates."""

    def __init__(
        self,
        doc: Document,
        labeling: DOL,
        store: Optional[NoKStore] = None,
    ):
        if labeling.n_nodes != len(doc):
            raise AccessControlError("document and labeling disagree on node count")
        if store is not None and store.labeling is not labeling:
            raise AccessControlError("store must share the SecuredDocument's labeling")
        self.doc = doc
        self.labeling = labeling
        self.store = store
        self._engine = None  # query engine cache, invalidated on structural edits

    # -- accessibility updates ------------------------------------------------

    def set_subtree_accessibility(
        self, pos: int, subject: int, value: bool
    ) -> EditReport:
        """Grant/revoke one subject on the whole subtree at ``pos``."""
        end = self.doc.subtree_end(pos)
        if self.store is not None:
            cost = self.store.update_subject_range(pos, end, subject, value)
            return EditReport(pos, end - pos, cost.transition_delta, cost.pages_rewritten)
        delta = self.labeling.set_subject_accessibility(pos, end, subject, value)
        return EditReport(pos, end - pos, delta, 0)

    def set_node_mask(self, pos: int, mask: int) -> EditReport:
        """Replace one node's access control list."""
        if self.store is not None:
            cost = self.store.update_range_mask(pos, pos + 1, mask)
            return EditReport(pos, 1, cost.transition_delta, cost.pages_rewritten)
        delta = self.labeling.set_node_mask(pos, mask)
        return EditReport(pos, 1, delta, 0)

    # -- structural updates -------------------------------------------------------

    def insert_subtree(
        self,
        parent: int,
        child_index: int,
        subtree: Node,
        masks: Sequence[int],
    ) -> EditReport:
        """Insert a labeled subtree (Section 3.4: nodes arrive with their
        access controls)."""
        if len(masks) != subtree.size():
            raise AccessControlError(
                f"need one mask per inserted node "
                f"({subtree.size()} nodes, {len(masks)} masks)"
            )
        result = edit.insert_subtree(self.doc, parent, child_index, subtree)
        delta = self.labeling.insert_range(result.position, list(masks))
        self.doc = result.doc
        pages = self._sync_store(result.position)
        return EditReport(result.position, result.size, delta, pages)

    def delete_subtree(self, pos: int) -> EditReport:
        """Delete the subtree at ``pos``."""
        end = self.doc.subtree_end(pos)
        new_doc = edit.delete_subtree(self.doc, pos)
        delta = self.labeling.delete_range(pos, end)
        self.doc = new_doc
        pages = self._sync_store(pos)
        return EditReport(pos, end - pos, delta, pages)

    def move_subtree(
        self, pos: int, new_parent: int, child_index: Optional[int] = None
    ) -> EditReport:
        """Move the subtree at ``pos`` under ``new_parent``."""
        result = edit.move_subtree(self.doc, pos, new_parent, child_index)
        start, end = result.source
        delta = self.labeling.move_range(start, end, result.destination)
        self.doc = result.doc
        pages = self._sync_store(min(start, result.destination))
        return EditReport(result.destination, end - start, delta, pages)

    # -- queries --------------------------------------------------------------------

    def query(
        self,
        query: Union[str, "PatternTree"],
        subject: Optional[Union[int, Sequence[int]]] = None,
        semantics: str = CHO,
        limit: Optional[int] = None,
    ):
        """Evaluate a twig query over the current document/labeling pair.

        Compiled through the physical-operator pipeline; the engine is
        cached across calls and rebuilt only after a structural edit
        replaces the document. Accessibility updates
        mutate the shared labeling in place, so the cache survives them.
        """
        return self._query_engine().evaluate(
            query, subject=subject, semantics=semantics, limit=limit
        )

    def stream_query(
        self,
        query: Union[str, "PatternTree"],
        subject: Optional[Union[int, Sequence[int]]] = None,
        semantics: str = CHO,
        limit: Optional[int] = None,
    ) -> Iterator[int]:
        """Lazily yield answer positions as the compiled plan finds them.

        Abandoning the iterator terminates the operator pipeline early —
        no further candidates are matched or access-checked.
        """
        return self._query_engine().stream(
            query, subject=subject, semantics=semantics, limit=limit
        )

    def _query_engine(self):
        from repro.nok.engine import QueryEngine

        if self._engine is None or self._engine.doc is not self.doc:
            self._engine = QueryEngine(
                self.doc, labeling=self.labeling, store=self.store
            )
        return self._engine

    def accessible(self, subject: int, pos: int) -> bool:
        return self.labeling.accessible(subject, pos)

    def masks(self) -> List[int]:
        return self.labeling.to_masks()

    def validate(self) -> None:
        """Cross-check the two representations."""
        self.doc.validate()
        self.labeling.validate()
        if self.labeling.n_nodes != len(self.doc):
            raise AccessControlError("document/labeling node-count drift")

    def _sync_store(self, from_pos: int) -> int:
        if self.store is None:
            return 0
        return self.store.apply_structural_update(self.doc, from_pos)

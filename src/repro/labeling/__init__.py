"""Accessibility derived from the DOL: run lists and access classes.

- :mod:`~repro.labeling.runs` — decoded accessibility run lists (the
  bulk form of the ACCESS check) and the cache that shares them;
- :mod:`~repro.labeling.classes` — access classes: subject sets with
  identical accessibility share every derived artifact.

The labeling itself is :class:`repro.dol.labeling.DOL`; :func:`build_labeling`
builds one from an accessibility matrix after checking it covers the
document.
"""

from repro.acl.model import READ, AccessMatrix
from repro.dol.labeling import DOL
from repro.errors import AccessControlError
from repro.labeling.classes import ClassDirectory, normalize_subjects
from repro.xmltree.document import Document


def build_labeling(
    name: str, doc: Document, matrix: AccessMatrix, mode: str = READ
) -> DOL:
    """Build the DOL of one mode of ``matrix`` (``name`` must be ``"dol"``)."""
    if name != "dol":
        raise AccessControlError(f"unknown labeling {name!r} (only 'dol' exists)")
    if matrix.n_nodes != len(doc):
        raise AccessControlError(
            f"matrix covers {matrix.n_nodes} nodes, document has {len(doc)}"
        )
    return DOL.from_matrix(matrix, mode)


__all__ = [
    "ClassDirectory",
    "build_labeling",
    "normalize_subjects",
]

"""The two secure-evaluation semantics discussed in the paper (Section 4).

**Cho semantics** (Cho, Amer-Yahia, Lakshmanan, Srivastava [7]) — the
paper's primary semantics: secure evaluation of a twig query returns every
binding set of the unsecured evaluation in which *all bound data nodes are
accessible* to the subject. Nodes that are not bound by the query (e.g.
intermediate nodes skipped by a ``//`` axis) do not affect the answer, so
answers may come from inside a subtree whose root is inaccessible.

**View semantics** (Gabillon and Bruno [11]) — a subtree rooted at an
inaccessible node cannot contribute answers even if it contains accessible
nodes; equivalently, the query runs over the pruned view containing exactly
the nodes whose entire root path is accessible. This is the semantics that
requires the ε-STD secure structural join with path accessibility checks
(Section 4.2). Here those checks are folded into accessibility itself:
the view is a run list derived from the node-level one
(:func:`repro.labeling.runs.view_runs`), and a join over bindings whose
roots passed it needs no further test.
"""

from __future__ import annotations

CHO = "cho"
VIEW = "view"

#: All supported semantics identifiers.
SEMANTICS = (CHO, VIEW)

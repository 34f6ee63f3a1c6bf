"""NoK twig query processing (Sections 3.1 and 4).

- :mod:`~repro.nok.pattern` — pattern trees and the XPath-subset parser.
- :mod:`~repro.nok.decompose` — splitting a pattern tree into NoK subtrees
  connected by ancestor–descendant edges.
- :mod:`~repro.nok.matcher` — NPM, the recursive next-of-kin pattern
  matcher, in non-secure and ε-NoK (secure) variants:
  ``match_nok_subtree`` is what the ``NPMMatch`` operator runs, ``npm``
  the literal Algorithm 1 it is tested against.
- :mod:`~repro.nok.engine` — the end-to-end query engine with statistics
  (a facade over :mod:`repro.exec`, which holds the operators — the
  ε-STD structural join included).
- :mod:`~repro.nok.reference` — a brute-force evaluator used as the test
  oracle.
"""

from repro.nok.engine import QueryEngine, QueryResult
from repro.nok.pattern import PatternNode, PatternTree, parse_query

__all__ = [
    "PatternNode",
    "PatternTree",
    "QueryEngine",
    "QueryResult",
    "parse_query",
]

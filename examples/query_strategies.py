"""Advanced querying tour: plans, ordered trees, attributes.

Shows the query-side features beyond plain evaluation:

- ``engine.explain`` / ``engine.explain_analyze`` — the NoK decomposition
  plan, then the executed operator tree with per-operator counters;
- ordered pattern trees (following-sibling constraints);
- attribute predicates.

Run with: python examples/query_strategies.py
"""

from repro import QueryEngine
from repro.acl.synthetic import SyntheticACLConfig, generate_synthetic_acl
from repro.xmark.generator import XMarkConfig, generate_document


def main() -> None:
    doc = generate_document(XMarkConfig(n_items=250, seed=17))
    matrix = generate_synthetic_acl(
        doc, SyntheticACLConfig(accessibility_ratio=0.7, seed=17)
    )
    engine = QueryEngine.build(doc, matrix)
    print(f"document: {len(doc)} nodes\n")

    # 1. Inspect the plan before running.
    query = "//listitem//keyword"
    print(engine.explain(query))

    # 2. Run it securely and see where the rows went.
    result, analyzed = engine.explain_analyze(query, subject=0)
    print(f"\n{query}: {result.n_answers} secure answers")
    print(analyzed)

    # 3. Ordered pattern trees: sibling order matters.
    unordered = engine.evaluate("//item[quantity][location]")
    ordered = engine.evaluate("//item[quantity][location]", ordered=True)
    print(
        f"//item[quantity][location]: unordered {unordered.n_answers}, "
        f"ordered {ordered.n_answers} (location precedes quantity in XMark, "
        f"so the ordered pattern requires the reverse and matches fewer)"
    )

    # 4. Attribute predicates.
    by_id = engine.evaluate('//item[@id = "item42"]')
    featured = engine.evaluate("//incategory[@category]")
    print(
        f'//item[@id = "item42"]: {by_id.n_answers} answer; '
        f"//incategory[@category]: {featured.n_answers} nodes carry the attribute"
    )


if __name__ == "__main__":
    main()

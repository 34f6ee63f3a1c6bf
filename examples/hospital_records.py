"""Secure querying of hospital records — the classic fine-grained ACL story.

A patient-records document where different roles see different parts:

- doctors read everything clinical;
- nurses read observations but not psychiatric notes;
- billing reads invoices and demographics, nothing clinical.

Demonstrates rule-based specification, both secure-evaluation semantics
(Cho pattern-matching vs Gabillon–Bruno views), and DOL compression of the
resulting multi-subject accessibility map.

Run with: python examples/hospital_records.py
"""

import random

from repro import CHO, DOL, VIEW, Policy, QueryEngine
from repro.xmltree.document import Document
from repro.xmltree.node import Node

DOCTOR, NURSE, BILLING = 0, 1, 2
ROLES = {DOCTOR: "doctor", NURSE: "nurse", BILLING: "billing"}


def build_records(n_patients: int = 50, seed: int = 4) -> Document:
    """Generate a synthetic patient-records document."""
    rng = random.Random(seed)
    root = Node("hospital")
    for pid in range(n_patients):
        patient = root.append(Node("patient", attrs={"id": f"p{pid}"}))
        demographics = patient.append(Node("demographics"))
        demographics.append(Node("name", f"Patient {pid}"))
        demographics.append(Node("dob", f"19{rng.randint(40, 99)}"))
        clinical = patient.append(Node("clinical"))
        for _ in range(rng.randint(1, 3)):
            visit = clinical.append(Node("visit"))
            visit.append(Node("observation", rng.choice(
                ("stable", "improving", "deteriorating")
            )))
            if rng.random() < 0.3:
                note = visit.append(Node("psychnote"))
                note.append(Node("text", "confidential"))
        billing = patient.append(Node("billing"))
        billing.append(Node("invoice", f"{rng.randint(100, 2000)}"))
    return Document.from_tree(root)


def main() -> None:
    doc = build_records()
    print(f"records document: {len(doc)} nodes")

    policy = Policy(doc, n_subjects=3)
    policy.grant(DOCTOR, "/hospital")
    policy.grant(NURSE, "/hospital")
    policy.deny(NURSE, "//psychnote")
    policy.deny(NURSE, "//billing")
    policy.grant(BILLING, "/hospital")
    policy.deny(BILLING, "//clinical")
    # ...but billing may audit bare observations (not the visit context):
    policy.grant(BILLING, "//observation")
    matrix = policy.compile()

    dol = DOL.from_matrix(matrix)
    print(
        f"DOL: {dol.n_transitions} transitions "
        f"({dol.transition_density():.1%} of nodes), "
        f"{len(dol.codebook)} distinct access control lists"
    )

    engine = QueryEngine.build(doc, matrix)
    queries = {
        "observations": "//visit/observation",
        "psych notes": "//psychnote/text",
        "invoices": "//billing/invoice",
    }
    header = f"{'query':>14} | " + " | ".join(f"{r:>7}" for r in ROLES.values())
    print("\nanswers per role (Cho pattern-matching semantics)")
    print(header)
    for label, query in queries.items():
        counts = [
            engine.evaluate(query, subject=s).n_answers for s in ROLES
        ]
        print(f"{label:>14} | " + " | ".join(f"{c:>7}" for c in counts))

    # The two secure semantics disagree exactly here: billing may read
    # <observation> nodes, but their ancestors (<clinical>, <visit>) are
    # denied. Cho semantics returns them (//observation binds only the
    # observation); Gabillon-Bruno view semantics prunes the whole denied
    # subtree.
    cho = engine.evaluate("//observation", subject=BILLING, semantics=CHO)
    view = engine.evaluate("//observation", subject=BILLING, semantics=VIEW)
    print(
        f"\nbilling + //observation: Cho={cho.n_answers} answers, "
        f"view={view.n_answers} (denied <clinical> subtrees pruned)"
    )

    # Revoke a nurse's access to one patient's whole record and re-query.
    patient0 = doc.positions_with_tag("patient")[0]
    from repro.dol.updates import DOLUpdater

    updater = DOLUpdater(dol)
    delta = updater.set_subject_accessibility(
        patient0, doc.subtree_end(patient0), NURSE, False
    )
    print(
        f"\nrevoked nurse on patient 0: transition delta {delta:+d} "
        f"(Proposition 1 guarantees <= +2)"
    )
    engine2 = QueryEngine(doc, labeling=dol)
    before = engine.evaluate("//visit/observation", subject=NURSE).n_answers
    after = engine2.evaluate("//visit/observation", subject=NURSE).n_answers
    print(f"nurse observations before={before} after={after}")


if __name__ == "__main__":
    main()

"""One-shot verification pipeline over the bundled 8-vertex 3-sphere.

Runs every headline computation end to end: the staged construction and its
missing faces, the moment-angle Betti table, both duality checks, the
product relations pinning the ring, the sphere-product model verification,
the obstruction battery, the truncated-simplex family against its closed
formula, and the three-method agreement.  Each item reports pass/fail with
a short detail string, so the command line can print a checklist and exit
nonzero when anything drifts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import vertices_of
from .classify import csp_obstructions, induced_cycles, parse_model, verify_csp_model
from .complexes import P28_MISSING_FACES, construct_p28_8, truncated_simplex
from .homology import pseudo_sphere_check, reduced_homology
from .hochster import alexander_duality_check, bigraded_betti, poincare_check
from .resolutions import cross_check
from .ring import poincare_pairing_report, product_span_rank, ring_presentation

TARGET_MODEL = "3,3,6;5,7*8;6,6*8"
TARGET_BETTI = {0: 1, 3: 2, 5: 8, 6: 18, 7: 8, 9: 2, 12: 1}
MCGAVRAN_PAIRS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))


@dataclass
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


def mcgavran_model(k: int, l: int) -> str:
    """Model string for the l-times-truncated k-simplex family.

    The connected sum runs over j = 1..l with j * C(l+1, j+1) copies of
    S^{j+2} x S^{2k+l-j-1}.
    """
    from math import comb

    parts = []
    for j in range(1, l + 1):
        mult = j * comb(l + 1, j + 1)
        if mult:
            parts.append(f"{j + 2},{2 * k + l - j - 1}*{mult}")
    return ";".join(parts)


def run_checklist(threads: int = 1) -> list:
    items: list[CheckItem] = []

    def record(name: str, passed: bool, detail: str = ""):
        items.append(CheckItem(name=name, passed=bool(passed), detail=detail))

    try:
        complex_ = construct_p28_8()
        record("staged construction matches facet list", True, "18 facets")
    except Exception as exc:  # pragma: no cover - construction is hard-coded
        record("staged construction matches facet list", False, str(exc))
        return items

    missing = complex_.missing_faces()
    record(
        "missing faces are the ten golden sets",
        missing == P28_MISSING_FACES,
        ", ".join(str(vertices_of(f)) for f in missing),
    )
    record(
        "f-vector is (8, 26, 36, 18)",
        complex_.f_vector() == (8, 26, 36, 18),
        str(complex_.f_vector()),
    )
    sphere = pseudo_sphere_check(complex_)
    groups = {d: g for d, g in reduced_homology(complex_).items() if not g.is_zero}
    record(
        "sphere candidate with the homology of S^3",
        sphere.passed and list(groups) == [3] and groups[3].rank == 1,
        f"chi={sphere.euler_characteristic}",
    )

    table = bigraded_betti(complex_, threads=threads)
    totals = table.total()
    betti = {p: g.rank for p, g in totals.items()}
    torsion_free = all(not g.torsion for g in totals.values())
    record(
        "moment-angle Betti table",
        betti == TARGET_BETTI and torsion_free,
        str(betti),
    )
    alexander = alexander_duality_check(complex_, table)
    record("Alexander duality over all vertex subsets", alexander.ok, f"{alexander.checked} checks")
    poincare = poincare_check(complex_, table)
    record("Betti and torsion symmetry of the manifold", poincare.ok, f"top degree {poincare.top}")

    presentation = ring_presentation(complex_, table=table)
    pairing = poincare_pairing_report(presentation)
    record("top pairing unimodular in all degrees", pairing.ok)

    full = (1 << complex_.m) - 1
    a1 = presentation.find((5, 6), 0)
    a2 = presentation.find((7, 8), 0)
    relations_ok = True
    details = []
    fid = presentation.fundamental_id
    for g in presentation.degree_generators(3) + presentation.degree_generators(5) + presentation.degree_generators(6):
        partner_subset = full & ~g.subset
        partner_degree = complex_.dim() - g.degree - 1
        partner = presentation.find(partner_subset, partner_degree)
        terms = dict(presentation.product(g.gid, partner.gid))
        coeff = terms.get(fid, 0)
        if abs(coeff) != 1 or len(terms) != 1:
            relations_ok = False
            details.append(f"{vertices_of(g.subset)} pairing coefficient {coeff}")
    record("complementary pairs multiply to the top class", relations_ok, "; ".join(details))

    alpha0 = presentation.find((1, 2, 3, 4), 1)
    lam1 = presentation.find((1, 2, 3, 4, 7, 8), 2)
    lam2 = presentation.find((1, 2, 3, 4, 5, 6), 2)
    a2_alpha0 = dict(presentation.product(a2.gid, alpha0.gid))
    a1_alpha0 = dict(presentation.product(a1.gid, alpha0.gid))
    record(
        "degree-3 times degree-6 hits the degree-9 classes",
        a2_alpha0 in ({lam1.gid: 1}, {lam1.gid: -1})
        and a1_alpha0 in ({lam2.gid: 1}, {lam2.gid: -1}),
        f"coefficients {a2_alpha0} {a1_alpha0}",
    )
    triple = presentation.product_class([a1.gid, a2.gid, alpha0.gid])
    coeff = presentation.coefficient_on(triple, fid)
    record("three-fold product generates the top degree", abs(coeff) == 1, f"coefficient {coeff}")
    record(
        "rank of three-fold products in the top degree",
        product_span_rank(presentation, 3).get(12, 0) == 1,
    )

    verification = verify_csp_model(complex_, TARGET_MODEL, presentation=presentation)
    deg6 = sorted(count for _, _, count in verification.degree_contributions[6])
    record(
        "ring consistent with the three-sphere-product model",
        verification.consistent and deg6 == [1, 1, 16],
        f"degree 6 decomposes as {'+'.join(map(str, sorted(deg6, reverse=True)))}",
    )

    cycles4 = induced_cycles(complex_, 4, 4)
    cycles5 = induced_cycles(complex_, 5, complex_.m)
    obstructions = csp_obstructions(complex_, table=table)
    record(
        "obstruction battery clean",
        cycles4 == [(5, 7, 6, 8)] and not cycles5 and not obstructions.obstructed,
        f"quadrangle {cycles4[0] if cycles4 else None}",
    )

    for k, l in MCGAVRAN_PAIRS:
        member = truncated_simplex(k, l)
        want = parse_model(mcgavran_model(k, l))
        result = verify_csp_model(member, want, threads=threads, max_vertices=member.m)
        record(
            f"truncated simplex (k={k}, l={l}) matches its closed formula",
            result.consistent,
            want.describe(),
        )

    try:
        agreement = cross_check(complex_, table=table)
        record(
            "three Tor computations agree",
            agreement.ok,
            f"{len(agreement.bidegrees)} bidegrees, {agreement.strata_checked} strata",
        )
    except Exception as exc:
        record("three Tor computations agree", False, str(exc))

    return items


def checklist_json_obj(items: list) -> dict:
    return {
        "passed": all(item.passed for item in items),
        "items": [
            {"name": item.name, "passed": item.passed, "detail": item.detail}
            for item in items
        ],
    }

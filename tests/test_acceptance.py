"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Budgets are wall-clock and generous only where the criterion says so; every
numeric assertion is exact.
"""

import time
from math import comb

import pytest

from moment_angle import (
    boundary_simplex,
    bigraded_betti,
    construct_p28_8,
    cross_check,
    cross_polytope,
    csp_obstructions,
    induced_cycles,
    model_betti,
    parse_model,
    poincare_check,
    alexander_duality_check,
    poincare_pairing_report,
    polygon,
    ring_presentation,
    truncated_simplex,
    two_points,
    verify_csp_model,
    vertices_of,
    zk_betti,
)
from moment_angle.complexes import P28_MISSING_FACES
from moment_angle.reproduction import MCGAVRAN_PAIRS, mcgavran_model
from test_properties import boundary_matrix

TARGET_MODEL = "3,3,6;5,7*8;6,6*8"
TARGET_BETTI = {0: 1, 3: 2, 5: 8, 6: 18, 7: 8, 9: 2, 12: 1}


def report(number, name, elapsed=None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nPASS criterion {number}: {name}{suffix}")


@pytest.fixture(scope="module")
def p28_presentation(p28):
    return ring_presentation(p28)


def test_criterion_1_missing_face_golden():
    start = time.perf_counter()
    complex_ = construct_p28_8()
    missing = complex_.missing_faces()
    elapsed = time.perf_counter() - start
    assert missing == P28_MISSING_FACES
    assert [vertices_of(f) for f in missing] == [
        (5, 6), (7, 8), (1, 2, 3), (1, 2, 8), (1, 3, 4),
        (1, 4, 7), (2, 3, 5), (2, 5, 8), (3, 4, 6), (4, 6, 7),
    ]
    assert elapsed < 0.1
    report(1, "staged construction has the ten golden missing faces", elapsed)


def test_criterion_2_betti_table(p28):
    start = time.perf_counter()
    table = zk_betti(p28, threads=1)
    elapsed = time.perf_counter() - start
    assert {p: g.rank for p, g in table.items() if g.rank} == TARGET_BETTI
    assert all(not g.torsion for g in table.values())
    assert set(table) == set(TARGET_BETTI)
    assert elapsed < 5.0
    report(2, "moment-angle Betti table reproduced exactly", elapsed)


def test_criterion_3_ring_relations(p28, p28_presentation):
    presentation = p28_presentation
    fid = presentation.fundamental_id
    full = (1 << 8) - 1

    def unit_pairing(g):
        partner = presentation.find(full & ~g.subset, 3 - g.degree - 1)
        terms = dict(presentation.product(g.gid, partner.gid))
        return terms in ({fid: 1}, {fid: -1})

    # the 2 + 8 + 9 complementary pairings each hit the top with a unit
    middles = (
        presentation.degree_generators(3)
        + presentation.degree_generators(5)
        + presentation.degree_generators(6)
    )
    assert len(middles) == 2 + 8 + 18
    assert all(unit_pairing(g) for g in middles)

    a1 = presentation.find((5, 6), 0)
    a2 = presentation.find((7, 8), 0)
    alpha0 = presentation.find((1, 2, 3, 4), 1)
    lam1 = presentation.find((1, 2, 3, 4, 7, 8), 2)
    triple = presentation.product_class([a1.gid, a2.gid, alpha0.gid])
    assert abs(presentation.coefficient_on(triple, fid)) == 1
    terms = dict(presentation.product(a2.gid, alpha0.gid))
    assert terms in ({lam1.gid: 1}, {lam1.gid: -1})
    report(3, "product relations hold exactly up to sign")


def test_criterion_4_csp_model_verification(p28, p28_presentation):
    result = verify_csp_model(p28, TARGET_MODEL, presentation=p28_presentation)
    assert result.consistent
    counts = sorted(
        (count for _, _, count in result.degree_contributions[6]), reverse=True
    )
    assert counts == [16, 1, 1]
    report(4, "ring consistent with the model; degree 6 splits 16+1+1")


def test_criterion_5_three_method_agreement(p28, corpus):
    start = time.perf_counter()
    assert cross_check(p28).ok
    assert len(corpus) >= 100
    for complex_ in corpus:
        assert cross_check(complex_).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"three methods agree on the target and {len(corpus)} random complexes", elapsed)


def test_criterion_6_duality_suite(p28):
    start = time.perf_counter()
    members = (
        [p28]
        + [boundary_simplex(k) for k in range(2, 6)]
        + [cross_polytope(2)]
        + [truncated_simplex(k, l) for k, l in MCGAVRAN_PAIRS]
    )
    for complex_ in members:
        assert alexander_duality_check(complex_).ok, complex_
        assert poincare_check(complex_).ok, complex_
        assert poincare_pairing_report(ring_presentation(complex_)).ok, complex_
    elapsed = time.perf_counter() - start
    report(6, f"duality suite over {len(members)} sphere complexes", elapsed)


def test_criterion_7_truncated_simplex_family():
    start = time.perf_counter()
    for k, l in MCGAVRAN_PAIRS:
        member = truncated_simplex(k, l)
        model = parse_model(mcgavran_model(k, l))
        computed = {p: g.rank for p, g in zk_betti(member).items() if g.rank}
        assert computed == model_betti(model), (k, l)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, "truncated-simplex family matches the closed formula", elapsed)


def test_criterion_8_cross_polytopes():
    for n in (2, 3):
        complex_ = cross_polytope(n)
        obstructions = csp_obstructions(complex_)
        verdict, witness = obstructions.checks["join-of-pairs"]
        assert verdict == "pass" and f"{n + 1}-fold" in witness
        model = ",".join(["3"] * (n + 1))
        assert verify_csp_model(complex_, model).consistent
        table = {p: g.rank for p, g in zk_betti(complex_).items()}
        expected = {3 * r: comb(n + 1, r) for r in range(n + 2)}
        assert table == expected
    report(8, "cross-polytopes detected as powers of three-spheres")


def test_criterion_9_obstruction_sanity(p28):
    assert induced_cycles(p28, 5, 8) == []
    assert induced_cycles(p28, 4, 4) == [(5, 7, 6, 8)]
    assert csp_obstructions(p28).checks["quadrangle-pairs"][0] == "pass"
    suspension = polygon(5).join(two_points())
    obstructed = csp_obstructions(suspension)
    assert obstructed.obstructed
    assert obstructed.checks["long-induced-cycle"] == ("obstruction", (1, 2, 3, 4, 5))
    report(9, "cycle searches and the obstruction battery behave")


def test_criterion_10_property_suite(small_corpus):
    # delegated to the dedicated property module; here we assert the
    # star-product laws once more on a direct sample so this module alone
    # certifies every criterion
    from moment_angle import ChainComplexZ, HochsterClass, star_product
    from moment_angle.homology import CohomologyBasis
    from moment_angle.snf import matmul, smith_normal_form, identity

    checked_pairs = 0
    for complex_ in small_corpus[:10]:
        cc = ChainComplexZ.of_complex(complex_)
        for d in range(0, cc.top + 1):
            lower, upper = boundary_matrix(cc, d), boundary_matrix(cc, d + 1)
            if lower and upper:
                assert all(all(x == 0 for x in row) for row in matmul(lower, upper))
            if lower:
                result = smith_normal_form(lower)
                assert matmul(result.u, result.u_inv) == identity(result.rows)
        table = bigraded_betti(complex_)
        classes = []
        for (subset, d), group in table.entries.items():
            if group.rank and d >= 0:
                sub_cc = ChainComplexZ.of_subset(complex_, subset)
                faces = sub_cc.faces.get(d, [])
                rep = CohomologyBasis(sub_cc).representatives(d)[0]
                classes.append(
                    HochsterClass(subset, d, {f: c for f, c in zip(faces, rep) if c})
                )
            if len(classes) >= 4:
                break
        for c1 in classes:
            for c2 in classes:
                product = star_product(c1, c2, complex_)  # cocycle closure asserted
                sign = (-1) ** ((c1.degree + 1) * (c2.degree + 1))
                reverse = star_product(c2, c1, complex_)
                assert product == (reverse if sign == 1 else -reverse)
                if c1.subset & c2.subset:
                    assert product.is_zero
                checked_pairs += 1
    assert checked_pairs > 0
    report(10, f"property sample re-verified on {checked_pairs} class pairs")

"""Koszul quotient and Taylor complex computations, and their agreement."""

import pytest

from moment_angle import (
    Abelian,
    SimplicialComplex,
    bigraded_betti,
    boundary_simplex,
    cross_check,
    koszul_basis_size,
    koszul_bigraded,
    mask_of,
    polygon,
    taylor_bigraded,
    taylor_monomial,
    taylor_product,
    truncated_simplex,
    two_points,
    vertices_of,
)
from moment_angle.errors import CapExceeded
from moment_angle.resolutions import KOSZUL_BASIS_CAP, koszul_pieces, taylor_strata
from moment_angle.snf import invariant_factors_sparse
from test_homology import RP2

Z = Abelian(1, ())


class TestKoszul:
    def test_two_points_basis_and_groups(self):
        pair = two_points()
        assert koszul_basis_size(pair) == 8
        table = koszul_bigraded(pair)
        assert table.entries == {(0, 0): Z, (1, 2): Z}
        assert {p: g.rank for p, g in table.total().items()} == {0: 1, 3: 1}

    def test_quadrilateral(self):
        table = koszul_bigraded(polygon(4))
        assert table.entries == {(0, 0): Z, (1, 2): Abelian(2, ()), (2, 4): Z}

    def test_p28_basis_count_matches_formula(self, p28):
        # sum over faces of 2^(m - |face|), empty face included
        f = p28.f_vector()
        expected = 2**8 + sum(
            count * 2 ** (8 - size) for size, count in enumerate(f, start=1)
        )
        assert expected == 4384
        assert koszul_basis_size(p28) == 4384

    def test_p28_aggregates_to_the_betti_table(self, p28):
        totals = {p: g.rank for p, g in koszul_bigraded(p28).total().items()}
        assert totals == {0: 1, 3: 2, 5: 8, 6: 18, 7: 8, 9: 2, 12: 1}


class TestTaylor:
    def test_quadrilateral_strata(self):
        table = taylor_bigraded(polygon(4))
        strata = {(r, vertices_of(s)): g.rank for (r, s), g in table.strata.items()}
        assert strata == {
            (0, ()): 1,
            (1, (1, 3)): 1,
            (1, (2, 4)): 1,
            (2, (1, 2, 3, 4)): 1,
        }

    def test_boundary_simplex_single_generator(self):
        for k in (2, 3, 4):
            table = taylor_bigraded(boundary_simplex(k))
            full = (1 << (k + 1)) - 1
            assert set(table.strata) == {(0, 0), (1, full)}

    def test_p28_aggregates_to_the_betti_table(self, p28):
        totals = {p: g.rank for p, g in taylor_bigraded(p28).bidegrees().total().items()}
        assert totals == {0: 1, 3: 2, 5: 8, 6: 18, 7: 8, 9: 2, 12: 1}

    def test_generator_cap(self):
        # the complete graph's flag complex has one missing face per triple
        skeleton = SimplicialComplex(
            8, [(a, b) for a in range(1, 9) for b in range(a + 1, 9)]
        )
        assert len(skeleton.missing_faces()) == 56
        with pytest.raises(CapExceeded):
            taylor_bigraded(skeleton)


class TestKoszulBudget:
    def test_cross_polytope_7_is_refused(self):
        from moment_angle import cross_polytope

        octahedral = cross_polytope(7)
        assert koszul_basis_size(octahedral) == 16_777_216 > KOSZUL_BASIS_CAP
        with pytest.raises(CapExceeded, match=f"16777216 .* {KOSZUL_BASIS_CAP}"):
            koszul_bigraded(octahedral)
        with pytest.raises(CapExceeded):
            cross_check(octahedral)

    def test_p28_and_the_corpus_fit(self, p28, corpus):
        assert koszul_basis_size(p28) <= KOSZUL_BASIS_CAP
        assert max(koszul_basis_size(c) for c in corpus) <= KOSZUL_BASIS_CAP


def seven_cycle_with_chords(chords=((1, 4), (2, 6))):
    edges = [(i, i % 7 + 1) for i in range(1, 8)] + list(chords)
    return SimplicialComplex(7, edges)


class TestPieceOracle:
    """The coreduction pass against the per-degree reduction, piece by piece.

    All three methods read their groups through the same pass, so their
    agreement cannot see a fault in it; the oracle reduces each boundary
    matrix on its own from the local-index entries.
    """

    @staticmethod
    def check(pieces):
        count = 0
        for _, cc in pieces:
            expected = {
                d: invariant_factors_sparse(cc.boundary_entries(d))
                for d in range(cc.bottom, cc.top + 2)
            }
            assert cc.boundary_factor_table() == expected
            count += 1
        assert count

    @staticmethod
    def complex_named(name, p28):
        return {
            "p28": p28,
            "RP2": RP2,
            "RP2*S0": RP2.join(two_points()),
            "7-cycle+chords": seven_cycle_with_chords(),
            "7-cycle+chord{1,4}": seven_cycle_with_chords([(1, 4)]),
            "truncated-simplex 5 2": truncated_simplex(5, 2),
        }[name]

    @pytest.mark.parametrize(
        "name",
        ["p28", "RP2", "RP2*S0", "7-cycle+chords", "7-cycle+chord{1,4}", "truncated-simplex 5 2"],
    )
    def test_koszul_pieces_and_taylor_strata(self, name, p28):
        complex_ = self.complex_named(name, p28)
        self.check(koszul_pieces(complex_))
        self.check(taylor_strata(complex_))

    @pytest.mark.parametrize(
        "name", ["p28", "7-cycle+chords", "7-cycle+chord{1,4}", "truncated-simplex 5 2"]
    )
    def test_free_faces_leave_nothing_to_eliminate(self, name, p28, no_elimination):
        # coreductions alone stall on the Taylor strata; with free faces
        # paired too, no piece of these torsion-free inputs needs elimination
        # (the one-chord cycle also needs the queues taken oldest first)
        complex_ = self.complex_named(name, p28)
        for _, cc in [*koszul_pieces(complex_), *taylor_strata(complex_)]:
            cc.boundary_factor_table()


class TestTaylorProduct:
    def test_quadrilateral_disjoint_supports(self):
        quad = polygon(4)
        missing = quad.missing_faces()
        u = taylor_monomial((0,), missing)
        v = taylor_monomial((1,), missing)
        sign, product = taylor_product(u, v, missing)
        assert sign in (1, -1)
        assert product.indices == (0, 1)
        assert product.support == mask_of((1, 2, 3, 4))

    def test_square_is_zero(self):
        missing = polygon(4).missing_faces()
        u = taylor_monomial((0,), missing)
        assert taylor_product(u, u, missing) == (0, None)

    def test_reordering_sign(self):
        missing = polygon(4).missing_faces()
        u = taylor_monomial((0,), missing)
        v = taylor_monomial((1,), missing)
        s1, p1 = taylor_product(u, v, missing)
        s2, p2 = taylor_product(v, u, missing)
        assert p1 == p2 and s1 == -s2

    def test_p28_detects_the_pair_product(self, p28):
        missing = p28.missing_faces()
        i56 = missing.index(mask_of((5, 6)))
        i78 = missing.index(mask_of((7, 8)))
        sign, product = taylor_product(
            taylor_monomial((i56,), missing), taylor_monomial((i78,), missing), missing
        )
        assert sign != 0
        assert product.support == mask_of((5, 6, 7, 8))

    def test_overlapping_supports_vanish(self, p28):
        missing = p28.missing_faces()
        a = taylor_monomial((2,), missing)  # (1, 2, 3)
        b = taylor_monomial((4,), missing)  # (1, 3, 4)
        assert taylor_product(a, b, missing) == (0, None)


class TestCrossCheck:
    def test_single_vertex(self):
        report = cross_check(SimplicialComplex(1, [(1,)]))
        assert report.ok
        assert report.bidegrees == {(0, 0): Z}

    def test_quadrilateral(self):
        assert cross_check(polygon(4)).ok

    def test_p28(self, p28):
        report = cross_check(p28)
        assert report.ok
        assert report.strata_checked == 40

    def test_corpus_sample(self, small_corpus):
        for complex_ in small_corpus:
            assert cross_check(complex_).ok

    def test_disagreement_names_the_first_bad_bidegree(self):
        # feed a table with one corrupted rank through the public parameter
        from moment_angle import bigraded_betti
        from moment_angle.errors import MethodDisagreement

        quad = polygon(4)
        table = bigraded_betti(quad)
        key = (mask_of((1, 3)), 0)
        table.entries[key] = Abelian(2, ())
        with pytest.raises(MethodDisagreement) as info:
            cross_check(quad, table=table)
        assert info.value.bidegree == (1, 2)  # |J| - d - 1 = 1, |J| = 2


class TestTorsionGoldens:
    """Torsion in H*(Z_K) over the 6-vertex RP^2 and two of its joins.

    These are the inputs whose Smith forms keep a non-unit core (the dense
    path of the sparse reduction) and whose Z/2 summands from several full
    subcomplexes are merged into one degree.
    """

    CASES = {
        "RP2": (RP2, {9: Abelian(0, (2,))}, {(3, 6): Abelian(0, (2,))}),
        "RP2 * S0": (
            RP2.join(two_points()),
            {9: Abelian(15, (2,)), 12: Abelian(0, (2,))},
            {(3, 6): Abelian(15, (2,)), (4, 8): Abelian(0, (2,))},
        ),
        "RP2 * square": (
            RP2.join(polygon(4)),
            {9: Abelian(30, (2,)), 12: Abelian(15, (2, 2)), 15: Abelian(0, (2,))},
            {(3, 6): Abelian(30, (2,)), (4, 8): Abelian(15, (2, 2)), (5, 10): Abelian(0, (2,))},
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_torsion_in_all_three_methods(self, name):
        complex_, total_torsion, tor_torsion = self.CASES[name]
        table = bigraded_betti(complex_)
        total = table.total()
        assert {p: g for p, g in total.items() if g.torsion} == total_torsion
        tor = table.tor_bidegrees()
        assert {k: g for k, g in tor.items() if g.torsion} == tor_torsion
        assert cross_check(complex_, table=table).ok
        assert koszul_bigraded(complex_).total() == total
        assert taylor_bigraded(complex_).bidegrees().total() == total

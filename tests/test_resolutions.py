"""Koszul quotient and Taylor complex computations, and their agreement."""

from collections import Counter

import pytest

from moment_angle import (
    Abelian,
    SimplicialComplex,
    bigraded_betti,
    boundary_simplex,
    construct_p28_8,
    cross_check,
    koszul_basis_size,
    koszul_bigraded,
    mask_of,
    polygon,
    random_complexes,
    taylor_bigraded,
    truncated_simplex,
    two_points,
    vertices_of,
)
from moment_angle import resolutions
from moment_angle.errors import CapExceeded, MethodDisagreement, ParameterOutOfRange
from moment_angle.homology import sum_groups
from moment_angle.resolutions import (
    KOSZUL_BASIS_CAP,
    TAYLOR_BASIS_CAP,
    TorTable,
    koszul_pieces,
    lyubeznik_supports,
    taylor_strata,
)
from conftest import oracle_groups
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


NAMED = {
    "p28": construct_p28_8(),
    "RP2": RP2,
    "RP2*S0": RP2.join(two_points()),
    "7-cycle+chords": seven_cycle_with_chords(),
    "7-cycle+chord{1,4}": seven_cycle_with_chords([(1, 4)]),
    "truncated-simplex 5 2": truncated_simplex(5, 2),
}


# a ghost is a vertex in no face, so K_J keeps no face through it
GHOSTED = {
    "ghost 6": SimplicialComplex(
        6, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (1, 5)], allow_ghosts=True
    ),
    "ghost 1": SimplicialComplex(5, [(2, 3), (3, 4), (2, 4), (4, 5)], allow_ghosts=True),
    "no facets": SimplicialComplex(3, [], allow_ghosts=True),
}


def complete_graph_skeleton():
    # the complete graph's flag complex has one missing face per triple
    return SimplicialComplex(8, [(a, b) for a in range(1, 9) for b in range(a + 1, 9)])


def full_taylor_strata(complex_):
    """The full Taylor complex, all 2^r monomials, stratified by support."""
    missing = complex_.missing_faces()
    supports = [0] * (1 << len(missing))
    for mono in range(1, 1 << len(missing)):
        low = mono & -mono
        supports[mono] = supports[mono ^ low] | missing[low.bit_length() - 1]
    return resolutions._strata(dict(enumerate(supports)))


def stratum_groups(strata):
    return {
        (r, support): group
        for support, cc in strata
        for r, group in cc.homology().items()
        if not group.is_zero
    }


def is_admissible(missing, mono):
    """Lyubeznik's condition, read straight off its definition."""
    positions = [i for i in range(len(missing)) if mono >> i & 1]
    for t, i_t in enumerate(positions):
        union = 0
        for i in positions[t:]:
            union |= missing[i]
        if any(missing[q] & ~union == 0 for q in range(i_t)):
            return False
    return True


class TestLyubeznik:
    """Lyubeznik's subcomplex against the full Taylor complex it replaces."""

    SAMPLES = {**NAMED, **{f"random{i}": c for i, c in enumerate(random_complexes(30, seed=5))}}

    @pytest.mark.parametrize("name", SAMPLES)
    def test_admissible_sets_match_the_definition(self, name):
        missing = self.SAMPLES[name].missing_faces()
        supports = lyubeznik_supports(missing)
        assert set(supports) == {
            mono for mono in range(1 << len(missing)) if is_admissible(missing, mono)
        }
        for mono, support in supports.items():
            union = 0
            for i, face in enumerate(missing):
                if mono >> i & 1:
                    union |= face
            assert support == union

    @pytest.mark.parametrize("name", SAMPLES)
    def test_every_stratum_matches_the_full_taylor_complex(self, name):
        complex_ = self.SAMPLES[name]
        assert len(complex_.missing_faces()) <= 14
        expected = stratum_groups(full_taylor_strata(complex_))
        assert taylor_bigraded(complex_).strata == expected
        if name.startswith("RP2"):
            assert any(group.torsion for group in expected.values())

    @pytest.mark.parametrize("name", SAMPLES)
    def test_count_before_enumeration_is_exact(self, name, monkeypatch):
        missing = self.SAMPLES[name].missing_faces()
        size = len(lyubeznik_supports(missing))
        monkeypatch.setattr(resolutions, "TAYLOR_BASIS_CAP", size - 1)
        with pytest.raises(CapExceeded, match=f"has {size} monomials"):
            lyubeznik_supports(missing)
        monkeypatch.setattr(resolutions, "TAYLOR_BASIS_CAP", size)
        assert len(lyubeznik_supports(missing)) == size

    def test_basis_sizes(self, p28):
        assert TAYLOR_BASIS_CAP == 1 << 20
        for complex_, missing, admissible in [
            (p28, 10, 136),
            (complete_graph_skeleton(), 56, 4_324),
            (polygon(12), 54, 182_656),
        ]:
            assert len(complex_.missing_faces()) == missing
            assert len(lyubeznik_supports(complex_.missing_faces())) == admissible

    def test_polygon_14_is_over_the_budget(self):
        tetradecagon = polygon(14)
        assert len(tetradecagon.missing_faces()) == 77
        with pytest.raises(CapExceeded, match=f"77 missing faces .* {TAYLOR_BASIS_CAP}"):
            taylor_bigraded(tetradecagon)

    def test_complete_graph_skeleton_passes_the_cross_check(self):
        assert cross_check(complete_graph_skeleton()).ok

    def test_budget_refuses_before_the_subset_sweep(self, p28, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("subset sweep started")

        monkeypatch.setattr(resolutions, "bigraded_betti", no_sweep)
        monkeypatch.setattr(resolutions, "TAYLOR_BASIS_CAP", 135)
        with pytest.raises(CapExceeded, match="more than 135 monomials"):
            cross_check(p28)
        with pytest.raises(CapExceeded):
            taylor_strata(p28)
        monkeypatch.setattr(resolutions, "TAYLOR_BASIS_CAP", 136)
        assert len(taylor_bigraded(p28).strata) == 40

    @pytest.mark.parametrize("threads", [2, 0, -1])
    def test_bad_thread_count_refused_before_the_taylor_side(self, p28, threads, monkeypatch):
        def no_taylor(*args, **kwargs):
            raise AssertionError("Taylor side started")

        monkeypatch.setattr(resolutions, "taylor_bigraded", no_taylor)
        with pytest.raises(ParameterOutOfRange, match="threads must be 1"):
            cross_check(p28, threads=threads)
        # with a table given no sweep runs, so the count is not read
        monkeypatch.setattr(resolutions, "taylor_bigraded", taylor_bigraded)
        assert cross_check(p28, table=bigraded_betti(p28)).ok


def textbook_koszul_column(complex_, mono):
    """d(u_sigma v_tau) term by term: (-1)^(vertices of sigma below v) u_{sigma-v} v_{tau+v}."""
    m = complex_.m
    sigma, tau = mono & ((1 << m) - 1), mono >> m
    column = {}
    for v in vertices_of(sigma):
        bit = 1 << (v - 1)
        if tau | bit in complex_.face_set():
            below = sum(1 for w in vertices_of(sigma) if w < v)
            column[(sigma - bit) | (tau | bit) << m] = (-1) ** below
    return column


class TestKoszulColumns:
    """The columns built from up-masks against the differential written out."""

    @staticmethod
    def check(complex_):
        m = complex_.m
        full = (1 << m) - 1
        basis = []
        for subset, cc in koszul_pieces(complex_):
            # one monomial u_{J - tau} v_tau per face tau of K_J: degrees
            # ascend in i, faces come in subset_faces_by_dim order
            faces = complex_.subset_faces_by_dim(subset)
            assert list(cc.faces) == sorted(cc.faces) and len(cc.faces) == len(faces)
            for i, monomials in cc.faces.items():
                assert [mono >> m for mono in monomials] == faces[subset.bit_count() - i - 1]
                for mono in monomials:
                    assert (mono & full) | mono >> m == subset
                    assert (mono & full).bit_count() == i
                    assert cc.columns[mono] == textbook_koszul_column(complex_, mono), mono
                basis += monomials
        assert len(basis) == len(set(basis)) == koszul_basis_size(complex_)

    @pytest.mark.parametrize("name", ["p28", "RP2", "truncated-simplex 5 2"])
    def test_named(self, name):
        self.check(NAMED[name])

    def test_corpus_sample(self, small_corpus):
        for complex_ in small_corpus:
            self.check(complex_)


class TestSharedPieces:
    """The walk builds one piece per shape of K_J; each J built alone must agree.

    :func:`koszul_pieces` builds all 2^m pieces, each on its own, through
    the builder the walk uses, so a shape that does not fix the piece
    (the walk trusting ``subset_shape`` blind) shows as a per-J difference.
    """

    @staticmethod
    def check(complex_):
        alone = {
            (i, subset): group
            for subset, cc in koszul_pieces(complex_)
            for i, group in cc.homology().items()
            if not group.is_zero
        }
        assert koszul_bigraded(complex_).multigraded == alone

    @pytest.mark.parametrize("name", NAMED)
    def test_named(self, name):
        complex_ = NAMED[name]
        shapes = {complex_.subset_shape(subset) for subset in range(1 << complex_.m)}
        assert len(shapes) < 1 << complex_.m  # some piece is shared
        self.check(complex_)

    def test_corpus_sample(self, small_corpus):
        for complex_ in small_corpus:
            self.check(complex_)

    @pytest.mark.parametrize("name", GHOSTED)
    def test_ghost_vertices(self, name):
        self.check(GHOSTED[name])


class TestSharedStrata:
    """The Taylor side builds one stratum per shape of K_S; each S built alone must agree.

    :func:`taylor_strata` builds every stratum on its own, so a shape that
    does not fix the stratum (reuse keyed by anything coarser than
    ``subset_shape``) shows as a per-S difference.
    """

    @staticmethod
    def check(complex_):
        assert taylor_bigraded(complex_).strata == stratum_groups(taylor_strata(complex_))

    @staticmethod
    def shapes(complex_):
        supports = set(lyubeznik_supports(complex_.missing_faces()).values())
        return supports, {complex_.subset_shape(support) for support in supports}

    @pytest.mark.parametrize("name", NAMED)
    def test_named(self, name):
        complex_ = NAMED[name]
        supports, shapes = self.shapes(complex_)
        assert len(shapes) < len(supports)  # some stratum is shared
        self.check(complex_)

    def test_corpus_sample(self, small_corpus):
        for complex_ in small_corpus:
            self.check(complex_)

    @pytest.mark.parametrize("name", GHOSTED)
    def test_ghost_vertices(self, name):
        self.check(GHOSTED[name])

    @pytest.mark.parametrize("name", [*NAMED, *GHOSTED])
    def test_one_stratum_built_per_shape(self, name, monkeypatch):
        complex_ = {**NAMED, **GHOSTED}[name]
        built = []
        original = resolutions.ChainComplexZ

        def counting(faces, columns):
            built.append(faces)
            return original(faces, columns)

        monkeypatch.setattr(resolutions, "ChainComplexZ", counting)
        taylor_bigraded(complex_)
        supports, shapes = self.shapes(complex_)
        assert len(built) == len(shapes)
        if name == "p28":
            assert (len(supports), len(shapes)) == (63, 45)


class TestOffLowestStar:
    """The subcomplex :func:`koszul_bigraded` reduces, piece by piece.

    With a the lowest vertex of J, the monomials u_{J - tau} v_tau kept are
    those of the faces tau of K_{J - a} outside the link of a, so their count
    in degree i = |J - tau| is read here off the faces of the full
    subcomplexes, not off the up-masks the filter uses.  They must be closed
    under d and carry the groups of the whole piece.
    """

    @staticmethod
    def check(complex_):
        up = resolutions._up_masks(complex_)
        for subset, cc in koszul_pieces(complex_):
            kept = resolutions._off_lowest_star(cc, up, complex_.m)
            basis = {mono for monomials in kept.faces.values() for mono in monomials}
            for mono in basis:
                assert set(cc.columns[mono]) <= basis, (complex_, subset, mono)
            size = subset.bit_count()
            expected = Counter()
            if subset:
                # relabeled, the lowest vertex a of J is vertex 1 of K_J
                rest = complex_.full_subcomplex(subset ^ subset & -subset).face_set()
                link = [f ^ 1 for f in complex_.full_subcomplex(subset).face_set() if f & 1]
                expected.update(size - f.bit_count() for f in rest)
                expected.subtract(size - f.bit_count() for f in link)
            else:
                expected[0] = 1
            assert {i: len(monomials) for i, monomials in kept.faces.items()} == {
                i: n for i, n in expected.items() if n
            }, (complex_, subset)
            nonzero = {i: g for i, g in cc.homology().items() if not g.is_zero}
            assert {i: g for i, g in kept.homology().items() if not g.is_zero} == nonzero

    @pytest.mark.parametrize("name", NAMED)
    def test_named(self, name):
        self.check(NAMED[name])

    def test_corpus_sample(self, small_corpus):
        for complex_ in small_corpus:
            self.check(complex_)

    @pytest.mark.parametrize("name", GHOSTED)
    def test_ghost_vertices(self, name):
        self.check(GHOSTED[name])


class TestPieceOracle:
    """The coreduction pass against the per-degree reduction, piece by piece.

    All three methods read their groups through the same pass, so their
    agreement cannot see a fault in it; the oracle reduces each boundary
    matrix on its own from the local-index entries (``oracle_groups``).
    """

    @staticmethod
    def check(pieces):
        count = 0
        for _, cc in pieces:
            assert (cc.homology(), cc.cohomology()) == oracle_groups(cc)
            count += 1
        assert count

    @pytest.mark.parametrize("name", NAMED)
    def test_koszul_pieces_and_taylor_strata(self, name):
        complex_ = NAMED[name]
        self.check(koszul_pieces(complex_))
        self.check(taylor_strata(complex_))

    @pytest.mark.parametrize(
        "name", ["p28", "7-cycle+chords", "7-cycle+chord{1,4}", "truncated-simplex 5 2"]
    )
    def test_free_faces_leave_nothing_to_eliminate(self, name, no_elimination):
        # coreductions alone stall on the Taylor strata; with free faces
        # paired too, no piece of these torsion-free inputs needs elimination
        # (the one-chord cycle also needs the queues taken oldest first).
        # The one-chord cycle is checked on the full Taylor complex: one of
        # its Lyubeznik strata is a square with no free face.
        complex_ = NAMED[name]
        strata = full_taylor_strata if name == "7-cycle+chord{1,4}" else taylor_strata
        for _, cc in [*koszul_pieces(complex_), *strata(complex_)]:
            cc.homology()
        koszul_bigraded(complex_)  # the shared pieces, one sum per |J|


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

    @pytest.mark.parametrize("name", ["p28", "RP2", "7-cycle+chords"])
    def test_groups_swapped_between_two_j_of_one_size_fail(self, name, monkeypatch):
        complex_ = NAMED[name]
        table = koszul_bigraded(complex_)
        by_subset = {}
        for (i, subset), group in table.multigraded.items():
            by_subset.setdefault(subset, {})[i] = group
        a = next(subset for subset in by_subset if subset)
        b = next(
            subset
            for subset in range(1 << complex_.m)
            if subset.bit_count() == a.bit_count() and by_subset.get(subset) != by_subset[a]
        )
        swapped = {(i, s): g for (i, s), g in table.multigraded.items() if s not in (a, b)}
        swapped.update({(i, b): g for i, g in by_subset[a].items()})
        swapped.update({(i, a): g for i, g in by_subset.get(b, {}).items()})
        # the bidegree comparison cannot see the swap
        assert sum_groups(((i, s.bit_count()), g) for (i, s), g in swapped.items()) == table.entries
        mutant = TorTable(entries=table.entries, multigraded=swapped)
        monkeypatch.setattr(resolutions, "koszul_bigraded", lambda _complex: mutant)
        with pytest.raises(MethodDisagreement, match="koszul piece"):
            cross_check(complex_)

    def test_a_dropped_group_fails(self, monkeypatch):
        # the bidegrees are kept and every group left is right, so only the
        # subset-to-Koszul direction of the comparison sees the loss
        complex_ = polygon(5)
        table = koszul_bigraded(complex_)
        multigraded = dict(table.multigraded)
        del multigraded[(1, mask_of((1, 3)))]
        mutant = TorTable(entries=table.entries, multigraded=multigraded)
        monkeypatch.setattr(resolutions, "koszul_bigraded", lambda _complex: mutant)
        with pytest.raises(MethodDisagreement, match="subset has Z, koszul piece empty"):
            cross_check(complex_)

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

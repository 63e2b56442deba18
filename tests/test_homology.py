"""Reduced (co)homology, cocycle bases, and the sphere candidate checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle import (
    EMPTY,
    Abelian,
    ChainComplexZ,
    SimplicialComplex,
    boundary_simplex,
    construct_p28_8,
    cross_polytope,
    mask_of,
    polygon,
    pseudo_sphere_check,
    random_complexes,
    reduced_cohomology,
    reduced_cohomology_basis,
    reduced_homology,
    truncated_simplex,
    two_points,
)
from moment_angle import homology
from moment_angle.errors import NotACocycle, NotPure
from moment_angle.homology import CohomologyBasis, merge_torsion
from moment_angle.resolutions import koszul_bigraded, koszul_pieces, taylor_strata
from moment_angle.snf import invariant_factors_sparse

Z = Abelian(1, ())

# the three shapes a noncontractible 4-vertex full subcomplex can take:
# two missing edges, two overlapping missing triangles, or one of each
FIGURE_COMPLEXES = {
    "two-missing-edges": SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "two-missing-triangles": SimplicialComplex(4, [(1, 2, 4), (1, 3, 4), (2, 3)]),
    "mixed": SimplicialComplex(4, [(2, 3, 4), (1, 3), (1, 4)]),
}

RP2 = SimplicialComplex(
    6,
    [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
     (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)],
)

P28 = construct_p28_8()

TWO_SPHERES = SimplicialComplex(
    8,
    [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
     (5, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)],
)


def nonzero(groups):
    return {d: g for d, g in groups.items() if not g.is_zero}


class TestReducedHomology:
    def test_empty_complex(self):
        assert nonzero(reduced_homology(EMPTY)) == {-1: Z}

    def test_circle_shapes(self):
        for name, complex_ in FIGURE_COMPLEXES.items():
            assert nonzero(reduced_homology(complex_)) == {1: Z}, name

    def test_p28_is_a_homology_three_sphere(self, p28):
        assert nonzero(reduced_homology(p28)) == {3: Z}

    def test_spheres(self):
        for k in range(1, 6):
            assert nonzero(reduced_homology(boundary_simplex(k))) == {k - 1: Z}

    def test_cone_is_acyclic(self):
        cone = polygon(5).cone(6)
        assert nonzero(reduced_homology(cone)) == {}

    def test_projective_plane_torsion(self):
        assert nonzero(reduced_homology(RP2)) == {1: Abelian(0, (2,))}
        assert nonzero(reduced_cohomology(RP2)) == {2: Abelian(0, (2,))}

    def test_universal_coefficients_shift(self):
        hom = reduced_homology(RP2)
        coh = reduced_cohomology(RP2)
        for d in hom:
            assert coh[d].rank == hom[d].rank
            assert coh[d].torsion == hom.get(d - 1, Abelian(0, ())).torsion


class TestBasedFreeComplex:
    """A complex that is not simplicial: degrees 0 and 1, d(b) = 2a, d(c) = 4a."""

    @staticmethod
    def complex_(b_to_a, c_to_a):
        return ChainComplexZ({0: [1], 1: [2, 4]}, {1: {}, 2: {1: b_to_a}, 4: {1: c_to_a}})

    def test_single_target_factor_is_the_gcd(self):
        assert self.complex_(2, 4).boundary_factor_table() == {0: [], 1: [2], 2: []}
        assert self.complex_(6, -9).boundary_factor_table()[1] == [3]
        assert self.complex_(0, 0).boundary_factor_table()[1] == []

    def test_torsion_of_cohomology_sits_one_degree_up(self):
        cc = self.complex_(2, 4)
        assert cc.homology() == {0: Abelian(0, (2,)), 1: Z}
        assert cc.cohomology() == {0: Abelian(0, ()), 1: Abelian(1, (2,))}

    # Degrees -1..1 like an augmented graph, but not simplicial: neither the
    # graph closed form nor dropping a vertex with an empty boundary holds.

    def test_doubled_edge_leaves_z_mod_2(self):
        # d(a) = d(b) = n, d(e) = 2a - 2b: H_0 = Z/2, not Z or 0
        cc = ChainComplexZ({-1: [1], 0: [2, 4], 1: [8]}, {1: {}, 2: {1: 1}, 4: {1: 1}, 8: {2: 2, 4: -2}})
        assert cc.boundary_factor_table() == {-1: [], 0: [1], 1: [2], 2: []}
        assert cc.homology() == {-1: Abelian(0, ()), 0: Abelian(0, (2,)), 1: Abelian(0, ())}

    def test_unit_column_with_a_non_unit_partner(self):
        # d(a) = d(b) = 0, d(f) = a, d(e) = a + 2b: once f pairs with a, the
        # column of e is 2b, which must not pair; H_0 = Z/2, H_-1 = Z
        cc = ChainComplexZ(
            {-1: [1], 0: [2, 4], 1: [8, 16]},
            {1: {}, 2: {}, 4: {}, 8: {2: 1, 4: 2}, 16: {2: 1}},
        )
        assert cc.boundary_factor_table() == {-1: [], 0: [], 1: [1, 2], 2: []}
        assert cc.homology() == {-1: Z, 0: Abelian(0, (2,)), 1: Abelian(0, ())}

    def test_free_face_beside_a_non_unit_entry(self):
        # d(a) = d(b) = 0, d(e) = a + 2b, d(g) = 3b: no column is a single
        # unit, but a is a free face of e; after that pair b is left with
        # the one coface g on 3, which must not pair; H_0 = Z/3
        cc = ChainComplexZ({0: [1, 2], 1: [4, 8]}, {1: {}, 2: {}, 4: {1: 1, 2: 2}, 8: {2: 3}})
        assert cc.boundary_factor_table() == {0: [], 1: [1, 3], 2: []}
        assert cc.homology() == {0: Abelian(0, (3,)), 1: Abelian(0, ())}


class TestSummandHomology:
    """One pass over a direct sum against each summand reduced alone."""

    SUMMANDS = [RP2, polygon(5), boundary_simplex(3), two_points(), polygon(4).cone(5), EMPTY]

    def direct_sum(self) -> ChainComplexZ:
        # summand k holds the faces of complex k as keys (k, face); not
        # simplicial, so the pass neither drops vertices nor uses graph forms
        faces: dict = {}
        columns = {}
        for k, complex_ in enumerate(self.SUMMANDS):
            table = complex_.boundary_table()
            for d, fs in complex_.faces_by_dim().items():
                faces.setdefault(d, []).extend((k, f) for f in fs)
                for f in fs:
                    columns[(k, f)] = {(k, g): c for g, c in table[f].items()}
        return ChainComplexZ(faces, columns)

    def test_each_summand_keeps_its_groups(self):
        groups = self.direct_sum().summand_homology(lambda key: key[0])
        expected = {
            k: nonzero(ChainComplexZ.of_complex(complex_).homology())
            for k, complex_ in enumerate(self.SUMMANDS)
        }
        assert groups == {k: g for k, g in expected.items() if g}
        assert groups[0] == {1: Abelian(0, (2,))}  # RP2's survivors go on to elimination

    def test_survivors_are_read_in_place(self, monkeypatch):
        # one reduction pass over the sum, and no second complex of survivors
        cc = self.direct_sum()
        passes = []
        built = []
        reduction_pass = ChainComplexZ._reduction_pass
        init = ChainComplexZ.__init__

        def counting_pass(self):
            passes.append(self)
            return reduction_pass(self)

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(ChainComplexZ, "_reduction_pass", counting_pass)
        monkeypatch.setattr(ChainComplexZ, "__init__", counting_init)
        groups = cc.summand_homology(lambda key: key[0])
        assert (passes, built) == ([cc], [])
        assert groups[0] == {1: Abelian(0, (2,))}


class TestCoreduction:
    """Shortcuts of the coreduction pass that only simplicial complexes take."""

    def test_disjoint_spheres_need_no_elimination(self, no_elimination):
        # one critical vertex per further component lets the pass run on
        # through it, so nothing is left for the per-degree elimination
        cc = ChainComplexZ.of_complex(TWO_SPHERES)
        assert nonzero(cc.homology()) == {0: Z, 2: Abelian(2, ())}

    def test_graphs_use_the_closed_form(self, no_elimination):
        cc = ChainComplexZ.of_complex(polygon(5).join(two_points()).full_subcomplex((1, 3, 6, 7)))
        assert cc.boundary_factor_table() == {-1: [], 0: [1], 1: [1, 1, 1], 2: []}
        assert nonzero(cc.homology()) == {1: Z}


class TestLeftoverCores:
    """What the reduction pass leaves has no fill-free pivot.

    Coreductions take every +-1 entry alone in its row, free faces every one
    alone in its column, so the per-degree elimination gets only cores that
    the dense Smith loop has to work on.
    """

    def test_no_unit_alone_in_its_row_or_column(self, monkeypatch):
        leftovers = []

        def record(entries):
            leftovers.append(entries)
            return invariant_factors_sparse(entries)

        monkeypatch.setattr(homology, "invariant_factors_sparse", record)
        for complex_ in [RP2, RP2.join(two_points()), *random_complexes(100, max_missing=10)]:
            for subset in range(1 << complex_.m):
                ChainComplexZ.of_subset(complex_, subset).boundary_factor_table()
            for pieces in (koszul_pieces(complex_), taylor_strata(complex_)):
                for _, cc in pieces:
                    cc.boundary_factor_table()
            koszul_bigraded(complex_)  # the shared pieces, one sum per |J|
        assert leftovers
        for entries in leftovers:
            column_sizes = {}
            for row in entries.values():
                for c in row:
                    column_sizes[c] = column_sizes.get(c, 0) + 1
            assert not any(
                v in (1, -1) and (len(row) == 1 or column_sizes[c] == 1)
                for row in entries.values()
                for c, v in row.items()
            ), entries


class TestSubsetAssembly:
    """Subset chain complexes read the whole complex's boundary table.

    Two oracles for every full subcomplex K_J: the factors taken from the
    table against a fresh reduction of the local-index boundary matrices
    (which carry no shortcut for the augmentation), and the cohomology
    against the relabelled full subcomplex, torsion included.
    """

    @staticmethod
    def check_every_subset(complex_):
        for subset in range(1 << complex_.m):
            cc = ChainComplexZ.of_subset(complex_, subset)
            expected = {
                d: invariant_factors_sparse(cc.boundary_entries(d))
                for d in range(-1, cc.top + 2)
            }
            assert cc.boundary_factor_table() == expected, subset
            relabelled = reduced_cohomology(complex_.full_subcomplex(subset))
            assert cc.cohomology() == relabelled, subset

    def test_p28(self, p28):
        self.check_every_subset(p28)

    def test_projective_plane_and_its_suspension(self):
        # Z/2 torsion in H~^2 of RP^2 and in the full subcomplexes of its join
        self.check_every_subset(RP2)
        self.check_every_subset(RP2.join(two_points()))

    @pytest.mark.parametrize("m", range(4, 9))
    def test_polygons(self, m):
        self.check_every_subset(polygon(m))

    def test_spheres_on_eight_to_ten_vertices(self):
        # full subcomplexes of dimension 2 to 4: two disjoint 2-spheres (one
        # critical vertex), the 4-dimensional cross-polytope boundary on 10
        # vertices, and stacked 2- and 3-spheres on 9
        for complex_ in [TWO_SPHERES, cross_polytope(4), truncated_simplex(3, 5), truncated_simplex(4, 4)]:
            self.check_every_subset(complex_)

    def test_random_complexes(self):
        for complex_ in random_complexes(20, seed=5):
            self.check_every_subset(complex_)


def prime_power_chain(orders) -> tuple:
    """Invariant factors by prime factorisation: the largest exponents pair up."""
    by_prime: dict = {}
    for n in orders:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                by_prime.setdefault(p, []).append(e)
            p += 1
    depth = max((len(es) for es in by_prime.values()), default=0)
    factors = [1] * depth
    for p, es in by_prime.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[i] *= p**e
    return tuple(reversed(factors))


class TestMergeTorsion:
    @given(st.lists(st.lists(st.integers(2, 400), max_size=3), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_prime_power_construction(self, torsion_lists):
        merged = merge_torsion(torsion_lists)
        assert merged == prime_power_chain([t for ts in torsion_lists for t in ts])
        assert all(b % a == 0 for a, b in zip(merged, merged[1:]))

    def test_coprime_merge(self):
        assert merge_torsion([(2,), (3,)]) == (6,)

    def test_same_prime_stays_split(self):
        assert merge_torsion([(2,), (2,)]) == (2, 2)

    def test_chain_order(self):
        assert merge_torsion([(2,), (4,), (3,)]) == (2, 12)

    def test_empty(self):
        assert merge_torsion([]) == ()


class TestCohomologyBasis:
    def test_two_points_degree_zero(self):
        basis = reduced_cohomology_basis(two_points())
        assert basis.group(0) == Z
        reps = basis.representatives(0)
        assert len(reps) == 1
        # a generator evaluates to +-1 against the difference of the points
        pairing = reps[0][0] - reps[0][1]
        assert abs(pairing) == 1
        # normalization: first nonzero coordinate positive
        first = next(x for x in reps[0] if x)
        assert first > 0

    def test_quadrilateral_degree_one(self):
        quad = polygon(4)
        basis = reduced_cohomology_basis(quad)
        assert basis.group(1) == Z
        rep = basis.representatives(1)[0]
        assert sum(1 for x in rep if x) == 1 and abs(next(x for x in rep if x)) == 1

    def test_sphere_top_degree(self):
        for n in range(1, 5):
            basis = reduced_cohomology_basis(boundary_simplex(n + 1))
            assert basis.group(n) == Z
            assert len(basis.representatives(n)) == 1

    def test_express_basis_vector_is_unit(self):
        basis = reduced_cohomology_basis(polygon(4))
        rep = basis.representatives(1)[0]
        assert basis.express(rep, 1).free == (1,)

    def test_express_coboundary_is_zero(self):
        quad = polygon(4)
        basis = reduced_cohomology_basis(quad)
        delta = basis.cc.coboundary_matrix(0)
        for col in range(4):
            cob = [row[col] for row in delta]
            expr = basis.express(cob, 1)
            assert expr.is_zero

    def test_adjacent_edge_sum_is_twice_a_generator(self):
        # pairing against the fundamental cycle forces the coefficient 2
        quad = polygon(4)
        basis = reduced_cohomology_basis(quad)
        faces = basis.faces(1)
        vec = [0] * len(faces)
        vec[faces.index(mask_of((1, 2)))] = 1
        vec[faces.index(mask_of((2, 3)))] = 1
        assert basis.express(vec, 1).free in ((2,), (-2,))

    def test_single_edge_duals_are_cohomologous(self):
        quad = polygon(4)
        basis = reduced_cohomology_basis(quad)
        faces = basis.faces(1)
        coords = set()
        for edge in [(1, 2), (2, 3), (3, 4)]:
            vec = [0] * len(faces)
            vec[faces.index(mask_of(edge))] = 1
            coords.add(abs(basis.express(vec, 1).free[0]))
        assert coords == {1}

    def test_not_a_cocycle(self):
        basis = reduced_cohomology_basis(polygon(4))
        with pytest.raises(NotACocycle):
            basis.express([1, 0, 0, 0], 0)

    def test_torsion_expression(self):
        # any single top face dual generates H^2 = Z/2: it evaluates to 1
        # against the mod-2 fundamental cycle
        basis = reduced_cohomology_basis(RP2)
        assert basis.group(2) == Abelian(0, (2,))
        faces = basis.faces(2)
        for index in range(len(faces)):
            vec = [0] * len(faces)
            vec[index] = 1
            expr = basis.express(vec, 2)
            assert expr.free == ()
            assert expr.torsion == (1,)

    def test_mixed_free_and_torsion_in_one_degree(self):
        # disjoint union of the projective plane and a 2-sphere:
        # reduced H^2 = Z + Z/2 inside a single degree
        union = SimplicialComplex(
            10,
            [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
             (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
             (7, 8, 9), (7, 8, 10), (7, 9, 10), (8, 9, 10)],
        )
        basis = reduced_cohomology_basis(union)
        assert basis.group(2) == Abelian(1, (2,))
        faces = basis.faces(2)
        projective = [0] * len(faces)
        projective[faces.index(mask_of((1, 2, 5)))] = 1
        sphere = [0] * len(faces)
        sphere[faces.index(mask_of((7, 8, 9)))] = 1
        expr_p = basis.express(projective, 2)
        expr_s = basis.express(sphere, 2)
        assert expr_p.free == (0,) and expr_p.torsion == (1,)
        assert abs(expr_s.free[0]) == 1 and expr_s.torsion == (0,)
        # linearity, and torsion arithmetic modulo 2
        combined = [a + b for a, b in zip(projective, sphere)]
        expr_c = basis.express(combined, 2)
        assert expr_c.free == expr_s.free and expr_c.torsion == (1,)
        doubled = [2 * a for a in projective]
        assert basis.express(doubled, 2).is_zero


class TestOneSidedForms:
    """Degree bases from one-sided Smith forms equal those from full tracking."""

    @pytest.mark.parametrize("which", ["small_corpus", "p28", "ts35", "rp2"])
    def test_every_degree_basis_matches_full_tracking(self, which, request, monkeypatch):
        if which == "small_corpus":
            complexes = request.getfixturevalue("small_corpus")
        else:
            complexes = [{"p28": P28, "ts35": truncated_simplex(3, 5), "rp2": RP2}[which]]
        original = homology.smith_normal_form

        def fully_tracked(m, rows=None, cols=None, *, track="uv"):
            return original(m, rows=rows, cols=cols)

        one_sided, full, torsion_seen = [], [], False
        for complex_ in complexes:
            shapes = {}  # one full subcomplex per shape, as a presentation keeps
            for subset in range(1 << complex_.m):
                shapes.setdefault(complex_.subset_shape(subset), subset)
            for subset in shapes.values():
                cc = ChainComplexZ.of_subset(complex_, subset)
                for d in range(-1, cc.top + 1):
                    one_sided.append(vars(homology._DegreeBasis(cc, d)))
                    with monkeypatch.context() as patch:
                        patch.setattr(homology, "smith_normal_form", fully_tracked)
                        full.append(vars(homology._DegreeBasis(cc, d)))
                    torsion_seen |= bool(one_sided[-1]["_torsion_rows"])
        assert one_sided == full
        assert torsion_seen == (which == "rp2")


@st.composite
def subcomplex_bases(draw):
    """The cocycle basis of a full subcomplex of p28 or RP^2, often the whole."""
    complex_ = draw(st.sampled_from([P28, RP2]))
    full = (1 << complex_.m) - 1
    subset = draw(st.integers(1, full) | st.just(full))
    return CohomologyBasis(ChainComplexZ.of_subset(complex_, subset))


def integers(data, n):
    return data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))


def drawn_cocycle(data, basis, d):
    """A cocycle with the coordinates ``express`` must give it.

    It is an integer combination of the free representatives plus a
    coboundary and, in the top degree (where every cochain is a cocycle), a
    multiple of the first face's dual, whose coordinates are read once and
    scaled: free ones exactly, torsion ones modulo the orders.
    """
    cc = basis.cc
    n = cc.n_faces(d)
    reps = basis.representatives(d)
    coeffs = integers(data, len(reps))
    vec = [sum(c * rep[k] for c, rep in zip(coeffs, reps)) for k in range(n)]
    lower = integers(data, cc.n_faces(d - 1))
    for k, row in enumerate(cc.coboundary_matrix(d - 1)):
        vec[k] += sum(a * b for a, b in zip(row, lower))
    orders = basis.group(d).torsion
    free, torsion = coeffs, [0] * len(orders)
    if d == cc.top:
        dual = [1] + [0] * (n - 1)
        expr = basis.express(dual, d)
        scale = data.draw(st.integers(-4, 4))
        vec = [x + scale * y for x, y in zip(vec, dual)]
        free = [c + scale * f for c, f in zip(coeffs, expr.free)]
        torsion = [scale * t for t in expr.torsion]
    return vec, tuple(free), tuple(t % s for t, s in zip(torsion, orders))


class TestExpressProperty:
    """``express`` inverts the basis exactly on random cocycles."""

    @given(subcomplex_bases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_combination_plus_coboundary(self, basis, data):
        d = data.draw(st.integers(basis.cc.bottom, basis.cc.top))
        vec, free, torsion = drawn_cocycle(data, basis, d)
        assert basis.express(vec, d) == (free, torsion)

    @pytest.mark.parametrize("complex_", [P28, RP2], ids=["p28", "rp2"])
    def test_representatives_express_as_unit_vectors(self, complex_):
        # every full subcomplex: some representatives were negated to make
        # their first entry positive, and their coordinate must say +1
        for subset in range(1, 1 << complex_.m):
            basis = CohomologyBasis(ChainComplexZ.of_subset(complex_, subset))
            for d in range(basis.cc.bottom, basis.cc.top + 1):
                reps = basis.representatives(d)
                for i, rep in enumerate(reps):
                    unit = tuple(int(j == i) for j in range(len(reps)))
                    assert basis.express(rep, d).free == unit

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_torsion_residue_is_the_coefficient_sum(self, data):
        # H^2(RP^2) = Z/2 is detected by the mod-2 fundamental cycle
        basis = CohomologyBasis.of_complex(RP2)
        vec = integers(data, basis.cc.n_faces(2))
        assert basis.express(vec, 2) == ((), (sum(vec) % 2,))

    @given(subcomplex_bases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_adding_a_non_cocycle_raises(self, basis, data):
        # below the top degree some face has a coface, so its dual has a
        # nonzero coboundary
        cc = basis.cc
        d = data.draw(st.integers(cc.bottom, cc.top - 1))
        delta = cc.coboundary_matrix(d)
        k = data.draw(st.sampled_from([k for k in range(cc.n_faces(d)) if any(row[k] for row in delta)]))
        c = data.draw(st.integers(1, 4) | st.integers(-4, -1))
        single = [0] * cc.n_faces(d)
        single[k] = c
        with pytest.raises(NotACocycle):
            basis.express(single, d)
        vec, _, _ = drawn_cocycle(data, basis, d)
        vec[k] += c
        with pytest.raises(NotACocycle):
            basis.express(vec, d)


class TestSphereCheck:
    def test_p28_passes(self, p28):
        check = pseudo_sphere_check(p28)
        assert check.passed
        assert check.euler_characteristic == 0
        assert check.dim == 3

    def test_boundary_simplices_pass(self):
        for k in range(1, 8):
            assert pseudo_sphere_check(boundary_simplex(k)).passed

    def test_solid_simplex_fails(self):
        solid = SimplicialComplex(4, [(1, 2, 3, 4)])
        check = pseudo_sphere_check(solid)
        assert not check.passed
        assert not check.ridge_degrees_ok

    def test_mixed_dimensions_not_pure(self):
        with pytest.raises(NotPure):
            pseudo_sphere_check(SimplicialComplex(4, [(1, 2, 3), (3, 4)]))

    def test_projective_plane_fails_on_homology(self):
        check = pseudo_sphere_check(RP2)
        assert check.ridge_degrees_ok
        assert not check.homology_ok
        assert not check.passed

    def test_stellar_subdivision_preserves_verdict(self):
        for k, l in [(2, 2), (3, 1), (3, 2), (4, 1)]:
            assert pseudo_sphere_check(truncated_simplex(k, l)).passed
        # and a failing verdict stays failing: subdividing the projective
        # plane keeps its homotopy type
        subdivided = RP2.stellar_subdivide_facet((1, 2, 5), 7)
        assert not pseudo_sphere_check(subdivided).passed
        assert not pseudo_sphere_check(subdivided).homology_ok

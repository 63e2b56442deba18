"""Structural invariants over the seeded corpus; zero tolerated failures."""

import random
from itertools import combinations

import pytest

from moment_angle import (
    Abelian,
    ChainComplexZ,
    HochsterClass,
    SimplicialComplex,
    bigraded_betti,
    boundary_simplex,
    cross_polytope,
    polygon,
    pseudo_sphere_check,
    reduced_cohomology,
    reduced_homology,
    star_product,
    truncated_simplex,
    two_points,
    zk_betti,
)
from moment_angle import hochster
from moment_angle.bitsets import iter_vertices, shuffle_sign
from moment_angle.hochster import (
    _cone_witness,
    _covered_by_missing,
    _isolated_missing_face,
    _missing_by_top,
    _missing_through,
    _missing_union,
    _subset_cohomology as subset_cohomology,
    _subsets,
    _vertex_links,
)
from moment_angle.homology import CohomologyBasis
from moment_angle.ring import _check_cocycle
from moment_angle.snf import matmul
from test_homology import P28, RP2

ZERO = Abelian(0, ())


def boundary_matrix(cc, d):
    """Dense boundary matrix of C_d -> C_{d-1}, rows indexed by degree d - 1."""
    mat = [[0] * cc.n_faces(d) for _ in range(cc.n_faces(d - 1))]
    for i, row in cc.boundary_entries(d).items():
        for j, v in row.items():
            mat[i][j] = v
    return mat


def boundary_composes_to_zero(complex_):
    cc = ChainComplexZ.of_complex(complex_)
    for d in range(0, cc.top + 1):
        upper = boundary_matrix(cc, d + 1)
        lower = boundary_matrix(cc, d)
        if upper and lower:
            product = matmul(lower, upper)
            assert all(all(x == 0 for x in row) for row in product)


def sample_classes(complex_, table, limit=6):
    """A few explicit cocycle classes from distinct blocks."""
    out = []
    for (subset, d), group in table.entries.items():
        if group.rank == 0 or d < 0:
            continue
        cc = ChainComplexZ.of_subset(complex_, subset)
        basis = CohomologyBasis(cc)
        faces = cc.faces.get(d, [])
        rep = basis.representatives(d)[0]
        out.append(HochsterClass(subset, d, {f: c for f, c in zip(faces, rep) if c}))
        if len(out) >= limit:
            break
    return out


class TestChainComplexes:
    def test_boundary_squares_to_zero_on_corpus(self, small_corpus):
        for complex_ in small_corpus:
            boundary_composes_to_zero(complex_)

    def test_universal_coefficients_on_corpus(self, small_corpus):
        for complex_ in small_corpus:
            hom = reduced_homology(complex_)
            coh = reduced_cohomology(complex_)
            for d in hom:
                assert coh[d].rank == hom[d].rank
                assert coh[d].torsion == hom.get(d - 1, ZERO).torsion

    def test_cone_acyclicity_on_corpus(self, small_corpus):
        for complex_ in small_corpus:
            cone = complex_.cone(complex_.m + 1)
            groups = reduced_homology(cone)
            assert all(g.is_zero for g in groups.values()), complex_


# a 4-cycle with the chord {1, 3}, a pendant edge {1, 5} and the ghost vertex 6
GHOST = SimplicialComplex(6, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (1, 5)], allow_ghosts=True)


def nonzero_cohomology(complex_):
    """subset -> {d: nonzero H~^d(K_J)} by a chain complex of its own, memoised."""
    groups = {}

    def cohomology(subset):
        if subset not in groups:
            found = ChainComplexZ.of_subset(complex_, subset).cohomology()
            groups[subset] = {d: g for d, g in found.items() if not g.is_zero}
        return groups[subset]

    return cohomology


class TestPruning:
    def test_uncovered_subsets_are_contractible(self, small_corpus):
        # soundness of the missing-face cover shortcut, subset by subset;
        # increasing order also meets J - h before J, as the recurrence needs
        for complex_ in small_corpus[:12]:
            by_top = _missing_by_top(complex_.missing_faces(), complex_.m)
            unions = [0] * (1 << complex_.m)
            for subset in range(1 << complex_.m):
                if not _covered_by_missing(subset, unions, by_top):
                    cc = ChainComplexZ.of_subset(complex_, subset)
                    assert all(g.is_zero for g in cc.cohomology().values())

    def test_cover_recurrence_matches_direct_scan(self, small_corpus, p28):
        # the sweep's walk in table order: every verdict and every union
        # equals a direct scan over all missing faces
        for complex_ in [*small_corpus, p28, truncated_simplex(3, 5), GHOST]:
            missing = complex_.missing_faces()
            by_top = _missing_by_top(missing, complex_.m)
            unions = [0] * (1 << complex_.m)
            visited = 0
            for subset in _subsets(complex_.m):
                visited += 1
                union = _missing_union(subset, missing)
                assert _covered_by_missing(subset, unions, by_top) == (union == subset), (complex_, subset)
                assert unions[subset] == union, (complex_, subset)
            assert visited == 1 << complex_.m

    @staticmethod
    def cone_link_inputs(small_corpus, p28):
        return [*small_corpus[:12], RP2, p28, truncated_simplex(3, 5), GHOST]

    @staticmethod
    def cone_link(links, subset, v):
        """Is v's link in K_J a nonempty cone?  The direct test, one vertex."""
        nbrs, link_missing = links[1 << (v - 1)]
        return bool(nbrs & subset) and _missing_union(nbrs & subset, link_missing) != nbrs & subset

    def test_cone_links_keep_the_groups(self, small_corpus, p28):
        # soundness of the strong-collapse shortcut, subset by subset and
        # for every vertex it accepts, not only the one the sweep takes
        assert GHOST.ghost_vertices() == (6,)
        accepted = 0
        for complex_ in self.cone_link_inputs(small_corpus, p28):
            links = _vertex_links(complex_)
            cohomology = nonzero_cohomology(complex_)
            for subset in range(1 << complex_.m):
                for v in iter_vertices(subset):
                    if self.cone_link(links, subset, v):
                        accepted += 1
                        assert cohomology(subset) == cohomology(subset ^ (1 << (v - 1))), (complex_, subset, v)
        assert accepted > 1000

    def test_inherited_witnesses_pass_the_cone_test(self, small_corpus, p28):
        # the sweep's walk in table order: a cone vertex v of J - h, h the
        # highest vertex of J and no neighbour of v, is one of J as well
        inherited = scanned = 0
        for complex_ in self.cone_link_inputs(small_corpus, p28):
            links = _vertex_links(complex_)
            cohomology = nonzero_cohomology(complex_)
            by_top = _missing_by_top(complex_.missing_faces(), complex_.m)
            unions = [0] * (1 << complex_.m)
            witnesses = {}
            for subset in _subsets(complex_.m):
                if not _covered_by_missing(subset, unions, by_top):
                    continue
                high = 1 << subset.bit_length() >> 1
                witness = witnesses.get(subset ^ high, 0)
                if witness and not links[1 << (witness - 1)][0] & high:
                    inherited += 1
                    assert self.cone_link(links, subset, witness), (complex_, subset, witness)
                    assert cohomology(subset) == cohomology(subset ^ 1 << (witness - 1))
                else:
                    scanned += 1
                    witness = _cone_witness(subset, links)
                    accepting = [v for v in iter_vertices(subset) if self.cone_link(links, subset, v)]
                    edged = any(links[1 << (v - 1)][0] & subset for v in iter_vertices(subset))
                    assert witness == (accepting[0] if accepting else 0 if edged else -1), (complex_, subset)
                if witness > 0:
                    witnesses[subset] = witness
        assert inherited > 100 and scanned > 100

    def test_edgeless_subsets_are_points(self, small_corpus, p28):
        # the closed form: |J| >= 2 vertices of K and no edge among them is
        # |J| points, H~^0 = Z^(|J| - 1) and nothing else
        settled = 0
        for complex_ in self.cone_link_inputs(small_corpus, p28):
            links = _vertex_links(complex_)
            ghosts = ~complex_.vertex_support()
            for subset in range(1 << complex_.m):
                if subset.bit_count() < 2 or subset & ghosts or _cone_witness(subset, links) != -1:
                    continue
                assert not any(edge & ~subset == 0 for edge in complex_.faces(1)), (complex_, subset)
                settled += 1
                groups = ChainComplexZ.of_subset(complex_, subset).cohomology()
                assert {d: g for d, g in groups.items() if not g.is_zero} == {
                    0: Abelian(subset.bit_count() - 1, ())
                }, (complex_, subset)
        assert settled > 50

    def test_ghost_vertices_are_not_points(self):
        # a ghost vertex lies in no face: counted as a point it would add a
        # generator to H~^0, so the sweep gives such a J a chain complex
        links = _vertex_links(GHOST)
        cohomology = nonzero_cohomology(GHOST)
        wrong = [
            subset
            for subset in range(1 << GHOST.m)
            if subset & 1 << 5 and subset.bit_count() > 1 and _cone_witness(subset, links) == -1
            and cohomology(subset) != {0: Abelian(subset.bit_count() - 1, ())}
        ]
        assert wrong  # vertex 6 with two or more points, never Z^(|J| - 1)
        table = bigraded_betti(GHOST)
        assert all(table.group(s, 0) == Abelian(s.bit_count() - 2, ()) for s in wrong)

    def test_sweep_builds_no_chain_complex_for_points(self, small_corpus, p28, monkeypatch):
        built = []

        def recording(complex_, subset):
            built.append((complex_, subset))
            return subset_cohomology(complex_, subset)

        monkeypatch.setattr(hochster, "_subset_cohomology", recording)
        for complex_ in [*self.cone_link_inputs(small_corpus, p28), polygon(10)]:
            bigraded_betti(complex_)
        ghosts_built = 0
        for complex_, subset in built:
            edgeless = not any(edge & ~subset == 0 for edge in complex_.faces(1))
            ghosts_built += bool(subset & ~complex_.vertex_support())
            assert not edgeless or subset.bit_count() < 2 or subset & ~complex_.vertex_support()
        assert ghosts_built

    @staticmethod
    def isolated_missing_faces(complex_, subset):
        """Every missing face f inside J, |f| >= 2, that no other one inside J meets."""
        inside = [f for f in complex_.missing_faces() if f & subset == f]
        return [
            f for f in inside
            if f.bit_count() > 1 and not any(g != f and g & f for g in inside)
        ]

    def test_isolated_missing_faces_suspend_the_groups(self, small_corpus, p28):
        # soundness of the join rule, subset by subset and for every face it
        # could take: K_J = (boundary of f) * K_{J - f}, so H~^d(K_J) is
        # H~^(d - |f| + 1)(K_{J - f}), torsion included; J = f is a sphere
        # suspended from K_0's H~^-1 = Z
        suspension = RP2.join(two_points())
        inputs = [
            *small_corpus[:12], p28, cross_polytope(4), GHOST, suspension, boundary_simplex(4)
        ]
        accepted = spheres = torsion = 0
        for complex_ in inputs:
            through = _missing_through(complex_.missing_faces(), complex_.m)
            cohomology = nonzero_cohomology(complex_)
            for subset in range(1 << complex_.m):
                isolated = self.isolated_missing_faces(complex_, subset)
                taken = _isolated_missing_face(subset, through)
                assert taken in isolated if isolated else taken == 0, (complex_, subset)
                for face in isolated:
                    accepted += 1
                    spheres += face == subset
                    shift = face.bit_count() - 1
                    shifted = {d + shift: g for d, g in cohomology(subset ^ face).items()}
                    assert cohomology(subset) == shifted, (complex_, subset, face)
                    torsion += any(g.torsion for g in shifted.values())
        assert accepted > 1000 and spheres > 10 and torsion

    # the chain complexes the sweep still builds: every nonempty K_J of a
    # cross-polytope is a join with S^0 and K_0 has its closed form, so a
    # cross-polytope gets none; the unpruned oracle takes seconds on
    # cross-polytope 6, whose table has a closed form below instead
    @pytest.mark.parametrize(
        "build, built, unpruned",
        [
            (lambda: cross_polytope(5), 0, True),
            (lambda: cross_polytope(6), 0, False),
            (lambda: truncated_simplex(4, 8), 47, True),
            (lambda: P28, 3, True),
            (lambda: polygon(14), 1, True),
        ],
        ids=["cross-polytope-5", "cross-polytope-6", "truncated-simplex-4-8", "p28", "polygon-14"],
    )
    def test_sweep_builds_a_chain_complex_only_for_non_joins(self, build, built, unpruned, monkeypatch):
        complex_ = build()
        subsets = []

        def recording(complex_, subset):
            subsets.append(subset)
            return subset_cohomology(complex_, subset)

        monkeypatch.setattr(hochster, "_subset_cohomology", recording)
        table = bigraded_betti(complex_)
        assert len(subsets) == built
        if unpruned:
            assert table.entries == bigraded_betti(complex_, prune=False).entries

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cross_polytope_tables_are_antipodal_spheres(self, n):
        # K_J is S^(k-1) when J is k antipodal pairs {2i - 1, 2i}, k >= 0,
        # and a cone otherwise
        complex_ = cross_polytope(n)
        pairs = [0b11 << 2 * i for i in range(n + 1)]
        expected = {
            (sum(chosen), k - 1): Abelian(1, ())
            for k in range(n + 2)
            for chosen in combinations(pairs, k)
        }
        assert bigraded_betti(complex_).entries == expected

    # one case per input, so a failure names the input it came from
    @pytest.mark.parametrize(
        "inputs",
        [
            lambda corpus, p28: corpus[:12],
            lambda corpus, p28: [polygon(10)],
            lambda corpus, p28: [polygon(12)],
            lambda corpus, p28: [truncated_simplex(4, 6)],
            lambda corpus, p28: [truncated_simplex(3, 6)],
            lambda corpus, p28: [cross_polytope(4)],
            lambda corpus, p28: [RP2],
            lambda corpus, p28: [p28],
            lambda corpus, p28: [GHOST],
            lambda corpus, p28: [RP2.join(two_points())],
        ],
        ids=[
            "corpus-12", "polygon-10", "polygon-12", "truncated-simplex-4-6",
            "truncated-simplex-3-6", "cross-polytope-4", "rp2", "p28", "ghost", "rp2-join-s0",
        ],
    )
    def test_pruned_equals_unpruned(self, small_corpus, p28, inputs):
        for complex_ in inputs(small_corpus, p28):
            pruned = bigraded_betti(complex_, prune=True).entries
            unpruned = bigraded_betti(complex_, prune=False).entries
            assert pruned == unpruned, complex_
            assert list(pruned) == list(unpruned), complex_


class TestStarProductLaws:
    def test_cocycle_closure_and_commutativity(self, small_corpus):
        for complex_ in small_corpus:
            table = bigraded_betti(complex_)
            classes = sample_classes(complex_, table)
            for c1 in classes:
                for c2 in classes:
                    product = star_product(c1, c2, complex_)
                    _check_cocycle(product, complex_)
                    reverse = star_product(c2, c1, complex_)
                    sign = (-1) ** ((c1.degree + 1) * (c2.degree + 1))
                    flipped = reverse if sign == 1 else -reverse
                    assert product == flipped

    def test_vanishing_on_overlap(self, small_corpus):
        for complex_ in small_corpus:
            table = bigraded_betti(complex_)
            classes = sample_classes(complex_, table)
            for c1 in classes:
                for c2 in classes:
                    if c1.subset & c2.subset:
                        assert star_product(c1, c2, complex_).is_zero

    def test_associativity_at_the_cochain_level(self, small_corpus):
        for complex_ in small_corpus[:15]:
            table = bigraded_betti(complex_)
            classes = sample_classes(complex_, table, limit=4)
            for c1 in classes:
                for c2 in classes:
                    for c3 in classes:
                        left = star_product(
                            star_product(c1, c2, complex_), c3, complex_
                        )
                        right = star_product(
                            c1, star_product(c2, c3, complex_), complex_
                        )
                        assert left == right

    def test_shuffle_sign_matches_permutation_parity(self):
        rng = random.Random(7)
        for _ in range(200):
            pool = rng.sample(range(1, 13), rng.randint(2, 8))
            split = rng.randint(1, len(pool) - 1)
            left, right = sorted(pool[:split]), sorted(pool[split:])
            sequence = left + right
            inversions = sum(
                1
                for i in range(len(sequence))
                for j in range(i + 1, len(sequence))
                if sequence[i] > sequence[j]
            )
            left_mask = sum(1 << (v - 1) for v in left)
            right_mask = sum(1 << (v - 1) for v in right)
            assert shuffle_sign(left_mask, right_mask) == (-1) ** inversions


class TestSphereInvariants:
    def test_top_degree_has_rank_one(self):
        for complex_ in [
            polygon(5),
            polygon(6),
            boundary_simplex(3),
            boundary_simplex(4),
            cross_polytope(2),
            truncated_simplex(3, 2),
        ]:
            check = pseudo_sphere_check(complex_)
            assert check.passed
            table = zk_betti(complex_)
            top = complex_.m + check.dim + 1
            assert table[top] == Abelian(1, ())
            assert max(table) == top
            for p in (1, 2, top - 1):
                assert table.get(p, ZERO).is_zero

    def test_betti_independent_of_subdivision_choices(self):
        # the truncated-simplex family fixes one canonical subdivision
        # sequence; random facet choices must give the same table
        rng = random.Random(11)
        for k, l in [(2, 2), (3, 1), (3, 2)]:
            canonical = zk_betti(truncated_simplex(k, l))
            for _ in range(3):
                complex_ = boundary_simplex(k)
                for step in range(l):
                    facet = rng.choice(complex_.facets)
                    complex_ = complex_.stellar_subdivide_facet(facet, k + 2 + step)
                assert zk_betti(complex_) == canonical


class TestBigradedShape:
    def test_unit_entry_always_present(self, small_corpus):
        for complex_ in small_corpus:
            table = bigraded_betti(complex_)
            assert table.group(0, -1) == Abelian(1, ())

    def test_total_degree_formula(self, small_corpus):
        for complex_ in small_corpus:
            table = bigraded_betti(complex_)
            total = table.total()
            ranks = {}
            for (subset, d), group in table.entries.items():
                p = subset.bit_count() + d + 1
                ranks[p] = ranks.get(p, 0) + group.rank
            assert {p: g.rank for p, g in total.items() if g.rank} == {
                p: r for p, r in ranks.items() if r
            }

"""Structural invariants over the seeded corpus; zero tolerated failures."""

import random

from moment_angle import (
    Abelian,
    ChainComplexZ,
    HochsterClass,
    bigraded_betti,
    boundary_simplex,
    cross_polytope,
    polygon,
    pseudo_sphere_check,
    reduced_cohomology,
    reduced_homology,
    star_product,
    truncated_simplex,
    zk_betti,
)
from moment_angle.bitsets import shuffle_sign
from moment_angle.hochster import _covered_by_missing
from moment_angle.homology import CohomologyBasis
from moment_angle.ring import _check_cocycle
from moment_angle.snf import matmul

ZERO = Abelian(0, ())


def boundary_composes_to_zero(complex_):
    cc = ChainComplexZ.of_complex(complex_)
    for d in range(0, cc.top + 1):
        upper = cc.boundary_matrix(d + 1)
        lower = cc.boundary_matrix(d)
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


class TestPruning:
    def test_uncovered_subsets_are_contractible(self, small_corpus):
        # soundness of the missing-face cover shortcut, subset by subset
        for complex_ in small_corpus[:12]:
            missing = complex_.missing_faces()
            for subset in range(1 << complex_.m):
                if not _covered_by_missing(subset, missing):
                    cc = ChainComplexZ.of_subset(complex_, subset)
                    assert all(g.is_zero for g in cc.cohomology().values())

    def test_pruned_equals_unpruned(self, small_corpus):
        for complex_ in small_corpus[:12]:
            assert (
                bigraded_betti(complex_, prune=True).entries
                == bigraded_betti(complex_, prune=False).entries
            )


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

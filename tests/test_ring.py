"""Cup products: the golden relations of the 8-vertex sphere and ring APIs."""

import dataclasses
import hashlib
import json
import random

import pytest
from test_homology import RP2

from moment_angle import (
    ChainComplexZ,
    CohomologyBasis,
    HochsterClass,
    SimplicialComplex,
    construct_p28_8,
    cross_polytope,
    functoriality_check,
    mask_of,
    poincare_pairing_report,
    polygon,
    product_span_rank,
    random_complexes,
    bigraded_betti,
    ring_presentation,
    star_product,
    truncated_simplex,
    two_points,
    verify_csp_model,
    vertices_of,
)
from moment_angle import homology, ring
from moment_angle.errors import DegreeMismatch, NotACocycle
from moment_angle.reproduction import mcgavran_model
from moment_angle.ring import ring_json_obj
from moment_angle.snf import invariant_factors, is_unimodular_square


@pytest.fixture(scope="module")
def p28_ring(p28):
    return ring_presentation(p28)


def single_term(presentation, g, h):
    terms = dict(presentation.product(g.gid, h.gid))
    assert len(terms) <= 1
    return terms


class TestStarProduct:
    def test_quadrilateral_diagonals_generate_the_top(self):
        quad = polygon(4)
        presentation = ring_presentation(quad)
        c1 = presentation.find((1, 3), 0).cls
        c2 = presentation.find((2, 4), 0).cls
        product = star_product(c1, c2, quad)
        assert not product.is_zero
        assert product.subset == mask_of((1, 2, 3, 4))
        assert product.degree == 1
        coeffs = presentation.express_class(product)
        assert [abs(c) for _, c in coeffs] == [1]

    def test_overlap_gives_zero(self, p28, p28_ring):
        a1 = p28_ring.find((5, 6), 0).cls
        overlapping = p28_ring.find((5, 6, 7, 8), 1).cls
        assert star_product(a1, overlapping, p28).is_zero

    def test_unit_class_acts_as_identity(self, p28, p28_ring):
        unit = HochsterClass(0, -1, {0: 1})
        for g in p28_ring.generators[:5]:
            assert star_product(unit, g.cls, p28) == g.cls
            assert star_product(g.cls, unit, p28) == g.cls

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatch):
            HochsterClass(mask_of((1, 2, 3)), 0, {mask_of((1, 2)): 1})
        with pytest.raises(DegreeMismatch):
            HochsterClass(mask_of((1, 2)), 0, {mask_of((3,)): 1})


class TestP28Relations:
    """The product structure pinning the three-sphere-product summand."""

    def test_pair_product_hits_the_four_cycle_class(self, p28, p28_ring):
        a1 = p28_ring.find((5, 6), 0)
        a2 = p28_ring.find((7, 8), 0)
        target = p28_ring.find((5, 6, 7, 8), 1)
        terms = single_term(p28_ring, a1, a2)
        assert terms in ({target.gid: 1}, {target.gid: -1})

    def test_complementary_pairings_are_unimodular_units(self, p28_ring):
        fid = p28_ring.fundamental_id
        full = (1 << 8) - 1
        for g in p28_ring.generators:
            p = g.total_degree
            if p in (0, 12):
                continue
            partner = p28_ring.find(full & ~g.subset, 3 - g.degree - 1)
            terms = single_term(p28_ring, g, partner)
            assert terms in ({fid: 1}, {fid: -1}), vertices_of(g.subset)

    def test_degree_nine_products(self, p28_ring):
        a1 = p28_ring.find((5, 6), 0)
        a2 = p28_ring.find((7, 8), 0)
        alpha0 = p28_ring.find((1, 2, 3, 4), 1)
        lam1 = p28_ring.find((1, 2, 3, 4, 7, 8), 2)
        lam2 = p28_ring.find((1, 2, 3, 4, 5, 6), 2)
        assert single_term(p28_ring, a2, alpha0) in ({lam1.gid: 1}, {lam1.gid: -1})
        assert single_term(p28_ring, a1, alpha0) in ({lam2.gid: 1}, {lam2.gid: -1})

    def test_triple_product_is_the_fundamental_class(self, p28, p28_ring):
        gids = [
            p28_ring.find((5, 6), 0).gid,
            p28_ring.find((7, 8), 0).gid,
            p28_ring.find((1, 2, 3, 4), 1).gid,
        ]
        product = p28_ring.product_class(gids)
        coeff = p28_ring.coefficient_on(product, p28_ring.fundamental_id)
        assert abs(coeff) == 1

    def test_two_vertex_classes_kill_other_middle_classes(self, p28_ring):
        # products of a degree-3 class with any non-complementary middle
        # class vanish; the whole interesting column is the two above
        a_gens = [p28_ring.find((5, 6), 0), p28_ring.find((7, 8), 0)]
        for a in a_gens:
            for g in p28_ring.degree_generators(6):
                expected_nonzero = (
                    g.subset == mask_of((1, 2, 3, 4)) and not (a.subset & g.subset)
                )
                terms = dict(p28_ring.product(a.gid, g.gid))
                assert bool(terms) == expected_nonzero

    def test_fundamental_class_identified(self, p28_ring):
        top = p28_ring.generators[p28_ring.fundamental_id]
        assert top.subset == (1 << 8) - 1
        assert top.degree == 3


class TestRanks:
    def test_triple_rank_p28(self, p28_ring):
        assert product_span_rank(p28_ring, 3).get(12, 0) == 1

    def test_triple_rank_quadrilateral(self):
        presentation = ring_presentation(polygon(4))
        assert product_span_rank(presentation, 3).get(6, 0) == 0

    def test_triple_rank_octahedron(self):
        presentation = ring_presentation(cross_polytope(2))
        assert product_span_rank(presentation, 3).get(9, 0) == 1

    def test_pair_rank_interior_degrees(self, p28_ring):
        assert product_span_rank(p28_ring, 2).get(6, 0) == 1
        assert product_span_rank(p28_ring, 2).get(9, 0) == 2
        assert product_span_rank(p28_ring, 2).get(7, 0) == 0
        assert product_span_rank(p28_ring, 2).get(12, 0) == 1
        assert product_span_rank(p28_ring, 4).get(12, 0) == 0

    def test_every_degree_in_one_table(self, p28_ring):
        # degrees of rank 0 are left out; t = 1 is the free Betti table
        betti = {p: g.rank for p, g in p28_ring.table.total().items() if p}
        assert product_span_rank(p28_ring, 1) == betti
        assert product_span_rank(p28_ring, 2) == {6: 1, 9: 2, 12: 1}
        assert product_span_rank(p28_ring, 3) == {12: 1}
        assert product_span_rank(p28_ring, 4) == {}


def span_ranks_by_tuples(presentation, max_t):
    """Oracle: multiply out every set of disjoint generators as cochains.

    Each set, taken in generator order, is folded with ``star_product`` and
    the product is expressed in the basis; ``ranks[t][p]`` is the rank of the
    degree-p products of at least t generators, for t = 1 .. max_t.  A
    partial product that is already the zero cochain stays zero, so its
    extensions are skipped.
    """
    complex_ = presentation.complex
    generators = presentation.generators
    rows = []  # (number of factors, degree, {gid: coefficient})

    def extend(start, count, support, cls):
        if count:
            terms = presentation.express_class(cls)
            if terms:
                rows.append((count, cls.total_degree, dict(terms)))
        for g in generators[start:]:
            if not g.subset & support:
                product = star_product(cls, g.cls, complex_)
                if not product.is_zero:
                    extend(g.gid + 1, count + 1, support | g.subset, product)

    extend(0, 0, 0, HochsterClass(0, -1, {0: 1}))
    degrees = {g.total_degree for g in generators}
    ranks = {}
    for t in range(1, max_t + 1):
        ranks[t] = {}
        for p in degrees:
            block = [g.gid for g in presentation.degree_generators(p)]
            vectors = [[row.get(gid, 0) for gid in block] for n, q, row in rows if n >= t and q == p]
            ranks[t][p] = len(invariant_factors(vectors)) if vectors else 0
    return ranks


SPAN_INPUTS = [
    pytest.param(construct_p28_8(), id="p28"),
    pytest.param(truncated_simplex(2, 5), id="truncated_simplex(2,5)"),
    pytest.param(truncated_simplex(2, 6), id="truncated_simplex(2,6)"),
    pytest.param(truncated_simplex(3, 3), id="truncated_simplex(3,3)"),
    pytest.param(cross_polytope(3), id="cross_polytope3"),
    pytest.param(polygon(7), id="polygon7"),
    pytest.param(polygon(8), id="polygon8"),
    pytest.param(RP2, id="rp2"),
    pytest.param(RP2.join(two_points()), id="rp2*s0"),
    # three of the hexagon's vertices span three points, so the block over
    # them and the S^0 holds a rank-2 span of products
    pytest.param(polygon(6).join(two_points()), id="polygon6*s0"),
    # a graph whose degree-10 block needs rows from more than one batch of
    # the row reduction in product_span_rank
    pytest.param(
        SimplicialComplex(
            8,
            [(1, 3), (1, 4), (1, 7), (2, 3), (2, 5), (2, 6),
             (2, 7), (3, 6), (4, 5), (4, 7), (4, 8), (5, 6)],
        ),
        id="graph8",
    ),
    *(pytest.param(c, id=f"random{i}") for i, c in enumerate(random_complexes(15, seed=3))),
]


class TestSpanRankOracle:
    """The block fold over structure constants matches multiplying cochains."""

    @pytest.mark.filterwarnings("ignore::moment_angle.errors.TorsionWarning")
    @pytest.mark.parametrize("complex_", SPAN_INPUTS)
    def test_fold_matches_tuple_enumeration(self, complex_):
        presentation = ring_presentation(complex_)
        expected = span_ranks_by_tuples(presentation, 4)
        got = {
            t: {p: product_span_rank(presentation, t).get(p, 0) for p in ranks}
            for t, ranks in expected.items()
        }
        assert got == expected

    def test_ten_vertex_truncated_simplex_model(self):
        result = verify_csp_model(truncated_simplex(2, 7), mcgavran_model(2, 7))
        assert result.consistent, result.mismatches


def dense_pairing_ok(presentation):
    """Oracle: the whole-degree pairing matrices, one ``product()`` per cell.

    For each p the matrix pairs generators of degree p against generators of
    degree top - p through the coefficient on the fundamental class; it must
    be square with determinant +-1.
    """
    complex_ = presentation.complex
    top = complex_.m + complex_.dim() + 1
    fid = presentation.fundamental_id
    if fid is None:
        return False
    for p in range(1, top // 2 + 1):
        left = presentation.degree_generators(p)
        right = presentation.degree_generators(top - p)
        matrix = [[dict(presentation.product(g.gid, h.gid)).get(fid, 0) for h in right] for g in left]
        if len(left) != len(right) or not is_unimodular_square(matrix):
            return False
    return True


PAIRING_SPHERES = [
    pytest.param(construct_p28_8(), id="p28"),
    *(pytest.param(polygon(m), id=f"polygon{m}") for m in range(4, 10)),
    *(pytest.param(truncated_simplex(2, k), id=f"truncated_simplex(2,{k})") for k in range(5, 8)),
    pytest.param(cross_polytope(3), id="cross_polytope3"),
]


class TestPairing:
    def test_p28_unimodular_everywhere(self, p28_ring):
        report = poincare_pairing_report(p28_ring)
        assert report.ok and report.top == 12

    def test_quadrilateral(self):
        assert poincare_pairing_report(ring_presentation(polygon(4))).ok

    def test_pentagon_and_hexagon(self):
        for m in (5, 6):
            assert poincare_pairing_report(ring_presentation(polygon(m))).ok

    @pytest.mark.parametrize("complex_", PAIRING_SPHERES)
    def test_blocks_match_the_dense_pairing_on_spheres(self, complex_):
        presentation = ring_presentation(complex_)
        assert poincare_pairing_report(presentation).ok
        assert dense_pairing_ok(presentation)

    @pytest.mark.filterwarnings("ignore::moment_angle.errors.TorsionWarning")
    def test_blocks_match_the_dense_pairing_on_the_corpus(self, corpus):
        verdicts = []
        for complex_ in corpus:
            presentation = ring_presentation(complex_)
            block = poincare_pairing_report(presentation).ok
            assert block == dense_pairing_ok(presentation), complex_
            verdicts.append(block)
        assert not all(verdicts)  # the corpus holds non-spheres

    def test_dropped_top_term_fails_both_checks(self, p28_ring):
        fid = p28_ring.fundamental_id
        products = dict(p28_ring.products)
        # the dense oracle reads only rows of degree <= top // 2
        top = p28_ring.complex.m + p28_ring.complex.dim() + 1
        pair = min(
            pair
            for pair, terms in products.items()
            if fid in dict(terms) and p28_ring.generators[pair[0]].total_degree <= top // 2
        )
        products[pair] = tuple((gid, c) for gid, c in products[pair] if gid != fid)
        mutated = dataclasses.replace(p28_ring, products=products)
        report = poincare_pairing_report(mutated)
        assert not report.ok and not dense_pairing_ok(mutated)
        degree = p28_ring.generators[pair[0]].total_degree
        assert (degree, [[0]]) in report.failures  # the block's matrix, not the degree's
        assert poincare_pairing_report(p28_ring).ok and dense_pairing_ok(p28_ring)

    def test_no_matrix_wider_than_a_block(self, monkeypatch):
        widths = []

        def recording(matrix):
            widths.append(max(len(matrix), len(matrix[0]) if matrix else 0))
            return is_unimodular_square(matrix)

        monkeypatch.setattr(ring, "is_unimodular_square", recording)
        presentation = ring_presentation(truncated_simplex(2, 7))
        assert poincare_pairing_report(presentation).ok
        assert widths and max(widths) <= max(map(len, presentation._blocks.values()))


class TestFunctoriality:
    def test_four_cycle_inside_p28(self, p28):
        report = functoriality_check(p28, (5, 6, 7, 8))
        assert report.ok and report.pairs_checked == 9

    def test_identity_inclusion(self, p28):
        assert functoriality_check(p28, tuple(range(1, 9))).ok

    def test_single_facet_has_no_classes(self, p28):
        report = functoriality_check(p28, (1, 2, 4, 5))
        assert report.ok and report.pairs_checked == 0

    def test_subset_out_of_range_rejected(self, p28):
        from moment_angle.errors import NotASubcomplex

        with pytest.raises(NotASubcomplex):
            functoriality_check(p28, (7, 8, 9))


def reference_products(presentation):
    """Every ordered generator pair multiplied and expressed in the basis."""
    out = {}
    for g in presentation.generators:
        for h in presentation.generators:
            prod = star_product(g.cls, h.cls, presentation.complex)
            out[(g.gid, h.gid)] = () if prod.is_zero else tuple(presentation.express_class(prod))
    return out


ORACLE_INPUTS = [
    pytest.param(construct_p28_8(), id="p28"),
    pytest.param(RP2, id="rp2", marks=pytest.mark.filterwarnings("ignore::moment_angle.errors.TorsionWarning")),
    *(pytest.param(polygon(m), id=f"polygon{m}") for m in range(5, 9)),
    pytest.param(truncated_simplex(3, 6), id="truncated_simplex(3,6)"),
    *(pytest.param(c, id=f"random{i}") for i, c in enumerate(random_complexes(20, seed=11))),
]


def all_block_pairs(presentation):
    """Oracle: the generator pairs of every two disjoint blocks with a free target."""
    blocks = presentation._blocks
    pairs = []
    for (s1, d1), gids1 in blocks.items():
        for (s2, d2), gids2 in blocks.items():
            if not s1 & s2 and (s1 | s2, d1 + d2 + 1) in blocks:
                pairs.extend((g, h) for g in gids1 for h in gids2)
    return sorted(pairs)


PAIR_SET_INPUTS = [
    *(pytest.param(polygon(m), id=f"polygon{m}") for m in range(4, 12)),
    pytest.param(construct_p28_8(), id="p28"),
    *(pytest.param(truncated_simplex(3, k), id=f"truncated_simplex(3,{k})") for k in range(6, 9)),
    pytest.param(RP2, id="rp2"),
    *(pytest.param(c, id=f"random{i}") for i, c in enumerate(random_complexes(20, seed=11))),
]


class TestTargetWalk:
    """Splitting each target block finds the pairs of the all-pairs scan."""

    @pytest.mark.filterwarnings("ignore::moment_angle.errors.TorsionWarning")
    @pytest.mark.parametrize("complex_", PAIR_SET_INPUTS)
    def test_walk_multiplies_the_pairs_of_the_all_pairs_scan(self, complex_, monkeypatch):
        factors = []

        def recording(c1, c2, complex_):
            factors.append((c1, c2))
            return star_product(c1, c2, complex_)

        monkeypatch.setattr(ring, "star_product", recording)
        presentation = ring_presentation(complex_)
        gid_of = {id(g.cls): g.gid for g in presentation.generators}
        walked = sorted((gid_of[id(c1)], gid_of[id(c2)]) for c1, c2 in factors)
        assert walked == all_block_pairs(presentation)
        assert list(presentation.products) == sorted(presentation.products)


class TestBlockProducts:
    """The presentation multiplies only disjoint blocks with a free target."""

    @pytest.mark.parametrize("complex_", ORACLE_INPUTS)
    def test_skipped_pairs_are_zero(self, complex_):
        presentation = ring_presentation(complex_)
        reference = reference_products(presentation)
        assert presentation.products == {key: terms for key, terms in reference.items() if terms}
        for (g, h), terms in reference.items():
            if not terms:
                assert presentation.product(g, h) == ()

    def test_polygon_10_golden(self):
        presentation = ring_presentation(polygon(10))
        payload = ring_json_obj(presentation)
        assert len(presentation.generators) == 1539
        assert len(payload["products"]) == 2030
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        # ring_json_obj of the loop that multiplied every generator pair
        assert digest == "c440c77527a752e8d9d93e40c44a99fe8abc7cbaf1b3b4d32c1d2ec3152fb09f"

    def test_unknown_generator_is_refused(self):
        presentation = ring_presentation(polygon(4))
        with pytest.raises(KeyError):
            presentation.product(0, len(presentation.generators))


SHARED_INPUTS = [
    pytest.param(polygon(9), id="polygon9"),
    pytest.param(construct_p28_8(), id="p28"),
    pytest.param(truncated_simplex(3, 7), id="truncated_simplex(3,7)"),
    pytest.param(RP2, id="rp2"),
    *(pytest.param(c, id=f"random{i}") for i, c in enumerate(random_complexes(20, seed=11))),
]


def outcome(basis, support):
    try:
        return basis.express(support)
    except NotACocycle:
        return NotACocycle


class TestSharedBases:
    """Degree bases shared through a presentation's memo equal fresh ones."""

    @pytest.mark.filterwarnings("ignore::moment_angle.errors.TorsionWarning")
    @pytest.mark.parametrize("complex_", SHARED_INPUTS)
    def test_every_shared_degree_matches_a_fresh_basis(self, complex_):
        presentation = ring_presentation(complex_)
        # torsion blocks have no generators; give them contexts too, so the
        # torsion rows are compared
        for (subset, _), group in presentation.table.entries.items():
            if group.torsion:
                presentation.context(subset)
        torsion_seen = False
        for subset, ctx in list(presentation._contexts.items()):
            fresh = CohomologyBasis(ChainComplexZ.of_subset(complex_, subset))
            for d in range(-1, ctx.cc.top + 1):
                shared, alone = ctx.basis.degree(d), fresh.degree(d)
                assert vars(shared) == vars(alone), (vertices_of(subset), d)
                torsion_seen |= bool(shared._torsion_rows)
                rng = random.Random(subset * 64 + d)
                coboundary = ctx.cc.coboundary_matrix(d - 1)
                for _ in range(3):
                    vec = [0] * shared.n
                    for rep in shared.representatives:
                        c = rng.randint(-3, 3)
                        vec = [x + c * r for x, r in zip(vec, rep)]
                    lower = [rng.randint(-2, 2) for _ in range(ctx.cc.n_faces(d - 1))]
                    vec = [x + sum(a * b for a, b in zip(row, lower)) for x, row in zip(vec, coboundary)]
                    cocycle = [(k, x) for k, x in enumerate(vec) if x]
                    assert shared.express(cocycle) == alone.express(cocycle)
                    noise = [(k, rng.randint(-2, 2)) for k in range(shared.n)]
                    assert outcome(shared, noise) == outcome(alone, noise)
        assert torsion_seen == any(g.torsion for g in presentation.table.entries.values())

    def test_tracked_smith_forms_run_once_per_key(self, monkeypatch):
        complex_ = polygon(9)
        table = bigraded_betti(complex_)
        calls = []
        original = homology.smith_normal_form

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(homology, "smith_normal_form", counting)
        first = ring_presentation(complex_, table=table)
        bases = sum(len(ctx.basis._degrees) for ctx in first._contexts.values())
        assert (bases, len(first._bases)) == (439, 98)
        assert len(calls) <= 2 * len(first._bases)
        # a second presentation starts from an empty memo
        counted = len(calls)
        calls.clear()
        second = ring_presentation(complex_, table=table)
        assert len(calls) == counted
        assert second._bases is not first._bases

    def test_mutating_one_block_leaves_its_twin(self):
        presentation = ring_presentation(polygon(9))
        holders = {}  # shared representatives -> the blocks holding them
        for ctx in presentation._contexts.values():
            for d, basis in ctx.basis._degrees.items():
                assert isinstance(basis.representatives, tuple)
                assert all(isinstance(rep, tuple) for rep in basis.representatives)
                if basis.representatives:
                    holders.setdefault(id(basis.representatives), []).append((ctx, d))
        (a, d), (b, _) = next(blocks for blocks in holders.values() if len(blocks) > 1)[:2]
        assert a.subset != b.subset
        reps, classes = b.basis.representatives(d), b.classes(d)
        own_reps, own_classes = a.basis.representatives(d), a.classes(d)
        a.basis.representatives(d)[0][0] += 7
        a.classes(d)[0].cochain.clear()
        own_reps[0][:] = [0] * len(own_reps[0])
        own_classes[0].cochain.clear()
        assert b.basis.representatives(d) == reps
        assert b.classes(d) == classes
        assert a.basis.representatives(d) == reps

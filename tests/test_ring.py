"""Cup products: the golden relations of the 8-vertex sphere and ring APIs."""

import dataclasses
import hashlib
import json
import random
from itertools import combinations

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
from moment_angle.bitsets import shuffle_sign
from moment_angle.errors import (
    DegreeMismatch,
    NotACocycle,
    ParameterOutOfRange,
    VertexOutOfRange,
)
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


def scan_check_cocycle(cls, complex_):
    """Reference: the coboundary on every face of K_J one degree up."""
    columns = complex_.boundary_table()
    for face in complex_.faces_by_dim().get(cls.degree + 1, []):
        if face & ~cls.subset:
            continue
        total = sum(sign * cls.cochain.get(sub, 0) for sub, sign in columns[face].items())
        if total:
            raise NotACocycle(f"coboundary {total} on {vertices_of(face)}")


def scan_star_product(c1, c2, complex_):
    """Reference: every face of K in the target degree, split into its two parts."""
    union = c1.subset | c2.subset
    degree = c1.degree + c2.degree + 1
    if c1.subset & c2.subset:
        return HochsterClass(union, degree, {})
    cochain = {}
    for face in complex_.faces_by_dim().get(degree, []):
        if face & ~union:
            continue
        left, right = face & c1.subset, face & c2.subset
        a, b = c1.cochain.get(left), c2.cochain.get(right)
        if left.bit_count() == c1.degree + 1 and a and b:
            cochain[face] = a * b * shuffle_sign(left, right)
    result = HochsterClass(union, degree, cochain)
    scan_check_cocycle(result, complex_)
    return result


def outcome_of(function, *args):
    """The result of ``function(*args)``, or NotACocycle when that is raised."""
    try:
        return function(*args)
    except NotACocycle:
        return NotACocycle


def random_cochain(rng, complex_, subset, degree):
    """Integer values on random (degree + 1)-subsets of ``subset``, faces of K or not."""
    candidates = [mask_of(c) for c in combinations(vertices_of(subset), degree + 1)]
    faces = complex_.face_set()
    if rng.random() < 0.7:  # mostly faces, so that coboundaries meet
        candidates = [f for f in candidates if f in faces] or candidates
    chosen = rng.sample(candidates, rng.randint(0, min(4, len(candidates))))
    return HochsterClass(subset, degree, {f: rng.randint(-3, 3) for f in chosen})


def random_factor(rng, complex_, presentation, allowed):
    """A class on vertices in ``allowed``: a cocycle of a block or a random cochain."""
    blocks = [(key, gids) for key, gids in presentation._blocks.items() if not key[0] & ~allowed]
    if blocks and rng.random() < 0.4:  # an integer combination of one block's generators
        (subset, degree), gids = rng.choice(blocks)
        cochain = {}
        for g in presentation.generators[gids.start : gids.stop]:
            c = rng.randint(-2, 2)
            for face, value in g.cls.cochain.items():
                cochain[face] = cochain.get(face, 0) + c * value
        return HochsterClass(subset, degree, cochain)
    subset = rng.randrange(1 << complex_.m) & allowed
    degree = rng.randint(-1, min(complex_.dim(), subset.bit_count() - 1))
    return random_cochain(rng, complex_, subset, degree)


SUPPORT_INPUTS = [
    pytest.param(construct_p28_8(), id="p28"),
    pytest.param(polygon(9), id="polygon9"),
    pytest.param(truncated_simplex(3, 5), id="truncated_simplex(3,5)"),
    pytest.param(RP2, id="rp2"),
]


@pytest.mark.filterwarnings("ignore::moment_angle.errors.TorsionWarning")
class TestSupportProducts:
    """Products and cocycle checks read off supports match the face scans they replace."""

    def check_every_pair(self, complex_):
        presentation = ring_presentation(complex_)
        classes = [g.cls for g in presentation.generators]
        nonzero = 0
        for c1 in classes:
            ring._check_cocycle(c1, complex_)
            for c2 in classes:
                product = star_product(c1, c2, complex_)
                assert product == scan_star_product(c1, c2, complex_)
                nonzero += not product.is_zero
        return nonzero

    @pytest.mark.parametrize("complex_", SUPPORT_INPUTS)
    def test_every_generator_pair(self, complex_):
        self.check_every_pair(complex_)

    def test_every_generator_pair_on_the_corpus(self, small_corpus):
        assert sum(self.check_every_pair(complex_) for complex_ in small_corpus) > 0

    @pytest.mark.parametrize("complex_", SUPPORT_INPUTS)
    def test_random_cochains(self, complex_):
        rng = random.Random(complex_.m * 1009 + len(complex_.facets))
        presentation = ring_presentation(complex_)
        full = (1 << complex_.m) - 1
        seen = dict.fromkeys(["refused", "passed", "product refused", "product nonzero"], 0)
        for _ in range(400):
            c1 = random_factor(rng, complex_, presentation, full)
            # a fifth of the pairs may share vertices; the rest have disjoint supports
            allowed = full if rng.random() < 0.2 else full & ~c1.subset
            c2 = random_factor(rng, complex_, presentation, allowed)
            for cls in (c1, c2):
                checked = outcome_of(ring._check_cocycle, cls, complex_)
                assert checked == outcome_of(scan_check_cocycle, cls, complex_)
                if checked is NotACocycle:
                    seen["refused"] += 1
                else:
                    seen["passed"] += not cls.is_zero
            product = outcome_of(star_product, c1, c2, complex_)
            assert product == outcome_of(scan_star_product, c1, c2, complex_)
            if product is NotACocycle:
                seen["product refused"] += 1
            else:
                seen["product nonzero"] += not product.is_zero
        assert all(seen.values()), seen


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

    def test_one_fold_passes_every_level(self, p28_ring):
        levels = []
        assert product_span_rank(p28_ring, 4, levels) == {}
        assert levels == [product_span_rank(p28_ring, t) for t in (1, 2, 3, 4)]

    @pytest.mark.parametrize("t", [0, -1])
    def test_fewer_than_one_factor_is_refused(self, t):
        presentation = ring_presentation(polygon(5))
        with pytest.raises(ParameterOutOfRange, match="t must be >= 1"):
            product_span_rank(presentation, t)


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
    # a graph whose degree-10 block gets more rows than it has generators,
    # so row_basis drops dependent rows there
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

    @pytest.mark.parametrize("label", [0, -1])
    def test_label_below_one_is_refused(self, p28, label):
        with pytest.raises(VertexOutOfRange, match=f"1-based, got {label}"):
            functoriality_check(p28, (label, 1))

    @pytest.mark.parametrize("mask", [-1, -3])
    def test_negative_mask_is_refused(self, p28, mask):
        # -1 was once refused as if it named the vertex 1
        from moment_angle.errors import NotASubcomplex

        with pytest.raises(NotASubcomplex, match=f"subset mask {mask} is negative"):
            functoriality_check(p28, mask)

    def test_negative_pair_budget_is_refused(self):
        with pytest.raises(ParameterOutOfRange, match="max_pairs"):
            functoriality_check(polygon(6), (1, 2, 3, 4), max_pairs=-1)
        assert functoriality_check(polygon(6), (1, 2, 3, 4), max_pairs=0).pairs_checked == 0


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
    *(pytest.param(polygon(m), id=f"polygon{m}") for m in range(5, 10)),
    pytest.param(truncated_simplex(3, 6), id="truncated_simplex(3,6)"),
    *(pytest.param(c, id=f"random{i}") for i, c in enumerate(random_complexes(20, seed=11))),
    # the small_corpus fixture's complexes
    *(
        pytest.param(c, id=f"corpus{i}", marks=pytest.mark.filterwarnings("ignore::moment_angle.errors.TorsionWarning"))
        for i, c in enumerate(random_complexes(100)[:30])
    ),
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


def reversed_terms(presentation, g, h):
    """What ``(h, g)`` must hold given ``(g, h)``: the reduced-degree sign rule."""
    terms = presentation.products[(g, h)]
    d1, d2 = presentation.generators[g].degree, presentation.generators[h].degree
    if (d1 + 1) * (d2 + 1) % 2:
        return tuple((gid, -c) for gid, c in terms)
    return terms


class TestTargetWalk:
    """Splitting each target block finds each pair of the all-pairs scan once."""

    @pytest.mark.filterwarnings("ignore::moment_angle.errors.TorsionWarning")
    @pytest.mark.parametrize("complex_", PAIR_SET_INPUTS)
    def test_walk_multiplies_the_pairs_of_the_all_pairs_scan(self, complex_, monkeypatch):
        # the loop joins the supports each block lists for its generators;
        # label every list as it is made, and record the pairs joined
        labels = {}  # id of a support list -> (subset, degree, index)
        joined = []
        supports, join = ring._BlockContext.supports, ring._join

        def labelling(self, degree):
            out = supports(self, degree)
            for index, items in enumerate(out):
                labels[id(items)] = (self.subset, degree, index)
            return out

        def recording(left_items, right_items, faces):
            joined.append((left_items, right_items))
            return join(left_items, right_items, faces)

        monkeypatch.setattr(ring._BlockContext, "supports", labelling)
        monkeypatch.setattr(ring, "_join", recording)
        presentation = ring_presentation(complex_)
        generators = presentation.generators
        walked = []
        for pair in joined:
            g, h = (presentation.find(*labels[id(items)]) for items in pair)
            # the supports are the cochains of the generators' classes
            assert [dict(items) for items in pair] == [g.cls.cochain, h.cls.cochain]
            walked.append((g.gid, h.gid))
        # each pair in exactly one of its two orders
        assert sorted(walked + [(h, g) for g, h in walked]) == all_block_pairs(presentation)
        # the walked left factor holds the target's lowest vertex
        for g, h in walked:
            target = generators[g].subset | generators[h].subset
            assert generators[g].subset & target & -target
        # the other order is stored from the same multiplication
        products = presentation.products
        for g, h in products:
            assert products[(h, g)] == reversed_terms(presentation, g, h)
        assert list(products) == sorted(products)


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

    @pytest.mark.parametrize(
        ("complex_", "count"), [(construct_p28_8(), 3), (polygon(8), 154)], ids=["p28", "polygon8"]
    )
    def test_oracle_inputs_hold_negated_reverses(self, complex_, count):
        """The two-orders oracle above sees pairs whose reverse flips sign."""
        products = ring_presentation(complex_).products
        negated = [
            (g, h)
            for (g, h), terms in products.items()
            if g < h and products[(h, g)] == tuple((gid, -c) for gid, c in terms)
        ]
        assert len(negated) == count

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

    @pytest.mark.parametrize("label", [0, -1])
    def test_find_refuses_a_label_below_one(self, label):
        presentation = ring_presentation(polygon(4))
        with pytest.raises(VertexOutOfRange, match=f"1-based, got {label}"):
            presentation.find((label, 1), 0)

    def test_product_class_refuses_unknown_and_missing_generators(self):
        presentation = ring_presentation(polygon(4))
        n = len(presentation.generators)
        for gids in ([-1], [n], [0, n], [0, -1]):
            with pytest.raises(KeyError):
                presentation.product_class(gids)
        with pytest.raises(ParameterOutOfRange, match="at least one generator"):
            presentation.product_class([])
        assert presentation.product_class([n - 1]) == presentation.generators[n - 1].cls


class TestGeneratorClasses:
    """A generator's class is built from its block when read, then kept."""

    def test_no_class_is_built_until_read(self, p28):
        presentation = ring_presentation(p28)
        assert all(g._cls is None for g in presentation.generators)
        g = presentation.generators[0]
        assert g.cls is g.cls
        assert [h._cls is not None for h in presentation.generators].count(True) == 1

    @pytest.mark.parametrize("complex_", [construct_p28_8(), polygon(9)], ids=["p28", "polygon9"])
    def test_class_is_the_blocks_representative(self, complex_):
        presentation = ring_presentation(complex_)
        for g in presentation.generators:
            cls = g.cls
            assert isinstance(cls, HochsterClass)
            context = presentation.context(g.subset)
            rep = context.basis.representatives(g.degree)[g.index]
            faces = context.faces(g.degree)
            assert cls == HochsterClass(g.subset, g.degree, {f: c for f, c in zip(faces, rep) if c})
            assert (cls.subset, cls.degree) == (g.subset, g.degree)
            assert presentation.express_class(cls) == [(g.gid, 1)]


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
            # the complex the shape's basis was computed on, perhaps another block's
            cc = ctx.basis.cc
            assert cc.top == fresh.cc.top
            for d in range(-1, cc.top + 2):
                # the block lists its own faces, and their positions, per degree
                assert ctx.faces(d) == fresh.cc.faces.get(d, [])
                assert ctx.index(d) == fresh.cc.index.get(d, {})
            for d in range(-1, cc.top + 1):
                shared, alone = ctx.basis.degree(d), fresh.degree(d)
                assert vars(shared) == vars(alone), (vertices_of(subset), d)
                torsion_seen |= bool(shared._torsion_rows)
                rng = random.Random(subset * 64 + d)
                coboundary = cc.coboundary_matrix(d - 1)
                for _ in range(3):
                    vec = [0] * shared.n
                    for rep in shared.representatives:
                        c = rng.randint(-3, 3)
                        vec = [x + c * r for x, r in zip(vec, rep)]
                    lower = [rng.randint(-2, 2) for _ in range(cc.n_faces(d - 1))]
                    vec = [x + sum(a * b for a, b in zip(row, lower)) for x, row in zip(vec, coboundary)]
                    cocycle = [(k, x) for k, x in enumerate(vec) if x]
                    assert shared.express(cocycle) == alone.express(cocycle)
                    noise = [(k, rng.randint(-2, 2)) for k in range(shared.n)]
                    assert outcome(shared, noise) == outcome(alone, noise)
        assert torsion_seen == any(g.torsion for g in presentation.table.entries.values())

    def test_tracked_smith_forms_run_once_per_shape(self, monkeypatch):
        complex_ = polygon(9)
        table = bigraded_betti(complex_)
        calls = []
        built = []
        complexes = []
        original = homology.smith_normal_form
        original_init = homology._DegreeBasis.__init__
        original_complex_init = homology.ChainComplexZ.__init__

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        def counting_init(self, *args):
            built.append(args)
            original_init(self, *args)

        def counting_complex_init(self, *args):
            complexes.append(args)
            original_complex_init(self, *args)

        monkeypatch.setattr(homology, "smith_normal_form", counting)
        monkeypatch.setattr(homology._DegreeBasis, "__init__", counting_init)
        monkeypatch.setattr(homology.ChainComplexZ, "__init__", counting_complex_init)
        scans = []
        original_shape = SimplicialComplex.subset_shape

        def counting_shape(self, subset):
            scans.append(subset)
            return original_shape(self, subset)

        monkeypatch.setattr(SimplicialComplex, "subset_shape", counting_shape)
        first = ring_presentation(complex_, table=table)
        assert (len(first._contexts), len(first._bases), len(built)) == (439, 98, 98)
        assert len(scans) == len(first._shapes) == 98  # one scan per shape, not one per block
        # only the first block of each shape builds a chain complex
        assert len(complexes) == len(first._bases)
        assert len(calls) <= 2 * len(built)
        for subset, ctx in first._contexts.items():
            assert ctx.basis is first._bases[complex_.subset_shape(subset)]
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

        def classes(ctx):
            return [ctx.class_of(d, i) for i in range(len(ctx.basis.representatives(d)))]

        reps, twin_classes = b.basis.representatives(d), classes(b)
        own_reps, own_classes = a.basis.representatives(d), classes(a)
        a.basis.representatives(d)[0][0] += 7
        a.class_of(d, 0).cochain.clear()
        own_reps[0][:] = [0] * len(own_reps[0])
        own_classes[0].cochain.clear()
        assert b.basis.representatives(d) == reps
        assert classes(b) == twin_classes
        assert a.basis.representatives(d) == reps

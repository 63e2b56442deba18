"""Construction, faces, missing faces, and the staged 8-vertex sphere."""

import pickle
from itertools import combinations, permutations
from pathlib import Path

import pytest
from test_homology import RP2

from moment_angle import (
    EMPTY,
    SimplicialComplex,
    boundary_simplex,
    construct_p28_8,
    cross_polytope,
    mask_of,
    polygon,
    random_complexes,
    read_cplx,
    truncated_simplex,
    two_points,
    vertices_of,
    write_cplx,
)
from moment_angle.complexes import (
    P28_FACETS,
    P28_MISSING_FACES,
    SHAPE_TABLE_MAX_VERTICES,
    _relabeled,
)
from moment_angle.errors import (
    CapExceeded,
    IsolatedVertex,
    LabelCollision,
    NotAFacet,
    ParameterOutOfRange,
    ParseError,
    VertexOutOfRange,
)

DATA = Path(__file__).resolve().parent / "data"


def faces_tuples(complex_, d):
    return [vertices_of(f) for f in complex_.faces(d)]


def missing_tuples(complex_):
    return [vertices_of(f) for f in complex_.missing_faces()]


def isomorphic(a, b):
    """Brute-force isomorphism test for small complexes."""
    if a.m != b.m or len(a.facets) != len(b.facets):
        return False
    targets = set(b.facets)
    for perm in permutations(range(1, a.m + 1)):
        mapped = {mask_of(perm[v - 1] for v in vertices_of(f)) for f in a.facets}
        if mapped == targets:
            return True
    return False


class TestConstruction:
    def test_quadrilateral_antichain_kept(self):
        quad = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert len(quad.facets) == 4
        assert quad == polygon(4)

    def test_dominated_faces_dropped(self):
        merged = SimplicialComplex(3, [(1, 2), (2, 3), (1, 3), (1, 2, 3)])
        assert merged.facets == (mask_of((1, 2, 3)),)

    def test_p28_facets_accepted_unchanged(self):
        complex_ = SimplicialComplex(8, P28_FACETS)
        assert set(complex_.facets) == set(P28_FACETS)
        assert len(complex_.facets) == 18

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            SimplicialComplex(3, [(1, 4)])
        with pytest.raises(VertexOutOfRange):
            SimplicialComplex(3, [()])

    def test_label_below_one_is_out_of_range(self):
        with pytest.raises(VertexOutOfRange, match="1-based, got 0"):
            SimplicialComplex(3, [(0, 1)])
        with pytest.raises(VertexOutOfRange, match="1-based, got -2"):
            SimplicialComplex(3, [(1, 2), (-2, 3)])
        with pytest.raises(VertexOutOfRange, match="1-based, got 0"):
            polygon(4).full_subcomplex((0, 1))
        with pytest.raises(ValueError):  # the bitset helper keeps its own error
            mask_of((0, 1))

    def test_pickle_round_trips_with_a_filled_cache(self):
        complex_ = polygon(6)
        complex_.missing_faces()
        copy = pickle.loads(pickle.dumps(complex_))
        assert copy == complex_
        assert copy.missing_faces() == complex_.missing_faces()

    def test_isolated_vertex_rejected_unless_allowed(self):
        with pytest.raises(IsolatedVertex):
            SimplicialComplex(3, [(1, 2)])
        ghosted = SimplicialComplex(3, [(1, 2)], allow_ghosts=True)
        assert ghosted.ghost_vertices() == (3,)

    def test_millions_of_ghosts_refused_with_a_short_message(self):
        # the check must stay linear in m: a quadratic scan runs for minutes here
        with pytest.raises(IsolatedVertex) as raised:
            read_cplx("vertices 3000000\nfacet 1\n")
        message = str(raised.value)
        assert len(message) < 1024
        assert message.startswith("2999999 vertices lie in no facet: 2, 3, 4")

    def test_empty_complex(self):
        assert EMPTY.is_empty
        assert EMPTY.dim() == -1
        assert EMPTY.faces(-1) == [0]


class TestFaces:
    def test_quadrilateral_edges(self):
        assert faces_tuples(polygon(4), 1) == [(1, 2), (1, 4), (2, 3), (3, 4)]

    def test_p28_tetrahedra(self, p28):
        assert set(p28.faces(3)) == set(P28_FACETS)
        assert len(p28.faces(3)) == 18

    def test_p28_edges_by_independent_enumeration(self, p28):
        # oracle: a pair is an edge iff some facet contains it
        expected = sorted(
            pair
            for pair in combinations(range(1, 9), 2)
            if any(mask_of(pair) & ~f == 0 for f in P28_FACETS)
        )
        assert faces_tuples(p28, 1) == expected
        assert len(expected) == 26
        assert (5, 6) not in expected and (7, 8) not in expected

    def test_out_of_range_dimension_is_empty(self, p28):
        assert p28.faces(7) == []
        assert p28.faces(-2) == []

    def test_empty_face_listed_once(self, p28):
        assert p28.faces(-1) == [0]

    def test_f_vector(self, p28):
        assert p28.f_vector() == (8, 26, 36, 18)


class TestMissingFaces:
    def test_quadrilateral(self):
        assert missing_tuples(polygon(4)) == [(1, 3), (2, 4)]

    def test_p28_equals_the_ten_golden_sets(self, p28):
        assert p28.missing_faces() == P28_MISSING_FACES
        assert missing_tuples(p28) == [
            (5, 6), (7, 8), (1, 2, 3), (1, 2, 8), (1, 3, 4),
            (1, 4, 7), (2, 3, 5), (2, 5, 8), (3, 4, 6), (4, 6, 7),
        ]

    def test_boundary_simplex(self):
        assert missing_tuples(boundary_simplex(3)) == [(1, 2, 3, 4)]

    def test_elements_pairwise_incomparable(self, p28):
        missing = p28.missing_faces()
        for a in missing:
            for b in missing:
                if a != b:
                    assert a & ~b and b & ~a


# masks that are no subset of p28's vertices 1..8, and how each is refused
OUTSIDE_MASKS = [
    (-1, "subset mask -1 is negative, not within 0..255"),
    (-3, "subset mask -3 is negative, not within 0..255"),
    (1 << 8, r"subset \(9,\) not within 1..8"),
]


class TestFullSubcomplex:
    def test_p28_inner_square_block(self, p28):
        sub = p28.full_subcomplex((1, 2, 3, 4))
        assert missing_tuples(sub) == [(1, 2, 3), (1, 3, 4)]

    def test_p28_four_cycle(self, p28):
        sub = p28.full_subcomplex((5, 6, 7, 8))
        assert sub.parent_vertices == (5, 6, 7, 8)
        assert missing_tuples(sub) == [(1, 2), (3, 4)]
        assert isomorphic(sub, polygon(4))

    def test_whole_set_is_identity(self, p28):
        assert p28.full_subcomplex(tuple(range(1, 9))) == p28

    def test_empty_subset(self, p28):
        assert p28.full_subcomplex(()) == EMPTY

    @pytest.mark.parametrize("mask, message", OUTSIDE_MASKS)
    def test_mask_outside_the_subsets_is_refused(self, p28, mask, message):
        # -3 was once refused as if it named the vertices (1, 2)
        with pytest.raises(VertexOutOfRange, match=message):
            p28.full_subcomplex(mask)

    def test_missing_face_restriction(self, p28):
        # the minimal non-faces of a full subcomplex are the restrictions
        for subset in [(1, 2, 3, 4, 5), (2, 4, 6, 8), (1, 3, 5, 7), (5, 6, 7, 8)]:
            mask = mask_of(subset)
            sub = p28.full_subcomplex(mask)
            relabel = {v: i + 1 for i, v in enumerate(sub.parent_vertices)}
            expected = sorted(
                mask_of(relabel[v] for v in vertices_of(f))
                for f in p28.missing_faces()
                if f & ~mask == 0
            )
            assert sorted(sub.missing_faces()) == expected


SHAPE_INPUTS = [
    pytest.param(construct_p28_8(), id="p28"),
    pytest.param(RP2, id="rp2"),
    pytest.param(SimplicialComplex(7, [(1, 2, 3), (3, 4), (4, 5)], allow_ghosts=True), id="ghosts"),
    *(pytest.param(c, id=f"random{i}") for i, c in enumerate(random_complexes(20, seed=11))),
]


class TestSubsetShape:
    @pytest.mark.parametrize("complex_", SHAPE_INPUTS)
    def test_equal_shapes_exactly_when_full_subcomplexes_are_equal(self, complex_):
        pairs = set()
        for subset in range(1 << complex_.m):
            sub = complex_.full_subcomplex(subset)
            pairs.add((complex_.subset_shape(subset), (sub.m, sub.facets)))
        shapes = {shape for shape, _ in pairs}
        subcomplexes = {sub for _, sub in pairs}
        assert len(shapes) == len(pairs) == len(subcomplexes)

    @pytest.mark.parametrize("complex_", SHAPE_INPUTS)
    def test_table_matches_a_direct_scan(self, complex_):
        # ids are handed out in order of each shape's smallest mask
        missing = complex_.missing_faces()
        scans = [
            (subset.bit_count(), tuple(_relabeled(f, subset) for f in missing if not f & ~subset))
            for subset in range(1 << complex_.m)
        ]
        first: dict = {}
        expected = [first.setdefault(scan, len(first)) for scan in scans]
        assert complex_.shape_ids() == expected
        assert [complex_.shape_key(subset) for subset in range(1 << complex_.m)] == expected

    def test_no_table_past_the_cap(self):
        # one edge and 21 ghosts: the shape is scanned, no 2^23 table is built
        complex_ = SimplicialComplex(SHAPE_TABLE_MAX_VERTICES + 1, [(1, 2)], allow_ghosts=True)
        with pytest.raises(CapExceeded, match="shape table of 2\\^23 subsets"):
            complex_.shape_ids()
        assert complex_.shape_key((2, 3, 5)) == complex_.subset_shape((2, 3, 5))
        assert complex_.subset_shape((2, 3, 5)) == (3, (mask_of((2,)), mask_of((3,))))

    @pytest.mark.parametrize("mask, message", OUTSIDE_MASKS)
    def test_mask_outside_the_subsets_is_refused(self, p28, mask, message):
        # -1 once gave a one-vertex shape holding all ten missing faces
        with pytest.raises(VertexOutOfRange, match=message):
            p28.subset_shape(mask)

    def test_shape_relabels_missing_faces_within_the_subset(self, p28):
        # {5, 6} and {7, 8} are missing faces, on ranks 1, 2 of {5, 6, 7, 8}
        assert p28.subset_shape((5, 6, 7, 8)) == (4, (mask_of((1, 2)), mask_of((3, 4))))
        assert p28.subset_shape(()) == (0, ())


class TestJoinConeUnion:
    def test_two_points_joined_is_a_square(self):
        joined = two_points().join(two_points())
        assert isomorphic(joined, polygon(4))

    def test_join_with_empty_is_identity(self):
        quad = polygon(4)
        assert quad.join(EMPTY) == quad

    def test_three_pairs_join_to_octahedron(self):
        octa = two_points().join(two_points()).join(two_points())
        assert octa.f_vector() == (6, 12, 8)
        assert len(octa.facets) == 8

    def test_cone_over_quadrilateral(self):
        cone = polygon(4).cone(5)
        assert len(cone.facets) == 4
        assert all(f.bit_count() == 3 for f in cone.facets)

    def test_cone_label_collision(self):
        with pytest.raises(LabelCollision):
            polygon(4).cone(2)

    def test_union_idempotent(self, p28):
        assert p28.union(p28) == p28

    def test_stage_one_missing_faces(self):
        # gluing two cones over the first complex reproduces the documented
        # missing-face list of the intermediate stage
        k0 = SimplicialComplex(4, [(1, 2, 4), (2, 3, 4), (1, 3)])
        k1 = SimplicialComplex(4, [(1, 2, 4), (1, 3), (3, 4)])
        k2 = SimplicialComplex(4, [(1, 2, 4), (1, 3), (2, 3)])
        stage = k0.union(k1.cone(5)).union(k2.cone(6))
        assert missing_tuples(stage) == [(5, 6), (1, 2, 3), (1, 3, 4), (2, 3, 5), (3, 4, 6)]

    def test_join_associative_on_the_nose(self):
        a, b, c = two_points(), polygon(3), two_points()
        assert a.join(b).join(c) == a.join(b.join(c))


class TestStellarSubdivision:
    def test_triangle_edge_becomes_square(self):
        tri = boundary_simplex(2)
        square = tri.stellar_subdivide_facet((1, 2), 4)
        assert isomorphic(square, polygon(4))

    def test_tetrahedron_boundary_once(self):
        out = boundary_simplex(3).stellar_subdivide_facet((1, 2, 3), 5)
        assert out.m == 5
        assert len(out.facets) == 6

    def test_vertex_count_grows_by_one_per_step(self):
        for k, l in [(2, 3), (3, 2), (4, 1)]:
            assert truncated_simplex(k, l).m == k + 1 + l

    def test_not_a_facet(self):
        with pytest.raises(NotAFacet):
            boundary_simplex(3).stellar_subdivide_facet((1, 2), 5)


class TestBuilders:
    def test_boundary_simplex(self):
        b3 = boundary_simplex(3)
        assert b3.m == 4
        assert faces_tuples(b3, 2) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_cross_polytope_octahedron(self):
        assert cross_polytope(2).f_vector() == (6, 12, 8)

    def test_polygon_equals_cross_polytope_up_to_relabeling(self):
        assert isomorphic(polygon(4), cross_polytope(1))

    def test_truncated_simplex_small_cases(self):
        assert truncated_simplex(2, 0) == boundary_simplex(2)
        assert isomorphic(truncated_simplex(2, 2), polygon(5))

    def test_parameter_errors(self):
        with pytest.raises(ParameterOutOfRange):
            polygon(2)
        with pytest.raises(ParameterOutOfRange):
            boundary_simplex(0)
        with pytest.raises(ParameterOutOfRange):
            cross_polytope(0)
        with pytest.raises(ParameterOutOfRange):
            truncated_simplex(1, 1)


class TestStagedConstruction:
    def test_staged_equals_hardcoded(self, p28):
        assert p28.facets == tuple(sorted(P28_FACETS, key=lambda f: vertices_of(f)))

    def test_result_is_reproducible(self, p28):
        assert construct_p28_8() == p28


class TestCplxFormat:
    def test_round_trip(self, p28):
        assert read_cplx(write_cplx(p28)) == p28

    def test_golden_file_bit_exact(self, p28):
        golden = (DATA / "p28_8.cplx").read_text()
        assert write_cplx(p28) == golden

    def test_comments_and_whitespace(self):
        text = "# a comment\n  vertices   4 \nfacet 1 2\nfacet 2 3 # inline\nfacet 3 4\nfacet 1 4\n"
        assert read_cplx(text) == polygon(4)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("facet 1 2\n", 1),
            ("vertices 4\nfacet 1 9\n", 2),
            ("vertices x\n", 1),
            ("vertices 4\nfacet 1 1\n", 2),
            ("vertices 4\nwhat 1\n", 2),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as info:
            read_cplx(text)
        assert info.value.line_no == line

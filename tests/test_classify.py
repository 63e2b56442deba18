"""Sphere-product models, induced cycles, and the obstruction battery."""

import random
from itertools import combinations

import pytest

from moment_angle import (
    SimplicialComplex,
    boundary_simplex,
    construct_p28_8,
    cross_polytope,
    csp_obstructions,
    induced_cycles,
    model_betti,
    parse_model,
    polygon,
    two_points,
    verify_csp_model,
    vertices_of,
    zk_betti,
)
from moment_angle import classify
from moment_angle.classify import model_degree_contributions, model_product_rank
from moment_angle.errors import (
    GrammarError,
    NotASphereCandidate,
    ParameterOutOfRange,
    SphereDimBelow3,
    UnequalTotalDimension,
)
from moment_angle.reproduction import mcgavran_model
from moment_angle.ring import product_span_rank

TARGET = "3,3,6;5,7*8;6,6*8"


class TestParseModel:
    def test_target_model(self):
        model = parse_model(TARGET)
        assert model.summands == (((3, 3, 6), 1), ((5, 7), 8), ((6, 6), 8))
        assert model.total_dimension == 12
        assert model.max_factors() == 3

    def test_single_summand(self):
        assert parse_model("3,3").summands == (((3, 3), 1),)

    def test_multiplicities_merge(self):
        assert parse_model("3,4*2;4,3").summands == (((3, 4), 3),)

    def test_unequal_totals(self):
        with pytest.raises(UnequalTotalDimension):
            parse_model("3,4;5,5")

    def test_sphere_dim_below_three(self):
        with pytest.raises(SphereDimBelow3):
            parse_model("3,2")

    @pytest.mark.parametrize("bad", ["", "3,,4", "3;*2", "3,4*x", "3,4*0"])
    def test_grammar_errors(self, bad):
        with pytest.raises(GrammarError):
            parse_model(bad)


class TestModelBetti:
    def test_target_table(self):
        assert model_betti(parse_model(TARGET)) == {
            0: 1, 3: 2, 5: 8, 6: 18, 7: 8, 9: 2, 12: 1,
        }

    def test_two_spheres(self):
        assert model_betti(parse_model("3,3")) == {0: 1, 3: 2, 6: 1}

    def test_pentagon_model(self):
        assert model_betti(parse_model("3,4*5")) == {0: 1, 3: 5, 4: 5, 7: 1}

    def test_poincare_symmetry_of_models(self):
        for text in [TARGET, "3,3", "3,4*5", "3,3,3,3", "4,5,6;7,8*3"]:
            table = model_betti(parse_model(text))
            top = max(table)
            for p, value in table.items():
                assert table[top - p] == value

    def test_degree_contributions(self):
        contributions = model_degree_contributions(parse_model(TARGET), 6)
        counts = sorted(count for _, _, count in contributions)
        assert counts == [1, 1, 16]

    def test_product_rank_counts(self):
        model = parse_model(TARGET)
        assert model_product_rank(model, 2).get(6, 0) == 1  # the 3+3 sub-collection
        assert model_product_rank(model, 2).get(9, 0) == 2  # two 3+6 sub-collections
        assert model_product_rank(model, 2).get(7, 0) == 0
        assert model_product_rank(model, 3).get(9, 0) == 0
        assert model_product_rank(model, 2) == {6: 1, 9: 2}
        assert model_product_rank(model, 3) == {}


class TestVerifyModel:
    def test_p28_target_consistent(self, p28):
        result = verify_csp_model(p28, TARGET)
        assert result.consistent
        assert result.additive_ok and result.pairing_ok
        assert result.product_rank_ok and result.top_products_ok
        counts = sorted(c for _, _, c in result.degree_contributions[6])
        assert counts == [1, 1, 16]

    def test_quadrilateral(self):
        assert verify_csp_model(polygon(4), "3,3").consistent

    def test_wrong_model_fails_additively(self, p28):
        result = verify_csp_model(p28, "5,7*9;6,6*9")
        assert not result.consistent
        assert ("betti", 3, 2, 0) in result.mismatches

    def test_missing_triple_product_fails_the_rank_checks(self, p28):
        # same Betti numbers as the target, but no summand with three factors
        result = verify_csp_model(p28, "3,9*2;5,7*8;6,6*9")
        assert result.additive_ok and result.pairing_ok
        assert not result.product_rank_ok and not result.top_products_ok
        assert result.mismatches == [
            ("product-rank", 2, 6, 1, 0),
            ("product-rank", 2, 9, 2, 0),
            ("top-product", 3, "nonzero", 0),
        ]

    @pytest.mark.parametrize(
        "complex_, model, factor_counts",
        [
            pytest.param(construct_p28_8(), TARGET, [4], id="p28"),
            pytest.param(polygon(8), mcgavran_model(2, 5), [3], id="polygon8"),
        ],
    )
    def test_one_span_rank_fold_per_factor_count(self, monkeypatch, complex_, model, factor_counts):
        # one fold, to one past the largest summand, serves every factor count
        calls = []
        folds = []

        def counted(presentation, t, *rest):
            calls.append(t)
            folds.append((presentation, t, *rest))
            return product_span_rank(presentation, t, *rest)

        monkeypatch.setattr(classify, "product_span_rank", counted)
        assert verify_csp_model(complex_, model).consistent
        assert calls == factor_counts
        ((presentation, t, levels),) = folds
        assert levels == [product_span_rank(presentation, k) for k in range(1, t + 1)]

    def test_cross_polytopes_match_powers_of_three_spheres(self):
        for n in (2, 3, 4):
            complex_ = cross_polytope(n)
            model = ",".join(["3"] * (n + 1))
            result = verify_csp_model(complex_, model, max_vertices=complex_.m)
            assert result.consistent, (n, result.mismatches)

    def test_binomial_betti_of_cross_polytopes(self):
        from math import comb

        for n in (2, 3):
            table = {p: g.rank for p, g in zk_betti(cross_polytope(n)).items()}
            expected = {0: 1}
            for r in range(1, n + 2):
                expected[3 * r] = expected.get(3 * r, 0) + (
                    comb(n + 1, r) if r <= n else 1
                )
            assert table == expected


class TestInducedCycles:
    def test_p28_quadrangle(self, p28):
        assert induced_cycles(p28, 4, 4) == [(5, 7, 6, 8)]

    def test_p28_no_long_cycles(self, p28):
        assert induced_cycles(p28, 5, 8) == []

    def test_hexagon_is_its_own_cycle(self):
        assert induced_cycles(polygon(6), 6, 6) == [(1, 2, 3, 4, 5, 6)]

    def test_witnesses_are_polygon_subcomplexes(self, p28):
        for cycle in induced_cycles(p28, 4, 8):
            sub = p28.full_subcomplex(cycle)
            assert sub.dim() == 1
            assert len(sub.faces(1)) == len(cycle)
            missing = sub.missing_faces()
            assert all(f.bit_count() == 2 for f in missing)
            assert len(missing) == len(cycle) * (len(cycle) - 3) // 2

    def test_brute_force_oracle_on_octahedron(self):
        octa = cross_polytope(2)
        found = set(induced_cycles(octa, 4, 6))
        # oracle: check every vertex subset directly
        expected = set()
        for size in (4, 5, 6):
            for subset in combinations(range(1, 7), size):
                sub = octa.full_subcomplex(subset)
                missing = sub.missing_faces()
                edges = sub.faces(1)
                is_cycle = (
                    sub.dim() == 1
                    and len(edges) == size
                    and all(f.bit_count() == 2 for f in missing)
                    and len(missing) == size * (size - 3) // 2
                )
                if is_cycle:
                    expected.add(subset)
        assert {tuple(sorted(c)) for c in found} == expected

    def test_min_len_below_four_rejected(self, p28):
        with pytest.raises(ParameterOutOfRange, match="length >= 4, got 3"):
            induced_cycles(p28, 3, 5)


class TestInducedCyclesOracle:
    """``induced_cycles`` against networkx's chordless cycles of the edge graph."""

    @staticmethod
    def chordless_vertex_sets(complex_):
        nx = pytest.importorskip("networkx")
        graph = nx.Graph()
        graph.add_nodes_from(range(1, complex_.m + 1))
        graph.add_edges_from(vertices_of(e) for e in complex_.faces_by_dim().get(1, []))
        return {frozenset(c) for c in nx.chordless_cycles(graph) if len(c) >= 4}

    def check(self, complex_):
        expected = self.chordless_vertex_sets(complex_)
        found = induced_cycles(complex_, 4, max(complex_.m, 4))
        assert len(found) == len(set(map(frozenset, found)))
        assert set(map(frozenset, found)) == expected
        return len(expected)

    def test_p28(self, p28):
        assert self.check(p28) == 1

    def test_corpus(self, corpus):
        for complex_ in corpus:
            self.check(complex_)

    def test_random_graphs(self):
        rng = random.Random(2024)
        cycles = 0
        for _ in range(200):
            m = rng.randint(4, 10)
            edges = [e for e in combinations(range(1, m + 1), 2) if rng.random() < 0.4]
            graph = SimplicialComplex(m, edges + [(v,) for v in range(1, m + 1)])
            cycles += self.check(graph)
        assert cycles > 0


class TestObstructions:
    def test_p28_clean(self, p28):
        report = csp_obstructions(p28)
        assert not report.obstructed
        assert report.checks["quadrangle-pairs"][0] == "pass"
        assert report.degree_zero_classes == [(5, 6), (7, 8)]

    def test_octahedron_join_of_pairs(self):
        report = csp_obstructions(cross_polytope(2))
        assert report.checks["join-of-pairs"][0] == "pass"
        assert "3-fold product" in report.checks["join-of-pairs"][1]

    def test_cross_polytope_three(self):
        report = csp_obstructions(cross_polytope(3))
        assert report.checks["join-of-pairs"][0] == "pass"
        assert "4-fold product" in report.checks["join-of-pairs"][1]

    def test_pentagon_suspension_is_obstructed(self):
        sphere = polygon(5).join(two_points())
        report = csp_obstructions(sphere)
        assert report.obstructed
        verdict, witness = report.checks["long-induced-cycle"]
        assert verdict == "obstruction"
        assert witness == (1, 2, 3, 4, 5)

    def test_low_dimension_inapplicable(self):
        report = csp_obstructions(polygon(6))
        assert not report.applicable
        assert report.checks["all"][0] == "inapplicable"

    def test_non_sphere_rejected(self):
        with pytest.raises(NotASphereCandidate):
            csp_obstructions(SimplicialComplex(4, [(1, 2, 3, 4)]))

    def test_boundary_simplex_has_no_quadrangle(self):
        report = csp_obstructions(boundary_simplex(3))
        assert report.checks["quadrangle-pairs"][0] == "inapplicable"
        assert not report.obstructed

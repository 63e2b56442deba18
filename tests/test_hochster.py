"""The subset decomposition, its aggregation, and the duality checks."""

import json
import re
from fractions import Fraction

import pytest

from moment_angle import (
    Abelian,
    SimplicialComplex,
    alexander_duality_check,
    bigraded_betti,
    boundary_simplex,
    cross_check,
    cross_polytope,
    csp_obstructions,
    mask_of,
    poincare_check,
    polygon,
    ring_presentation,
    truncated_simplex,
    verify_csp_model,
    vertices_of,
    zk_betti,
)
from moment_angle import hochster, resolutions
from moment_angle.bitsets import lex_key
from moment_angle.errors import CapExceeded, NotASphereCandidate, ParameterOutOfRange
from moment_angle.hochster import _subsets
from moment_angle.reproduction import TARGET_MODEL
from test_homology import P28, RP2

Z = Abelian(1, ())

# the nine complementary pairs of 4-vertex subsets with noncontractible
# full subcomplexes; every left member contains vertex 1
FOUR_VERTEX_PAIRS = [
    ((1, 2, 3, 4), (5, 6, 7, 8)),
    ((1, 2, 3, 5), (4, 6, 7, 8)),
    ((1, 2, 3, 8), (4, 5, 6, 7)),
    ((1, 2, 5, 8), (3, 4, 6, 7)),
    ((1, 2, 7, 8), (3, 4, 5, 6)),
    ((1, 3, 4, 6), (2, 5, 7, 8)),
    ((1, 3, 4, 7), (2, 5, 6, 8)),
    ((1, 4, 6, 7), (2, 3, 5, 8)),
    ((1, 4, 7, 8), (2, 3, 5, 6)),
]


def brute_force_reduced_betti(complex_, subset):
    """Independent oracle: rational ranks of the reduced cochain complex."""
    faces = {-1: [0]}
    for d, fs in complex_.faces_by_dim().items():
        if d >= 0:
            kept = [f for f in fs if f & ~subset == 0]
            if kept:
                faces[d] = kept

    def coboundary_rank(d):
        lower = faces.get(d, [])
        upper = faces.get(d + 1, [])
        if not lower or not upper:
            return 0
        rows = []
        for up in upper:
            row = []
            for low in lower:
                sign = 0
                if low & ~up == 0:
                    (extra,) = [v for v in vertices_of(up) if not low >> (v - 1) & 1]
                    position = sum(1 for v in vertices_of(up) if v < extra)
                    sign = (-1) ** position
                row.append(Fraction(sign))
            rows.append(row)
        rank = 0
        cols = len(rows[0])
        for j in range(cols):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = 1 / rows[rank][j]
            rows[rank] = [x * inv for x in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][j]:
                    factor = rows[i][j]
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    out = {}
    top = max(faces)
    for d in range(-1, top + 1):
        betti = len(faces.get(d, [])) - coboundary_rank(d) - coboundary_rank(d - 1)
        if betti:
            out[d] = betti
    return out


class TestBigraded:
    def test_quadrilateral_by_brute_force(self):
        quad = polygon(4)
        table = bigraded_betti(quad)
        expected = {}
        for bits in range(16):
            for d, rank in brute_force_reduced_betti(quad, bits).items():
                expected[(bits, d)] = rank
        assert {k: g.rank for k, g in table.entries.items()} == expected
        assert set(table.entries) == {
            (0, -1),
            (mask_of((1, 3)), 0),
            (mask_of((2, 4)), 0),
            (mask_of((1, 2, 3, 4)), 1),
        }

    def test_pentagon_by_brute_force(self):
        pentagon = polygon(5)
        table = bigraded_betti(pentagon)
        expected = {}
        for bits in range(32):
            for d, rank in brute_force_reduced_betti(pentagon, bits).items():
                expected[(bits, d)] = rank
        assert {k: g.rank for k, g in table.entries.items()} == expected

    def test_unit_entry_present(self, p28):
        table = bigraded_betti(p28)
        assert table.group(0, -1) == Z

    def test_p28_class_census(self, p28):
        table = bigraded_betti(p28)
        census = {}
        for (subset, d), group in table.entries.items():
            census[(subset.bit_count(), d)] = census.get((subset.bit_count(), d), 0) + group.rank
        assert census == {
            (0, -1): 1,
            (2, 0): 2,
            (3, 1): 8,
            (4, 1): 18,
            (5, 1): 8,
            (6, 2): 2,
            (8, 3): 1,
        }

    def test_p28_two_vertex_classes(self, p28):
        table = bigraded_betti(p28)
        pairs = [vertices_of(s) for (s, d) in table.entries if d == 0 and s.bit_count() == 2]
        assert pairs == [(5, 6), (7, 8)]

    def test_p28_four_vertex_classes_match_table(self, p28):
        table = bigraded_betti(p28)
        found = {
            vertices_of(s)
            for (s, d) in table.entries
            if s.bit_count() == 4 and d == 1
        }
        expected = {left for left, right in FOUR_VERTEX_PAIRS}
        expected |= {right for left, right in FOUR_VERTEX_PAIRS}
        assert found == expected

    def test_p28_three_vertex_classes_are_missing_faces(self, p28):
        table = bigraded_betti(p28)
        triples = {vertices_of(s) for (s, d) in table.entries if s.bit_count() == 3}
        assert triples == {
            vertices_of(f) for f in p28.missing_faces() if f.bit_count() == 3
        }

    def test_boundary_simplex_has_only_two_entries(self):
        for k in (2, 3, 4):
            table = bigraded_betti(boundary_simplex(k))
            assert set(table.entries) == {(0, -1), ((1 << (k + 1)) - 1, k - 1)}

    @pytest.mark.parametrize(
        "complex_",
        [
            polygon(5),
            boundary_simplex(3),
            cross_polytope(2),
            RP2,  # torsion carried through the cone-link reduction
            P28,
            polygon(9),
            truncated_simplex(4, 6),
            cross_polytope(3),
        ],
        ids=["polygon-5", "simplex-boundary-3", "cross-polytope-2", "rp2", "p28", "polygon-9",
             "truncated-simplex-4-6", "cross-polytope-3"],
    )
    def test_prune_matches_unpruned(self, complex_):
        pruned = bigraded_betti(complex_, prune=True)
        unpruned = bigraded_betti(complex_, prune=False)
        assert pruned.entries == unpruned.entries
        assert list(pruned.entries) == list(unpruned.entries)

    @pytest.mark.parametrize("threads", [2, 0, 3, -3])
    def test_threads_other_than_one_are_refused(self, threads):
        with pytest.raises(ParameterOutOfRange, match=f"threads must be 1.*got {threads}"):
            bigraded_betti(polygon(6), threads=threads)
        assert bigraded_betti(polygon(6), threads=1).entries == bigraded_betti(polygon(6)).entries

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 12])
    def test_subsets_are_the_table_order(self, m):
        visited = list(_subsets(m))
        assert visited == sorted(range(1 << m), key=lambda s: (s.bit_count(), lex_key(s)))

    # reductions on these inputs reach back across sizes, to groups the
    # walk settled long before
    @pytest.mark.parametrize(
        "complex_", [P28, polygon(12), truncated_simplex(4, 6)], ids=["p28", "polygon-12", "truncated-simplex-4-6"]
    )
    def test_sweep_builds_each_subset_once(self, complex_, monkeypatch):
        built = []

        def recording(complex_, subset):
            built.append(subset)
            return subset_cohomology(complex_, subset)

        subset_cohomology = hochster._subset_cohomology
        monkeypatch.setattr(hochster, "_subset_cohomology", recording)
        pruned = bigraded_betti(complex_)
        assert 0 < len(built) == len(set(built)) < 1 << complex_.m
        monkeypatch.setattr(hochster, "_subset_cohomology", subset_cohomology)
        assert list(pruned.entries.items()) == list(bigraded_betti(complex_, prune=False).entries.items())

    def test_sweep_emits_table_order(self, small_corpus):
        # the table keeps the order the sweep gives it, so that order is pinned
        for complex_ in [*small_corpus, polygon(10), polygon(11), polygon(12), P28, RP2]:
            keys = list(bigraded_betti(complex_).entries)
            assert keys == sorted(keys, key=lambda key: (key[0].bit_count(), lex_key(key[0]), key[1]))

    def test_cap_refuses_large_ground_sets(self):
        with pytest.raises(CapExceeded):
            bigraded_betti(polygon(25))

    def test_cap_override_allows_the_run(self):
        # one vertex over the custom cap fails, raising the cap runs it
        with pytest.raises(CapExceeded):
            bigraded_betti(polygon(8), max_vertices=7)
        table = zk_betti(polygon(8), max_vertices=8)
        assert table[3].rank == 20


class TestZkBetti:
    def test_p28_table(self, p28):
        table = zk_betti(p28)
        assert {p: g.rank for p, g in table.items()} == {
            0: 1, 3: 2, 5: 8, 6: 18, 7: 8, 9: 2, 12: 1,
        }
        assert all(not g.torsion for g in table.values())

    def test_quadrilateral(self):
        assert {p: g.rank for p, g in zk_betti(polygon(4)).items()} == {0: 1, 3: 2, 6: 1}

    def test_pentagon(self):
        assert {p: g.rank for p, g in zk_betti(polygon(5)).items()} == {
            0: 1, 3: 5, 4: 5, 7: 1,
        }

    def test_hexagon(self):
        assert {p: g.rank for p, g in zk_betti(polygon(6)).items()} == {
            0: 1, 3: 9, 4: 16, 5: 9, 8: 1,
        }

    def test_top_degree_of_spheres(self):
        for complex_, n in [(boundary_simplex(3), 2), (cross_polytope(2), 2), (polygon(7), 1)]:
            table = zk_betti(complex_)
            top = complex_.m + n + 1
            assert table[top] == Z
            assert max(table) == top


class TestJsonReport:
    def test_schema_and_stability(self, p28):
        table = bigraded_betti(p28)
        payload = table.to_json_obj()
        assert list(payload) == ["m", "dim", "bigraded", "total"]
        assert payload["m"] == 8 and payload["dim"] == 3
        assert payload["bigraded"][0] == {"J": [], "d": -1, "rank": 1, "torsion": []}
        assert payload["total"][-1] == {"p": 12, "rank": 1, "torsion": []}
        assert json.dumps(payload) == json.dumps(bigraded_betti(p28).to_json_obj())

    def test_golden_file_bit_exact(self, p28):
        from pathlib import Path

        golden = Path(__file__).resolve().parent / "data" / "p28_zk.json"
        emitted = json.dumps(bigraded_betti(p28).to_json_obj(), indent=2) + "\n"
        assert emitted == golden.read_text()


class TestAlexanderDuality:
    def test_p28_all_subsets(self, p28):
        report = alexander_duality_check(p28)
        assert report.ok
        assert report.checked == 256 * 5

    def test_boundary_simplex_vacuous(self):
        assert alexander_duality_check(boundary_simplex(3)).ok

    def test_octahedron_diagonal_pair(self):
        octa = cross_polytope(2)
        assert alexander_duality_check(octa).ok
        table = bigraded_betti(octa)
        diagonal = mask_of((1, 2))
        complement = mask_of((3, 4, 5, 6))
        assert table.group(diagonal, 0) == Z
        assert table.group(complement, 1) == Z

    def test_rejects_non_spheres(self):
        with pytest.raises(NotASphereCandidate):
            alexander_duality_check(SimplicialComplex(4, [(1, 2, 3, 4)]))


class TestPoincare:
    def test_p28_symmetry(self, p28):
        report = poincare_check(p28)
        assert report.ok
        assert report.top == 12
        assert report.low_degrees_zero

    def test_quadrilateral(self):
        report = poincare_check(polygon(4))
        assert report.ok and report.top == 6

    def test_hexagon_values(self):
        report = poincare_check(polygon(6))
        assert report.ok and report.top == 8
        table = zk_betti(polygon(6))
        assert table[3].rank == table[5].rank == 9
        assert table[4].rank == 16

    def test_truncated_family(self):
        from moment_angle import truncated_simplex

        for k, l in [(2, 2), (3, 1), (3, 2)]:
            assert poincare_check(truncated_simplex(k, l)).ok


class TestGivenOrBuilt:
    """Sweep options beside a given table or presentation are refused, not dropped."""

    @pytest.mark.parametrize("options", [{"threads": 2}, {"bogus": 1, "prune": False}], ids=["threads", "bogus"])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda c, t, kw: ring_presentation(c, table=t, **kw), id="ring_presentation"),
            pytest.param(lambda c, t, kw: cross_check(c, table=t, **kw), id="cross_check"),
            pytest.param(lambda c, t, kw: csp_obstructions(c, table=t, **kw), id="csp_obstructions"),
            pytest.param(lambda c, t, kw: alexander_duality_check(c, table=t, **kw), id="alexander_duality_check"),
            pytest.param(lambda c, t, kw: poincare_check(c, table=t, **kw), id="poincare_check"),
            pytest.param(
                lambda c, t, kw: verify_csp_model(
                    c, TARGET_MODEL, presentation=ring_presentation(c, table=t), **kw
                ),
                id="verify_csp_model",
            ),
        ],
    )
    def test_options_beside_a_given_table_are_refused(self, call, options, monkeypatch):
        def no_taylor(*args, **kwargs):
            raise AssertionError("Taylor side started")

        table = bigraded_betti(P28)
        with monkeypatch.context() as patch:
            patch.setattr(resolutions, "taylor_bigraded", no_taylor)  # cross_check refuses first
            with pytest.raises(ParameterOutOfRange, match=re.escape(f"options {sorted(options)} would be ignored")):
                call(P28, table, options)
            # without a table the options reach the sweep, which refuses them too
            with pytest.raises((ParameterOutOfRange, TypeError)):
                call(P28, None, options)
        call(P28, table, {})  # the same call without the options runs

    def test_verify_refuses_a_presentation_of_another_complex(self):
        model = "3,7*15;4,6*40;5,5*45;6,4*24;7,3*5"
        assert verify_csp_model(polygon(8), model, presentation=ring_presentation(polygon(8))).consistent
        with pytest.raises(ParameterOutOfRange, match="presentation is of another complex"):
            verify_csp_model(polygon(8), model, presentation=ring_presentation(polygon(7)))

"""Oracles outside the library's reduction code.

Every group of the subset sweep, and of the Koszul and Taylor sides, comes
through ``ChainComplexZ``'s reduction pass and the library's own Smith
forms, so the three methods' agreement cannot see a fault they share there.
These tests build each full subcomplex K_J from the facets alone, with
``itertools.combinations``, and read its groups with sympy and networkx.
"""

from itertools import combinations

import pytest

from moment_angle import Abelian, bigraded_betti, two_points
from test_homology import RP2

# one case per input, so a failure names the input it came from
ORACLE_INPUTS = pytest.mark.parametrize(
    "inputs",
    [
        lambda corpus, p28: [p28],
        lambda corpus, p28: [RP2],
        lambda corpus, p28: [RP2.join(two_points())],
        lambda corpus, p28: corpus,
    ],
    ids=["p28", "rp2", "rp2-join-s0", "small-corpus"],
)


def facet_vertices(complex_):
    """Each facet as a sorted tuple of vertex labels."""
    labels = range(1, complex_.m + 1)
    return [tuple(v for v in labels if facet >> (v - 1) & 1) for facet in complex_.facets]


def faces_by_dim(complex_, subset):
    """d -> the d-faces of K_J as sorted vertex tuples, the empty face at d = -1."""
    faces = set()
    for facet in facet_vertices(complex_):
        inside = [v for v in facet if subset >> (v - 1) & 1]
        for k in range(len(inside) + 1):
            faces.update(combinations(inside, k))
    by_dim = {}
    for face in sorted(faces):
        by_dim.setdefault(len(face) - 1, []).append(face)
    return by_dim


def boundary_matrix(by_dim, d):
    """The boundary C_d -> C_{d-1}, rows the (d - 1)-faces, with the usual alternating signs."""
    rows = {face: i for i, face in enumerate(by_dim.get(d - 1, []))}
    cols = by_dim.get(d, [])
    mat = [[0] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        for i in range(len(face)):
            mat[rows[face[:i] + face[i + 1 :]]][j] = (-1) ** i
    return mat


def sympy_cohomology(complex_, subset):
    """d -> H~^d(K_J) over Z from sympy's invariant factors of each boundary matrix.

    With r_d the rank of the boundary C_d -> C_{d-1}, H~^d has rank
    n_d - r_d - r_{d+1}, and its torsion is that of H~_{d-1}: the
    invariant factors of C_d -> C_{d-1} above 1.
    """
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    by_dim = faces_by_dim(complex_, subset)
    factors = {}
    for d in range(max(by_dim) + 2):
        mat = boundary_matrix(by_dim, d)
        nonzero = invariant_factors(Matrix(mat), domain=ZZ) if mat and mat[0] else ()
        factors[d] = [abs(int(e)) for e in nonzero if e]
    return {
        d: Abelian(
            len(faces) - len(factors.get(d, ())) - len(factors[d + 1]),
            tuple(e for e in factors.get(d, ()) if e > 1),
        )
        for d, faces in by_dim.items()
    }


@ORACLE_INPUTS
@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_every_group_matches_sympy(inputs, prune, small_corpus, p28):
    # every degree of every K_J, zero groups and torsion included, and no
    # entry in a degree K_J does not have; unpruned, every K_J goes through
    # a chain complex of its own and the library's reduction
    pytest.importorskip("sympy")
    for complex_ in inputs(small_corpus, p28):
        table = bigraded_betti(complex_, prune=prune)
        nonzero = set()
        for subset in range(1 << complex_.m):
            for d, group in sympy_cohomology(complex_, subset).items():
                assert table.group(subset, d) == group, (complex_, subset, d)
                if not group.is_zero:
                    nonzero.add((subset, d))
        assert set(table.entries) == nonzero, complex_


@ORACLE_INPUTS
def test_reduced_h0_counts_the_components_of_the_one_skeleton(inputs, small_corpus, p28):
    # for nonempty J without ghosts, H~^0(K_J) = Z^(components - 1); a
    # ghost would be a component of the graph but is no face of K_J
    nx = pytest.importorskip("networkx")
    checked = 0
    for complex_ in inputs(small_corpus, p28):
        table = bigraded_betti(complex_)
        support = complex_.vertex_support()
        facets = facet_vertices(complex_)
        for subset in range(1, 1 << complex_.m):
            if subset & ~support:
                continue
            graph = nx.Graph()
            graph.add_nodes_from(v for v in range(1, complex_.m + 1) if subset >> (v - 1) & 1)
            for facet in facets:
                graph.add_edges_from(combinations([v for v in facet if subset >> (v - 1) & 1], 2))
            components = nx.number_connected_components(graph)
            assert table.group(subset, 0) == Abelian(components - 1, ()), (complex_, subset)
            checked += 1
    assert checked

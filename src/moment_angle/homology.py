"""Reduced integral (co)homology of simplicial complexes.

Chain complexes are reduced: degree -1 is the empty face, and the
augmentation C_0 -> C_-1 is part of the boundary data.  Faces are oriented
by increasing vertex labels and boundary signs come from position parity,
which pins down every sign used elsewhere in the library.

Group data (ranks and torsion) comes from invariant factors of the boundary
matrices.  Explicit cocycle representatives, needed for cup products, come
from the fully tracked Smith normal form in :class:`CohomologyBasis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .bitsets import iter_vertices
from .complexes import SimplicialComplex
from .errors import NotACocycle, NotPure
from .snf import identity, invariant_factors_sparse, matmul, matvec, smith_normal_form


class Abelian(NamedTuple):
    """A finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    torsion: tuple = ()

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def describe(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = Abelian(0, ())


def _factor_small(n: int) -> dict:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def merge_torsion(torsion_lists) -> tuple:
    """Canonical invariant factors of a direct sum of cyclic groups.

    Summands from different sources need recombining: Z/2 + Z/3 is Z/6 as a
    divisor chain.  Exponents per prime are sorted so the largest factors
    pair up, then the chain is returned in ascending divisibility order.
    """
    by_prime: dict[int, list] = {}
    for torsion in torsion_lists:
        for t in torsion:
            for p, e in _factor_small(t).items():
                by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    depth = max(len(es) for es in by_prime.values())
    factors = [1] * depth
    for p, es in by_prime.items():
        es.sort(reverse=True)
        for i, e in enumerate(es):
            factors[i] *= p**e
    return tuple(reversed(factors))


def sum_groups(pairs) -> dict:
    """Direct sums by key: ``(key, Abelian)`` pairs in, sorted ``{key: sum}`` out."""
    ranks: dict = {}
    torsion: dict = {}
    for key, group in pairs:
        ranks[key] = ranks.get(key, 0) + group.rank
        torsion.setdefault(key, []).append(group.torsion)
    return {key: Abelian(ranks[key], merge_torsion(torsion[key])) for key in sorted(ranks)}


def homology_groups(sizes: dict, factors: dict) -> dict:
    """Homology of a complex of free abelian groups, one group per key of ``sizes``.

    ``sizes[k]`` is the rank of C_k and ``factors[k]`` the invariant factors
    of the differential C_k -> C_{k-1}.  The free rank at k is the size minus
    the ranks of the maps out of and into C_k; the torsion is the non-unit
    factors of the map into it.  Zero groups are kept.
    """
    out = {}
    for k, size in sizes.items():
        into = factors.get(k + 1, ())
        free = size - len(factors.get(k, ())) - len(into)
        out[k] = Abelian(free, tuple([t for t in into if t > 1]))
    return out


class ChainComplexZ:
    """Reduced chain complex of an explicit face list.

    ``faces_by_dim`` maps each degree d >= -1 to the ordered list of d-face
    masks, and ``columns`` maps each face to its boundary column, as in
    :meth:`SimplicialComplex.boundary_table`.  The face lists may come from
    a complex or from a full subcomplex kept in parent labels; only the
    relative order of vertex labels matters.

    Invariant factors come from the complex's cached boundary table, keyed
    by face masks, so building the complex of one subset re-derives nothing.
    ``boundary_entries`` is the local-index form, used by cocycle bases.
    """

    def __init__(self, faces_by_dim: dict, columns: dict):
        self.faces = {d: fs for d, fs in faces_by_dim.items() if fs}
        self.columns = columns
        self.top = max(self.faces) if self.faces else -1
        self._factors = None

    @classmethod
    def of_complex(cls, complex_: SimplicialComplex) -> "ChainComplexZ":
        return cls(complex_.faces_by_dim(), complex_.boundary_table())

    @classmethod
    def of_subset(cls, complex_: SimplicialComplex, subset: int) -> "ChainComplexZ":
        return cls(complex_.subset_faces_by_dim(subset), complex_.boundary_table())

    @cached_property
    def index(self) -> dict:
        """Position of each face within its degree: d -> {face: i}."""
        return {d: {f: i for i, f in enumerate(fs)} for d, fs in self.faces.items()}

    def n_faces(self, d: int) -> int:
        return len(self.faces.get(d, ()))

    def boundary_entries(self, d: int) -> dict:
        """Sparse boundary matrix of C_d -> C_{d-1} as {row: {col: sign}}."""
        rows_index = self.index.get(d - 1, {})
        entries: dict[int, dict[int, int]] = {}
        for j, face in enumerate(self.faces.get(d, [])):
            for sub, sign in self.columns[face].items():
                entries.setdefault(rows_index[sub], {})[j] = sign
        return entries

    def boundary_matrix(self, d: int) -> list:
        rows = self.n_faces(d - 1)
        cols = self.n_faces(d)
        mat = [[0] * cols for _ in range(rows)]
        for i, row in self.boundary_entries(d).items():
            for j, v in row.items():
                mat[i][j] = v
        return mat

    def coboundary_matrix(self, d: int) -> list:
        """Matrix of delta: C^d -> C^{d+1}, the transpose of boundary(d+1)."""
        rows = self.n_faces(d + 1)
        cols = self.n_faces(d)
        mat = [[0] * cols for _ in range(rows)]
        for i, row in self.boundary_entries(d + 1).items():
            for j, v in row.items():
                mat[j][i] = v
        return mat

    def boundary_factor_table(self) -> dict:
        """Invariant factors of every boundary matrix, degree -1 .. top + 1.

        The complex is reduced, so the augmentation C_0 -> C_-1 has the
        single factor 1 whenever there are vertices, and nothing maps out
        of C_-1.  For d >= 1 the rows are the d-faces' boundary columns
        read from ``columns``: the transpose of ``boundary_entries(d)``,
        which has the same invariant factors.
        """
        if self._factors is None:
            columns = self.columns
            factors = {-1: [], 0: [1] if self.n_faces(0) else []}
            for d in range(1, self.top + 2):
                factors[d] = invariant_factors_sparse(
                    {f: columns[f] for f in self.faces.get(d, ())}
                )
            self._factors = factors
        return self._factors

    def homology(self) -> dict:
        """Reduced homology groups, degrees -1 .. top, zero groups included."""
        sizes = {d: self.n_faces(d) for d in range(-1, self.top + 1)}
        return homology_groups(sizes, self.boundary_factor_table())

    def cohomology(self) -> dict:
        """Reduced cohomology groups; torsion shifts one degree up."""
        out, below = {}, ()
        for d, g in self.homology().items():
            out[d] = Abelian(g.rank, below)
            below = g.torsion
        return out


def reduced_homology(complex_: SimplicialComplex) -> dict:
    """Reduced homology of a complex; the EMPTY complex has H_-1 = Z."""
    return ChainComplexZ.of_complex(complex_).homology()


def reduced_cohomology(complex_: SimplicialComplex) -> dict:
    return ChainComplexZ.of_complex(complex_).cohomology()


class Expression(NamedTuple):
    """Coordinates of a cocycle class in a chosen basis.

    ``free`` are integer coefficients over the free-part representatives;
    ``torsion`` are residues modulo the matching torsion orders.
    """

    free: tuple
    torsion: tuple

    @property
    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


class _DegreeBasis:
    """Cocycle representatives and coordinates for one cochain degree."""

    def __init__(self, cc: ChainComplexZ, d: int):
        self.faces = cc.faces.get(d, [])
        n = len(self.faces)
        self.n = n
        self.delta_out = cc.coboundary_matrix(d)
        n_up = cc.n_faces(d + 1)
        if n_up and n:
            out_snf = smith_normal_form(self.delta_out, rows=n_up, cols=n)
            rank_out = out_snf.rank
            v, v_inv = out_snf.v, out_snf.v_inv
        else:
            rank_out = 0
            v = identity(n)
            v_inv = identity(n)
        self._v_inv = v_inv
        self.kernel_indices = list(range(rank_out, n))
        k = len(self.kernel_indices)
        # coboundary images of (d-1)-cochains, written in kernel coordinates
        delta_in = cc.coboundary_matrix(d - 1)
        n_down = cc.n_faces(d - 1)
        coords = matmul([v_inv[i] for i in self.kernel_indices], delta_in)
        if k and n_down:
            quo = smith_normal_form(coords, rows=k, cols=n_down)
            diag = [quo.d[i][i] for i in range(min(k, n_down))]
            u_c, u_c_inv = quo.u, quo.u_inv
        else:
            diag = []
            u_c = identity(k)
            u_c_inv = identity(k)
        self._u_c = u_c
        diag = list(diag) + [0] * (k - len(diag))
        self.free_indices = [i for i, s in enumerate(diag) if s == 0]
        self.torsion_orders = [(i, s) for i, s in enumerate(diag) if s > 1]
        self.group = Abelian(len(self.free_indices), tuple(s for _, s in self.torsion_orders))
        # representatives: kernel basis combined through columns of u_c^-1
        self.representatives = []
        self.signs = []
        kernel_basis = [[row[c] for row in v] for c in self.kernel_indices]
        weights = [[row[idx] for row in u_c_inv] for idx in self.free_indices]
        for vec in matmul(weights, kernel_basis):
            sign = 1
            for x in vec:
                if x:
                    sign = 1 if x > 0 else -1
                    break
            self.representatives.append([sign * x for x in vec])
            self.signs.append(sign)

    def express(self, vec: list) -> Expression:
        if len(vec) != self.n:
            raise NotACocycle(f"cochain has length {len(vec)}, expected {self.n}")
        if any(matvec(self.delta_out, vec)):
            raise NotACocycle("coboundary of the cochain is nonzero")
        y = matvec(self._v_inv, vec)
        w = [y[i] for i in self.kernel_indices]
        z = matvec(self._u_c, w)
        free = tuple(self.signs[pos] * z[idx] for pos, idx in enumerate(self.free_indices))
        torsion = tuple(z[idx] % s for idx, s in self.torsion_orders)
        return Expression(free=free, torsion=torsion)


class CohomologyBasis:
    """Explicit integer cocycle bases for every degree of a chain complex.

    Representatives generate the free part of reduced cohomology; they are
    normalized so the first nonzero coordinate (in face order) is positive,
    making golden tests deterministic.  ``express`` writes any cocycle in
    the chosen basis, with torsion residues reported separately.
    """

    def __init__(self, cc: ChainComplexZ):
        self.cc = cc
        self._degrees: dict[int, _DegreeBasis] = {}

    @classmethod
    def of_complex(cls, complex_: SimplicialComplex) -> "CohomologyBasis":
        return cls(ChainComplexZ.of_complex(complex_))

    def degree(self, d: int) -> _DegreeBasis:
        basis = self._degrees.get(d)
        if basis is None:
            basis = _DegreeBasis(self.cc, d)
            self._degrees[d] = basis
        return basis

    def group(self, d: int) -> Abelian:
        if d < -1 or d > self.cc.top:
            return ZERO_GROUP
        return self.degree(d).group

    def representatives(self, d: int) -> list:
        if d < -1 or d > self.cc.top:
            return []
        return [list(r) for r in self.degree(d).representatives]

    def faces(self, d: int) -> list:
        return list(self.cc.faces.get(d, []))

    def express(self, vec: list, d: int) -> Expression:
        if d < -1 or d > self.cc.top:
            if any(vec):
                raise NotACocycle(f"no faces in degree {d}")
            return Expression((), ())
        return self.degree(d).express(vec)


def reduced_cohomology_basis(complex_: SimplicialComplex) -> CohomologyBasis:
    return CohomologyBasis.of_complex(complex_)


@dataclass
class SphereCheck:
    """Necessary (not sufficient) conditions for being a simplicial sphere."""

    dim: int
    ridge_degrees_ok: bool
    facet_graph_connected: bool
    euler_characteristic: int
    euler_ok: bool
    homology_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.ridge_degrees_ok
            and self.facet_graph_connected
            and self.euler_ok
            and self.homology_ok
        )


def pseudo_sphere_check(complex_: SimplicialComplex) -> SphereCheck:
    """Closed pseudomanifold + connectivity + Euler + sphere homology."""
    if complex_.is_empty:
        raise NotPure("the empty complex has no facets")
    sizes = {f.bit_count() for f in complex_.facets}
    if len(sizes) != 1:
        dims = sorted(s - 1 for s in sizes)
        raise NotPure(f"facets of mixed dimensions {dims}")
    n = complex_.dim()
    facets = complex_.facets
    ridge_members: dict[int, list] = {}
    for idx, f in enumerate(facets):
        for v in iter_vertices(f):
            ridge_members.setdefault(f & ~(1 << (v - 1)), []).append(idx)
    ridges_ok = all(len(mem) == 2 for mem in ridge_members.values())
    # connectivity of the facet adjacency graph
    adjacency: dict[int, set] = {i: set() for i in range(len(facets))}
    for mem in ridge_members.values():
        for a in mem:
            for b in mem:
                if a != b:
                    adjacency[a].add(b)
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop()
        for nxt in adjacency[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    connected = len(seen) == len(facets)
    chi = complex_.euler_characteristic()
    euler_ok = chi == 1 + (-1) ** n
    groups = reduced_homology(complex_)
    homology_ok = all(
        (g == Abelian(1, ()) if d == n else g.is_zero) for d, g in groups.items()
    )
    return SphereCheck(
        dim=n,
        ridge_degrees_ok=ridges_ok,
        facet_graph_connected=connected,
        euler_characteristic=chi,
        euler_ok=euler_ok,
        homology_ok=homology_ok,
    )


def describe_groups(groups: dict) -> str:
    lines = []
    for d in sorted(groups):
        g = groups[d]
        if not g.is_zero:
            lines.append(f"H~_{d} = {g.describe()}")
    return "; ".join(lines) if lines else "trivial"

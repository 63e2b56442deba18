"""Integral (co)homology of based free chain complexes, simplicial ones first.

:class:`ChainComplexZ` holds any based free complex; it serves the subset
complexes here and the Koszul and Taylor complexes of :mod:`.resolutions`.
Simplicial chain complexes are reduced: degree -1 is the empty face, and the
augmentation C_0 -> C_-1 is part of the boundary data.  Faces are oriented
by increasing vertex labels and boundary signs come from position parity,
which pins down every sign used elsewhere in the library.

Group data (ranks and torsion) comes from the invariant factors of what a
reduction pass across all degrees leaves of the boundary matrices.  Explicit
cocycle representatives, needed for cup products, come from two Smith normal
forms per degree in :class:`CohomologyBasis`, each tracking only the side of
transforms it is read for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .bitsets import iter_vertices
from .complexes import SimplicialComplex
from .errors import NotACocycle, NotPure
from .snf import _diag_snf, invariant_factors_sparse, matmul, smith_normal_form


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


def merge_torsion(torsion_lists) -> tuple:
    """Canonical invariant factors of a direct sum of cyclic groups.

    Summands from different sources need recombining: Z/2 + Z/3 is Z/6 as a
    divisor chain.  The chain is the Smith diagonal of the diagonal matrix
    of the orders, without its unit entries, in ascending divisibility order.
    """
    orders = [t for torsion in torsion_lists for t in torsion]
    if not orders:
        return ()
    n = len(orders)
    diagonal = [[t if i == j else 0 for j in range(n)] for i, t in enumerate(orders)]
    return tuple(t for t in _diag_snf(diagonal) if t > 1)


def sum_groups(pairs) -> dict:
    """Direct sums by key: ``(key, Abelian)`` pairs in, sorted ``{key: sum}`` out."""
    ranks: dict = {}
    torsion: dict = {}
    for key, group in pairs:
        ranks[key] = ranks.get(key, 0) + group.rank
        torsion.setdefault(key, []).append(group.torsion)
    return {key: Abelian(ranks[key], merge_torsion(torsion[key])) for key in sorted(ranks)}


class ChainComplexZ:
    """A based free chain complex over the integers, with its homology.

    ``faces_by_dim`` maps each degree to the ordered list of its basis
    elements, and ``columns`` maps each basis element to its boundary
    column ``{element one degree lower: coefficient}``.  Basis elements are
    integer keys, distinct across degrees: face masks for a simplicial
    complex (degree -1 is the empty face, as in
    :meth:`SimplicialComplex.boundary_table`, so homology is reduced),
    encoded monomials for the Koszul pieces and Taylor strata of
    :mod:`.resolutions`.  A subcomplex may reuse its parent's table.

    :meth:`homology`, :meth:`cohomology` and :meth:`summand_homology` read
    their groups one way.  One reduction pass across all degrees
    (:meth:`_reduction_pass`) pairs coreductions (an element with a single
    +-1 boundary entry) and, once those stall, free faces (an element with
    a single coface, on a +-1 entry); the survivors' columns, restricted to
    one another, are eliminated degree by degree (:func:`_leftover_factors`);
    and :func:`_groups` turns those factors into groups.  A removed pair
    takes one element from each of two adjacent degrees and one unit factor
    from the map between them, so the survivors have the complex's groups.
    ``simplicial`` is set by :meth:`of_complex` and :meth:`of_subset` only:
    the pass's critical-vertex step relies on every edge column being v - u.
    ``boundary_entries`` and :meth:`coboundary_matrix` give one map in local
    indices (positions within a degree), the second for cocycle bases.
    """

    simplicial = False

    def __init__(self, faces_by_dim: dict, columns: dict):
        self.faces = {d: fs for d, fs in faces_by_dim.items() if fs}
        self.columns = columns
        self.bottom = min(self.faces) if self.faces else 0
        self.top = max(self.faces) if self.faces else -1
        self.degrees = range(self.bottom, self.top + 1)
        self._left = None

    @classmethod
    def _simplicial(cls, faces_by_dim: dict, table: dict) -> "ChainComplexZ":
        cc = cls(faces_by_dim, table)
        cc.simplicial = True
        return cc

    @classmethod
    def of_complex(cls, complex_: SimplicialComplex) -> "ChainComplexZ":
        return cls._simplicial(complex_.faces_by_dim(), complex_.boundary_table())

    @classmethod
    def of_subset(cls, complex_: SimplicialComplex, subset: int) -> "ChainComplexZ":
        return cls._simplicial(complex_.subset_faces_by_dim(subset), complex_.boundary_table())

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

    def coboundary_matrix(self, d: int) -> list:
        """Matrix of delta: C^d -> C^{d+1}, the transpose of boundary(d+1).

        Row j is the boundary column of the j-th element of degree d + 1,
        read straight from ``columns``.
        """
        index = self.index.get(d, {})
        n = len(index)
        columns = self.columns
        mat = []
        for face in self.faces.get(d + 1, ()):
            row = [0] * n
            for sub, sign in columns[face].items():
                row[index[sub]] = sign
            mat.append(row)
        return mat

    def _reduction_pass(self) -> tuple:
        """``(alive, critical)`` after pairing off all it can, across degrees.

        ``alive`` maps each element left to how many elements left its
        column names, and ``critical`` counts the vertices dropped as free
        generators of H~_0 (simplicial complexes only).

        Two moves remove a pair of basis elements, one from degree d and one
        from d - 1, whose entry in the restricted d-th boundary is +-1:

        * a coreduction: an element whose boundary, among the elements still
          present, is a single element (Mrozek and Batko, *Coreduction
          homology algorithm*, 2009);
        * a free face: an element with a single coface still present
          (Kaczynski, Mrozek and Slusarek, *Homology computation by
          reduction of chain complexes*, 1998).

        Either pair is a unimodular change of basis that leaves the other
        columns as they were, restricted to what is left, and it adds one
        unit factor to the map out of the upper element's degree.

        Boundary counts (elements still present in each column) are kept
        from the start.  Coface counts are made only once coreductions stall
        with a nonempty column left, so a complex that coreduces down to its
        homology generators never pays for them.  From then on a removal
        updates both counts, and an element whose count falls to 1 is
        queued for the matching move.  Both queues are worked first in,
        first out.  The order changes no factor, only how far the moves
        reach: newest first left 85,113 elements of the largest Taylor
        stratum of the 8-cycle with chords {1,5}, {2,6} for elimination,
        oldest first leaves 3.
        """
        faces, columns = self.faces, self.columns
        # alive: element -> how many elements still present its column names;
        # columns name only basis elements, since a subcomplex is closed
        # under the boundary
        alive = {}
        cofaces = {}
        for fs in faces.values():
            for f in fs:
                alive[f] = len(columns[f])
                cofaces[f] = []
        for f in alive:
            for g in columns[f]:
                cofaces[g].append(f)
        queue = deque(f for f, n in alive.items() if n == 1)
        # up: element -> how many of its cofaces are still present, made
        # once queue and critical vertices run dry with some column still
        # nonempty (a free face's coface has one); free holds those at 1
        up = None
        free = deque()
        # Simplicial only: once the queue is empty, every vertex left has an
        # empty boundary, and every edge left has both its vertices or
        # neither (with one it would have been paired, and a free face
        # takes a vertex with its only edge), so the rows of each component
        # of the remaining graph sum to zero.  Dropping one vertex per
        # component then keeps the factors of the map out of degree 1 and
        # leaves that vertex as a free generator of H~_0.
        vertices = iter(faces.get(0, ()) if self.simplicial else ())
        critical = 0
        while True:
            if queue:
                f = queue.popleft()
                if alive.get(f) != 1:
                    continue
                for g, c in columns[f].items():
                    if g in alive:
                        break
                if c != 1 and c != -1:
                    continue
                removed = (f, g)
            elif free:
                f = free.popleft()
                if up.get(f) != 1:
                    continue
                for g in cofaces[f]:
                    if g in alive:
                        break
                c = columns[g][f]
                if c != 1 and c != -1:
                    continue
                removed = (f, g)
            else:
                v = next((v for v in vertices if alive.get(v) == 0), None)
                if v is not None:
                    critical += 1
                    removed = (v,)
                elif up is None and any(alive.values()):
                    up = {f: sum(h in alive for h in cofaces[f]) for f in alive}
                    free.extend(f for f, n in up.items() if n == 1)
                    continue
                else:
                    break
            for x in removed:
                del alive[x]
                for h in cofaces[x]:
                    n = alive.get(h)
                    if n:
                        alive[h] = n - 1
                        if n == 2:
                            queue.append(h)
                if up is not None:
                    del up[x]
                    for h in columns[x]:
                        n = up.get(h)
                        if n:
                            up[h] = n - 1
                            if n == 2:
                                free.append(h)
        return alive, critical

    def _survivors(self) -> tuple:
        """``(survivors, factors, critical)`` from one reduction pass, cached.

        ``survivors`` lists, per degree, the elements :meth:`_reduction_pass`
        leaves, ``factors`` the invariant factors of their restricted
        columns (:func:`_leftover_factors`), and ``critical`` the vertices
        it dropped as free generators of H~_0.
        """
        if self._left is None:
            alive, critical = self._reduction_pass()
            survivors = {d: [f for f in fs if f in alive] for d, fs in self.faces.items()}
            self._left = (survivors, _leftover_factors(survivors, self.columns, alive), critical)
        return self._left

    def homology(self) -> dict:
        """Homology groups; torsion comes from the map into the degree."""
        return _groups(*self._survivors(), self.degrees, 1)

    def cohomology(self) -> dict:
        """Cohomology groups; torsion comes from the map one degree lower."""
        return _groups(*self._survivors(), self.degrees, 0)

    def summand_homology(self, summand_of) -> dict:
        """Homology of each direct summand, from one reduction pass over the sum.

        ``summand_of`` maps each element to the key of its summand, and no
        column may name an element of another summand; the complex must not
        be simplicial, whose pass also drops vertices.  Both moves of the
        pass pair two elements of one summand and change nothing elsewhere,
        so each summand is left as its own pass would leave it, and its
        survivors give its groups, read as :meth:`homology` reads a whole
        complex's.  Returns ``{key: {d: group}}`` with nonzero groups only,
        so summands with zero homology are absent.
        """
        alive, _ = self._reduction_pass()
        survivors: dict = {}  # key -> d -> survivors
        for d, fs in self.faces.items():
            for f in fs:
                if f in alive:
                    survivors.setdefault(summand_of(f), {}).setdefault(d, []).append(f)
        out = {}
        for key, left in survivors.items():
            groups = _groups(left, _leftover_factors(left, self.columns, alive), 0, sorted(left), 1)
            groups = {d: group for d, group in groups.items() if not group.is_zero}
            if groups:
                out[key] = groups
        return out


def _leftover_factors(survivors: dict, columns: dict, alive) -> dict:
    """Invariant factors of each degree's survivors, columns restricted to ``alive``.

    Degrees whose restricted columns are all zero are absent.
    """
    factors = {}
    for d, left in survivors.items():
        rows = {}
        for f in left:
            row = {g: c for g, c in columns[f].items() if g in alive}
            if row:
                rows[f] = row
        if rows:
            factors[d] = invariant_factors_sparse(rows)
    return factors


def _groups(survivors: dict, factors: dict, critical: int, degrees, torsion_shift: int) -> dict:
    """One group per degree in ``degrees``, zero groups included.

    ``survivors`` and ``factors`` are as :meth:`ChainComplexZ._survivors`
    gives them, and absent degrees read as empty.  The free rank at d is the
    number of survivors minus the ranks of the maps out of and into C_d,
    plus the ``critical`` vertices at d = 0; the torsion is the non-unit
    factors of the map into C_{d - 1 + torsion_shift}.  Factor lists ascend,
    so a map has torsion exactly when its last factor exceeds 1.
    """
    out = {}
    for d in degrees:
        free = len(survivors.get(d, ())) - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        if d == 0:
            free += critical
        shifted = factors.get(d + torsion_shift, ())
        if shifted and shifted[-1] > 1:
            out[d] = Abelian(free, tuple([t for t in shifted if t > 1]))
        else:
            out[d] = Abelian(free, ()) if free else ZERO_GROUP
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
    """Cocycle representatives and coordinates for one cochain degree.

    Two Smith forms are taken.  The coboundary's tracks only its column
    side: the kernel rows of ``v^-1`` write a cocycle in kernel coordinates,
    and the matching columns of ``v`` are the kernel basis.  The quotient
    of the kernel by the coboundaries tracks only its row side: the free
    columns of ``u_c^-1`` combine the kernel basis into representatives.
    Each coordinate of a class is one integer row applied to its cocycle:
    row ``idx`` of ``u_c`` composed with the kernel rows of ``v^-1``, with
    the representative's sign folded into a free row.  The rows are built
    once here, so :meth:`express` takes one dot product per coordinate over
    the cochain's nonzero entries.

    Everything here is read from local face indices, so it names no face,
    and every value is a tuple: one basis may serve several complexes that
    list their faces alike (see :class:`CohomologyBasis`).
    """

    def __init__(self, cc: ChainComplexZ, d: int):
        n, n_up, n_down = cc.n_faces(d), cc.n_faces(d + 1), cc.n_faces(d - 1)
        self.n = n
        self.delta_out = tuple(map(tuple, cc.coboundary_matrix(d)))
        out_snf = smith_normal_form(self.delta_out, rows=n_up, cols=n, track="v")
        rank_out = out_snf.rank
        v_t, v_inv = out_snf.v_t, out_snf.v_inv
        k = n - rank_out
        kernel_rows = v_inv[rank_out:]
        # coboundary images of (d-1)-cochains, written in kernel coordinates
        coords = matmul(kernel_rows, cc.coboundary_matrix(d - 1))
        quo = smith_normal_form(coords, rows=k, cols=n_down, track="u")
        diag = [quo.d[i][i] for i in range(min(k, n_down))]
        u_c, u_c_inv_t = quo.u, quo.u_inv_t
        diag += [0] * (k - len(diag))
        free_indices = [i for i, s in enumerate(diag) if s == 0]
        torsion_orders = [(i, s) for i, s in enumerate(diag) if s > 1]
        self.group = Abelian(len(free_indices), tuple(s for _, s in torsion_orders))
        # representatives: kernel basis combined through columns of u_c^-1
        representatives = []
        signs = []
        kernel_basis = v_t[rank_out:]
        weights = [u_c_inv_t[idx] for idx in free_indices]
        for vec in matmul(weights, kernel_basis):
            sign = 1
            for x in vec:
                if x:
                    sign = 1 if x > 0 else -1
                    break
            representatives.append(tuple(sign * x for x in vec))
            signs.append(sign)
        self.representatives = tuple(representatives)
        self._free_rows = tuple(
            tuple(sign * x for x in row)
            for sign, row in zip(signs, matmul([u_c[idx] for idx in free_indices], kernel_rows))
        )
        torsion_rows = matmul([u_c[idx] for idx, _ in torsion_orders], kernel_rows)
        self._torsion_rows = tuple(
            (tuple(row), s) for row, (_, s) in zip(torsion_rows, torsion_orders)
        )

    def express(self, support: list) -> Expression:
        """Coordinates of a cocycle given as its nonzero ``(index, coefficient)`` entries."""
        for row in self.delta_out:
            if sum(row[k] * x for k, x in support):
                raise NotACocycle("coboundary of the cochain is nonzero")
        free = tuple(sum(row[k] * x for k, x in support) for row in self._free_rows)
        torsion = tuple(sum(row[k] * x for k, x in support) % s for row, s in self._torsion_rows)
        return Expression(free=free, torsion=torsion)


class CohomologyBasis:
    """Explicit integer cocycle bases for every degree of a chain complex.

    Representatives generate the free part of reduced cohomology; they are
    normalized so the first nonzero coordinate (in face order) is positive,
    making golden tests deterministic.  ``express`` writes any cocycle in
    the chosen basis, with torsion residues reported separately.  Every
    degree is answered by its :class:`_DegreeBasis`, one with no faces
    too: the zero group, no representatives, and only the empty cochain as
    a cocycle.  :func:`reduced_cohomology_basis` builds one for a whole
    complex.

    Cochains and representatives are read by local face index, not by face,
    so the basis also serves any complex whose faces, listed degree by
    degree, have the same boundary entries; :class:`.ring.RingPresentation`
    shares one between full subcomplexes of the same shape.  The Smith form
    is deterministic, so a shared basis is the one a fresh computation
    would give.
    """

    def __init__(self, cc: ChainComplexZ):
        self.cc = cc
        self._degrees: dict[int, _DegreeBasis] = {}

    def degree(self, d: int) -> _DegreeBasis:
        basis = self._degrees.get(d)
        if basis is None:
            basis = _DegreeBasis(self.cc, d)
            self._degrees[d] = basis
        return basis

    def group(self, d: int) -> Abelian:
        return self.degree(d).group

    def representatives(self, d: int) -> list:
        return [list(r) for r in self.degree(d).representatives]

    def faces(self, d: int) -> list:
        return list(self.cc.faces.get(d, []))

    def express(self, vec: list, d: int) -> Expression:
        """Coordinates of the cocycle ``vec``, dense over the degree-d faces."""
        basis = self.degree(d)
        if len(vec) != basis.n:
            raise NotACocycle(f"cochain has length {len(vec)}, expected {basis.n}")
        return basis.express([(k, x) for k, x in enumerate(vec) if x])


def reduced_cohomology_basis(complex_: SimplicialComplex) -> CohomologyBasis:
    return CohomologyBasis(ChainComplexZ.of_complex(complex_))


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

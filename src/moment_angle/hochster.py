"""The bigraded decomposition of the moment-angle complex cohomology.

H^p of the moment-angle complex over a complex K on [m] splits as a direct
sum of the reduced cohomology of all full subcomplexes K_J, one group per
pair (J, d) with p = |J| + d + 1.  This module computes that table by
visiting the subsets in the table's own order, by size and then
lexicographically, so every smaller subset comes before J.  Three rules make
the walk fast:

* a subcomplex whose missing faces do not cover its vertex set is a join
  with a simplex, hence contractible, and contributes nothing.  The union
  of the missing faces inside J is that of J - h, h the highest vertex of
  J, together with the missing faces inside J whose highest vertex is h,
  so each subset's union is one step from one the walk has met;
* if a vertex v of J has a nonempty cone for its link in K_J, then K_J
  strongly collapses onto K_{J - v} (Barmak and Minian, *Strong homotopy
  types, nerves and collapses*, DCG 2012).  Mayer-Vietoris over the star
  and the link gives the same isomorphism over Z, torsion included, so J
  takes the groups of the smaller subset, which the walk has already met.
  Such a v of J - h is one for J too when h is not a neighbour of v, since
  v's link in K_J is then its link in K_{J - h}, so most subsets inherit
  their vertex from the walk and need no scan;
* a subset of at least two vertices, none a ghost, where no vertex has a
  neighbour is |J| points: H~^0 = Z^{|J| - 1} and nothing else.

Only the subsets that no rule settles get a chain complex of their own.
The walk keeps 5 bytes per subset, 9 past 32 vertices: its cover union
and its cone vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

from .bitsets import is_subset, iter_vertices, vertices_of
from .complexes import SimplicialComplex
from .errors import NotASphereCandidate, ParameterOutOfRange, VertexCapExceeded
from .homology import ZERO_GROUP, Abelian, ChainComplexZ, pseudo_sphere_check, sum_groups

DEFAULT_VERTEX_CAP = 24


@dataclass
class BigradedBetti:
    """Nonzero groups of the subset decomposition, keyed by (J mask, degree).

    ``entries`` is kept in table order, (|J|, lex J, degree).  The
    constructor sorts them once: among subsets of one size, lex order is
    descending order of the mask read with its bits reversed (vertex 1 the
    highest of m bits), so the sort key needs no vertex tuple.  The sweep
    visits subsets in table order already and builds its table with
    :meth:`_in_table_order`, which skips the sort.
    """

    m: int
    dim: int
    entries: dict

    def __post_init__(self):
        m = self.m

        def key(entry):
            subset, d = entry
            return (subset.bit_count(), -int(bin(subset)[:1:-1].ljust(m, "0"), 2), d)

        self.entries = {k: self.entries[k] for k in sorted(self.entries, key=key)}

    @classmethod
    def _in_table_order(cls, m: int, dim: int, entries: dict) -> "BigradedBetti":
        """A table of ``entries`` that are in table order already, not sorted again."""
        table = object.__new__(cls)
        table.m, table.dim, table.entries = m, dim, entries
        return table

    def group(self, subset: int, d: int) -> Abelian:
        return self.entries.get((subset, d), ZERO_GROUP)

    def sorted_keys(self) -> list:
        return list(self.entries)

    def total(self) -> dict:
        """Aggregate by p = |J| + d + 1: the moment-angle Betti table."""
        return sum_groups(
            (subset.bit_count() + d + 1, group) for (subset, d), group in self.entries.items()
        )

    def tor_bidegrees(self) -> dict:
        """Aggregate to Tor bidegrees (i, j): i = |J| - d - 1, j = |J|."""
        return sum_groups(
            ((subset.bit_count() - d - 1, subset.bit_count()), group)
            for (subset, d), group in self.entries.items()
        )

    def to_json_obj(self) -> dict:
        return self._json_obj(self.total())

    def _json_obj(self, totals: dict) -> dict:
        """The JSON payload, given ``totals``, this table's :meth:`total`."""
        bigraded = []
        for (subset, d), group in self.entries.items():
            bigraded.append(
                {
                    "J": list(vertices_of(subset)),
                    "d": d,
                    "rank": group.rank,
                    "torsion": list(group.torsion),
                }
            )
        return {"m": self.m, "dim": self.dim, "bigraded": bigraded, "total": total_json(totals)}


def total_json(totals: dict) -> list:
    """The ``total`` rows of a JSON payload, one per degree p in increasing order."""
    return [
        {"p": p, "rank": g.rank, "torsion": list(g.torsion)} for p, g in sorted(totals.items())
    ]


def _covered_by_missing(subset: int, unions, by_top: list) -> bool:
    """The cover test of the sweep: do the missing faces inside ``subset`` cover it?

    With h the highest vertex of J, the union of the missing faces inside J
    is that of J - h together with the missing faces whose highest vertex
    is h and that lie inside J.  ``unions`` holds the union of every subset
    visited so far, J - h among them, and gets J's.  ``by_top[t]`` is the
    missing faces whose highest vertex is t: the other ends of its edges
    as one mask, since an edge {a, h} lies inside J exactly when a does,
    and the larger faces as a tuple.  This stays one call per visited
    subset, not a loop inlined into the sweep, because
    ``perfbench/tracing.py`` counts the subsets visited and kept by
    patching this function.
    """
    top = subset.bit_length()
    high = 1 << top >> 1
    union = unions[subset ^ high]
    ends, faces = by_top[top]
    if ends & subset:
        union |= ends & subset | high
    for face in faces:
        if face & subset == face:
            union |= face
    unions[subset] = union
    return union == subset


def _missing_by_top(missing: tuple, m: int) -> list:
    """The ``by_top`` table of :func:`_covered_by_missing`, t = 0 .. m."""
    by_top = [(0, ())] * (m + 1)
    for face in missing:
        top = face.bit_length()
        ends, faces = by_top[top]
        if face.bit_count() == 2:
            by_top[top] = (ends | face ^ 1 << top >> 1, faces)
        else:
            by_top[top] = (ends, (*faces, face))
    return by_top


def _missing_union(subset: int, missing: tuple) -> int:
    """The union of the members of ``missing`` inside ``subset``, by a direct scan.

    ``subset`` is covered when this is ``subset`` itself.
    """
    union = 0
    for face in missing:
        if face & subset == face:
            union |= face
    return union


def _vertex_links(complex_: SimplicialComplex) -> dict:
    """Vertex bit -> (N(v), missing faces of lk v), read off facets and missing faces.

    A set of neighbours is a non-face of the link exactly when it contains
    f - v for some missing face f of K with f - v inside N(v), so the link's
    missing faces are the minimal such sets.
    """
    neighbours = dict.fromkeys((1 << i for i in range(complex_.m)), 0)
    for facet in complex_.facets:
        for v in iter_vertices(facet):
            neighbours[1 << (v - 1)] |= facet
    missing = complex_.missing_faces()
    links = {}
    for bit, nbrs in neighbours.items():
        nbrs &= ~bit
        minimal = []
        candidates = {f & ~bit for f in missing if is_subset(f & ~bit, nbrs)}
        for face in sorted(candidates, key=int.bit_count):
            if not any(is_subset(g, face) for g in minimal):
                minimal.append(face)
        links[bit] = (nbrs, tuple(minimal))
    return links


def _cone_witness(subset: int, links: dict) -> int:
    """The lowest v in J whose link in K_J is a nonempty cone, as its index + 1.

    Without one, 0 when some vertex of J has a neighbour in J, -1 when none
    does.
    """
    edgeless = True
    rest = subset
    while rest:
        bit = rest & -rest
        rest ^= bit
        nbrs, link_missing = links[bit]
        nbrs &= subset
        if nbrs:
            if _missing_union(nbrs, link_missing) != nbrs:
                return bit.bit_length()
            edgeless = False
    return -1 if edgeless else 0


def _subset_cohomology(complex_: SimplicialComplex, subset: int) -> list:
    groups = ChainComplexZ.of_subset(complex_, subset).cohomology()
    return [(d, group) for d, group in groups.items() if not group.is_zero]


def _subsets(m: int) -> Iterator[int]:
    """Every subset of [m] as a mask, in table order: by size, then lexicographically."""
    bits = [1 << i for i in range(m)]
    return chain.from_iterable(map(sum, combinations(bits, k)) for k in range(m + 1))


def _sweep(complex_: SimplicialComplex, prune: bool) -> dict:
    """The nonzero entries (J, d) -> group of every full subcomplex, in table order.

    Each J is met after all its subsets, so J - h and any reduction J - v
    are settled by then.
    """
    entries = {}
    if not prune:
        for subset in _subsets(complex_.m):
            for d, group in _subset_cohomology(complex_, subset):
                entries[(subset, d)] = group
        return entries
    links = _vertex_links(complex_)
    neighbours = [0, *(links[1 << i][0] for i in range(complex_.m))]  # by vertex index + 1
    ghosts = ~complex_.vertex_support()
    by_top = _missing_by_top(complex_.missing_faces(), complex_.m)
    # 4 bytes per subset (8 past 32 vertices), zeroed; a bytearray view
    # needs no import, unlike the array module
    code, width = ("I", 4) if complex_.m <= 32 else ("Q", 8)
    unions = memoryview(bytearray(width << complex_.m)).cast(code)
    # 1 byte per subset: the cone vertex of each covered subset, as its
    # index + 1, or 0 when none is known
    witnesses = bytearray(1 << complex_.m)
    found = {}  # subset -> its nonzero groups
    for subset in _subsets(complex_.m):
        if not _covered_by_missing(subset, unions, by_top):
            continue
        high = 1 << subset.bit_length() >> 1
        witness = witnesses[subset ^ high]
        if not witness or neighbours[witness] & high:
            witness = _cone_witness(subset, links)
        if witness > 0:
            witnesses[subset] = witness
            groups = found.get(subset ^ 1 << witness >> 1)
        elif witness < 0 and not subset & ghosts and subset.bit_count() > 1:
            groups = [(0, Abelian(subset.bit_count() - 1, ()))]  # |J| points
        else:
            groups = _subset_cohomology(complex_, subset)
        if groups:
            found[subset] = groups
            for d, group in groups:
                entries[(subset, d)] = group
    return entries


def _refuse_threads(threads: int) -> None:
    """Refuse a ``threads`` other than 1: the sweep runs in this process only."""
    if threads != 1:
        raise ParameterOutOfRange(f"threads must be 1 (one process), got {threads!r}")


def check_vertex_cap(complex_: SimplicialComplex, max_vertices: int) -> None:
    """Refuse, before any work, a complex with more than ``max_vertices`` vertices."""
    if complex_.m > max_vertices:
        raise VertexCapExceeded(
            f"vertex count {complex_.m} exceeds the cap {max_vertices}; "
            "raise the cap explicitly to spend 2^m time and 5 * 2^m bytes "
            "(9 * 2^m past 32 vertices)"
        )


def bigraded_betti(
    complex_: SimplicialComplex,
    *,
    prune: bool = True,
    threads: int = 1,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> BigradedBetti:
    """Reduced cohomology of every full subcomplex, nonzero entries only.

    Enumerates all 2^m subsets and keeps 5 bytes for each, 9 past 32
    vertices, so ``max_vertices`` refuses to run on large ground sets
    instead of silently taking days; raise it explicitly if you mean it.
    ``prune=False`` turns off all three rules of the module docstring, the
    missing-face cover test, the cone-link (strong collapse) reduction
    after Barmak and Minian and the closed form for a set of points, so
    every subset gets a chain complex of its own: the slow oracle for the
    fast path.

    Subsets are visited by size, then lexicographically, the order of the
    table, so the entries need no sort.  The sweep runs in this process, so
    ``threads`` accepts only 1; the keyword stays because
    ``perfbench/workloads.py`` and ``perfbench/selftest.py`` pass ``threads=1``.
    """
    check_vertex_cap(complex_, max_vertices)
    _refuse_threads(threads)
    entries = _sweep(complex_, prune)
    return BigradedBetti._in_table_order(m=complex_.m, dim=complex_.dim(), entries=entries)


def zk_betti(complex_: SimplicialComplex, **kwargs) -> dict:
    """Moment-angle complex Betti table: degree -> (rank, torsion)."""
    return bigraded_betti(complex_, **kwargs).total()


@dataclass
class DualityReport:
    ok: bool
    checked: int
    first_violation: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _require_sphere(complex_: SimplicialComplex) -> int:
    check = pseudo_sphere_check(complex_)
    if not check.passed:
        raise NotASphereCandidate(f"sphere candidate checks failed: {check}")
    return check.dim


def alexander_duality_check(
    complex_: SimplicialComplex, table: BigradedBetti | None = None, **kwargs
) -> DualityReport:
    """H~^j(K_I) vs H~_{n-j-1} of the complementary full subcomplex, all I.

    Homology of the complement is read off its cohomology by universal
    coefficients (rank is shared, torsion shifts one degree down).
    """
    n = _require_sphere(complex_)
    if table is None:
        table = bigraded_betti(complex_, **kwargs)
    full = (1 << complex_.m) - 1
    checked = 0
    for subset in range(1 << complex_.m):
        comp = full & ~subset
        for j in range(-1, n + 1):
            left = table.group(subset, j)
            right_rank = table.group(comp, n - j - 1).rank
            right_torsion = table.group(comp, n - j).torsion
            checked += 1
            if left != Abelian(right_rank, right_torsion):
                return DualityReport(
                    ok=False,
                    checked=checked,
                    first_violation=(vertices_of(subset), j, left, Abelian(right_rank, right_torsion)),
                )
    return DualityReport(ok=True, checked=checked)


@dataclass
class PoincareReport:
    ok: bool
    top: int
    rank_symmetric: bool
    torsion_symmetric: bool
    ends_ok: bool
    low_degrees_zero: bool
    first_violation: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def poincare_check(
    complex_: SimplicialComplex, table: BigradedBetti | None = None, **kwargs
) -> PoincareReport:
    """Betti symmetry b_p = b_{top-p} and the torsion pairing p <-> top+1-p."""
    n = _require_sphere(complex_)
    if table is None:
        table = bigraded_betti(complex_, **kwargs)
    top = complex_.m + n + 1
    total = table.total()

    def group(p: int) -> Abelian:
        return total.get(p, ZERO_GROUP)

    rank_sym = True
    torsion_sym = True
    violation = None
    for p in range(top + 1):
        if group(p).rank != group(top - p).rank:
            rank_sym = False
            violation = violation or ("rank", p, group(p), group(top - p))
        if group(p).torsion != group(top + 1 - p).torsion:
            torsion_sym = False
            violation = violation or ("torsion", p, group(p), group(top + 1 - p))
    ends = group(0) == Abelian(1, ()) and group(top) == Abelian(1, ())
    low = all(group(p).is_zero for p in (1, 2, top - 1) if 0 < p < top)
    return PoincareReport(
        ok=rank_sym and torsion_sym and ends,
        top=top,
        rank_symmetric=rank_sym,
        torsion_symmetric=torsion_sym,
        ends_ok=ends,
        low_degrees_zero=low,
        first_violation=violation,
    )

"""The bigraded decomposition of the moment-angle complex cohomology.

H^p of the moment-angle complex over a complex K on [m] splits as a direct
sum of the reduced cohomology of all full subcomplexes K_J, one group per
pair (J, d) with p = |J| + d + 1.  This module computes that table by
visiting the subsets in the table's own order, by size and then
lexicographically, so every smaller subset comes before J.  Four rules make
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
  neighbour is |J| points: H~^0 = Z^{|J| - 1} and nothing else;
* if a missing face f inside J, of two or more vertices, meets no other
  missing face inside J, every face of K_J is a proper subset of f joined
  with a face of K_{J - f}.  So K_J is the join of the (|f| - 2)-sphere on
  f's boundary with K_{J - f}, its (|f| - 1)-fold suspension, and
  H~^d(K_J) = H~^{d - |f| + 1}(K_{J - f}) over Z, torsion included.  For
  J = f this is H~^{-1}(K_0) = Z moved up to the sphere's top degree.

The empty set is settled in closed form: K_0 = {0} has H~^{-1} = Z and
nothing else.  Only the nonempty subsets that no rule settles get a chain
complex of their own.

The cover, cone and suspension rules read one per-vertex table, built once
per sweep: v's record holds N(v), the minimal missing faces of lk v, the
other ends of v's missing edges as one mask, and v's other missing faces,
the larger ones and, for a ghost, {v} itself.  The walk keeps 5 bytes per
subset, 9 past 32 vertices: its cover union and its cone vertex.
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

    ``entries`` is in table order, (|J|, lex J, degree):
    :func:`bigraded_betti` fills it in the order its walk visits the
    subsets, and the table keeps the order it is given.
    """

    m: int
    dim: int
    entries: dict

    def group(self, subset: int, d: int) -> Abelian:
        return self.entries.get((subset, d), ZERO_GROUP)

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


def _vertex_table(complex_: SimplicialComplex) -> list:
    """One record per vertex v, by index + 1, for the cover, cone and suspension rules.

    v's record is (N(v), the minimal missing faces of lk v, the other ends
    of the missing edges through v as one mask, the other missing faces
    through v): the larger ones, and {v} itself when v is a ghost.  A set
    of neighbours is a non-face of the link exactly when it contains f - v
    for some missing face f of K with f - v inside N(v), so the link's
    missing faces are the minimal such sets.  Entry 0 is the empty record
    that the cover test reads for J = 0.
    """
    missing = complex_.missing_faces()
    table = [(0, (), 0, ())]
    for bit in (1 << i for i in range(complex_.m)):
        nbrs = 0
        for facet in complex_.facets:
            if facet & bit:
                nbrs |= facet ^ bit
        minimal = []
        candidates = {f & ~bit for f in missing if is_subset(f & ~bit, nbrs)}
        for face in sorted(candidates, key=int.bit_count):
            if not any(is_subset(g, face) for g in minimal):
                minimal.append(face)
        ends = 0
        for face in missing:
            if face & bit and face.bit_count() == 2:
                ends |= face ^ bit
        faces = tuple(f for f in missing if f & bit and f.bit_count() != 2)
        table.append((nbrs, tuple(minimal), ends, faces))
    return table


def _covered_by_missing(subset: int, unions, table: list) -> bool:
    """The cover test of the sweep: do the missing faces inside ``subset`` cover it?

    With h the highest vertex of J, the union of the missing faces inside J
    is that of J - h together with the missing faces inside J through h,
    which are exactly those whose highest vertex is h.  ``unions`` holds
    the union of every subset visited so far, J - h among them, and gets
    J's.  h's record in :func:`_vertex_table` gives the other ends of its
    missing edges as one mask, since an edge {a, h} lies inside J exactly
    when a does, and its other missing faces as a tuple, where a ghost h
    finds {h}.  This stays one call per visited subset, not a loop inlined
    into the sweep, because ``perfbench/tracing.py`` counts the subsets
    visited and kept by patching this function.
    """
    top = subset.bit_length()
    high = 1 << top >> 1
    union = unions[subset ^ high]
    _, _, ends, faces = table[top]
    if ends & subset:
        union |= ends & subset | high
    for face in faces:
        if face & subset == face:
            union |= face
    unions[subset] = union
    return union == subset


def _missing_union(subset: int, missing: tuple) -> int:
    """The union of the members of ``missing`` inside ``subset``, by a direct scan.

    ``subset`` is covered when this is ``subset`` itself.
    """
    union = 0
    for face in missing:
        if face & subset == face:
            union |= face
    return union


def _cone_witness(subset: int, table: list) -> int:
    """The lowest v in J whose link in K_J is a nonempty cone, as its index + 1.

    v's link in K_J has the vertices N(v) & J and the missing faces of lk v
    inside them, both read off v's record in :func:`_vertex_table`; it is a
    nonempty cone when those faces do not cover N(v) & J.  Without such a
    v, 0 when some vertex of J has a neighbour in J, -1 when none does.
    """
    edgeless = True
    rest = subset
    while rest:
        bit = rest & -rest
        rest ^= bit
        nbrs, link_missing, _, _ = table[bit.bit_length()]
        nbrs &= subset
        if nbrs:
            if _missing_union(nbrs, link_missing) != nbrs:
                return bit.bit_length()
            edgeless = False
    return -1 if edgeless else 0


def _only_face_at(subset: int, v: int, table: list) -> int:
    """The one missing face inside J through v, read off v's record; 0 if none or several."""
    _, _, ends, faces = table[v]
    edges = ends & subset
    if edges & edges - 1:
        return 0
    only = edges | 1 << v >> 1 if edges else 0
    for face in faces:
        if face & subset == face:
            if only:
                return 0
            only = face
    return only


def _isolated_missing_face(subset: int, table: list) -> int:
    """A missing face f inside J, |f| >= 2, that no other missing face inside J meets; 0 if none.

    Then K_J is the join of the sphere on f's proper subsets with K_{J - f}.
    The missing faces inside J through v are read off v's record in
    :func:`_vertex_table`, its missing edges inside J by one ``&``.  The
    lowest vertex left whose only missing face inside J is f proposes f,
    which is isolated when f has two or more vertices and is the only one
    at each of its other vertices too; either way no vertex of f can
    propose another face, so all of f is skipped.  A ghost proposes {v},
    which is never taken.
    """
    rest = subset
    while rest:
        bit = rest & -rest
        face = _only_face_at(subset, bit.bit_length(), table)
        if face & ~bit and all(
            _only_face_at(subset, v, table) == face for v in iter_vertices(face ^ bit)
        ):
            return face
        rest &= ~(bit | face)
    return 0


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
    found = {}  # subset -> its nonzero groups, in table order
    if not prune:
        for subset in _subsets(complex_.m):
            found[subset] = _subset_cohomology(complex_, subset)
    else:
        table = _vertex_table(complex_)
        ghosts = ~complex_.vertex_support()
        # 4 bytes per subset (8 past 32 vertices), zeroed; a bytearray view
        # needs no import, unlike the array module
        code, width = ("I", 4) if complex_.m <= 32 else ("Q", 8)
        unions = memoryview(bytearray(width << complex_.m)).cast(code)
        # 1 byte per subset: the cone vertex of each covered subset, as its
        # index + 1, or 0 when none is known
        witnesses = bytearray(1 << complex_.m)
        for subset in _subsets(complex_.m):
            if not _covered_by_missing(subset, unions, table):
                continue
            high = 1 << subset.bit_length() >> 1
            witness = witnesses[subset ^ high]
            if not witness or table[witness][0] & high:
                witness = _cone_witness(subset, table)
            if witness > 0:
                witnesses[subset] = witness
                groups = found.get(subset ^ 1 << witness >> 1)
            elif witness < 0 and not subset & ghosts and subset.bit_count() > 1:
                groups = [(0, Abelian(subset.bit_count() - 1, ()))]  # |J| points
            elif not subset:
                groups = [(-1, Abelian(1, ()))]  # K_0 = {0}: H~^-1 = Z
            elif face := _isolated_missing_face(subset, table):
                shift = face.bit_count() - 1  # K_J = the (|f| - 1)-fold suspension of K_{J - f}
                groups = [(d + shift, group) for d, group in found.get(subset ^ face, ())]
            else:
                groups = _subset_cohomology(complex_, subset)
            if groups:
                found[subset] = groups
    return {(subset, d): group for subset, groups in found.items() for d, group in groups}


def check_vertex_cap(complex_: SimplicialComplex, max_vertices: int) -> None:
    """Refuse, before any work, a complex with more than ``max_vertices`` vertices."""
    if complex_.m > max_vertices:
        raise VertexCapExceeded(
            f"vertex count {complex_.m} exceeds the cap {max_vertices}; "
            "raise the cap explicitly to spend 2^m time and 5 * 2^m bytes "
            "(9 * 2^m past 32 vertices)"
        )


def _refuse_sweep(complex_, *, prune=True, threads=1, max_vertices=DEFAULT_VERTEX_CAP) -> None:
    """Raise, before any work, what :func:`bigraded_betti` raises for these options (``prune`` none)."""
    check_vertex_cap(complex_, max_vertices)
    if threads != 1:
        raise ParameterOutOfRange(f"threads must be 1 (one process), got {threads!r}")


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
    ``prune=False`` turns off all four rules of the module docstring, the
    missing-face cover test, the cone-link (strong collapse) reduction
    after Barmak and Minian, the closed form for a set of points and the
    suspension by an isolated missing face, so every subset gets a chain
    complex of its own: the slow oracle for the fast path.

    Subsets are visited by size, then lexicographically, the order of the
    table, so the entries need no sort.  The sweep runs in this process, so
    ``threads`` accepts only 1; the keyword stays because
    ``perfbench/workloads.py`` and ``perfbench/selftest.py`` pass ``threads=1``.
    """
    _refuse_sweep(complex_, threads=threads, max_vertices=max_vertices)
    entries = _sweep(complex_, prune)
    return BigradedBetti(m=complex_.m, dim=complex_.dim(), entries=entries)


def given_or_built(given, build, complex_: SimplicialComplex, options: dict):
    """``given`` (a table or a presentation) if not None, else ``build(complex_, **options)``.

    Options beside a given value would go unused, so they are refused.
    """
    if given is None:
        return build(complex_, **options)
    if options:
        what = type(given).__name__
        raise ParameterOutOfRange(f"options {sorted(options)} would be ignored beside the given {what}")
    return given


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
    table = given_or_built(table, bigraded_betti, complex_, kwargs)
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
    table = given_or_built(table, bigraded_betti, complex_, kwargs)
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

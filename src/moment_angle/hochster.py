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
The walk keeps 5 bytes per subset: its cover union and its cone vertex.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, islice
from math import comb
from typing import Iterator

from .bitsets import is_subset, iter_vertices, vertices_of
from .complexes import SimplicialComplex
from .errors import NotASphereCandidate, ParameterOutOfRange, VertexCapExceeded
from .homology import ZERO_GROUP, Abelian, ChainComplexZ, pseudo_sphere_check, sum_groups

DEFAULT_VERTEX_CAP = 24


def _thread_count(threads: int | None = None) -> int:
    """``threads``, else ``MOMENT_ANGLE_THREADS`` (1 when unset or empty); under 1 is refused."""
    name, value = "threads", threads
    if threads is None:
        name, value = "MOMENT_ANGLE_THREADS", os.environ.get("MOMENT_ANGLE_THREADS")
        if not value:
            return 1
        try:
            threads = int(value)
        except ValueError:
            threads = 0  # refused below, like any count under 1
    if threads < 1:
        raise ParameterOutOfRange(f"{name} must be an integer >= 1, got {value!r}")
    return threads


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


def _subsets(bits: list, stretches) -> Iterator[int]:
    """The masks of each (k, i, count) stretch in turn, in lex order.

    A stretch is the first ``count`` k-subsets of bits[i:]: the runs (k, i),
    (k, i + 1) and on of :func:`_batches`.
    """
    return chain.from_iterable(
        islice(map(sum, combinations(bits[i:], k)), count) for k, i, count in stretches
    )


@cache
def _batches(m: int, threads: int) -> list:
    """The table order cut into contiguous batches of whole runs, about 8 per worker.

    Run (k, i) is the subsets of size k whose lowest vertex is i + 1 (i = 0
    for the empty set); lex order lists each run in one stretch, and the
    runs follow in (k, i) order.  A batch is (first, stretches, parents):
    the (k, i) of its first run; its subsets, as one stretch of
    :func:`_subsets` per size; and the stretches before it that hold the
    parents J - h of its subsets, whose unions it must find by itself.
    """
    runs = [(0, 0, 1)]
    for k in range(1, m + 1):
        for i in range(m - k + 1):
            runs.append((k, i, comb(m - 1 - i, k - 1)))
    chunk = -(-(1 << m) // (threads * 8)) if threads > 1 and m >= 6 else 1 << m
    batches = []
    filled = chunk
    for k, i, count in runs:
        if filled >= chunk:
            first, stretches, parents, filled = (k, i), [], [], 0
            batches.append((first, stretches, parents))
        filled += count
        if stretches and stretches[-1][0] == k:
            stretches[-1][2] += count
        else:
            stretches.append([k, i, count])
        # the parents of run (k, i) form run (k - 1, i)
        if k > 1 and (k - 1, i) < first:
            parents.append((k - 1, i, comb(m - 1 - i, k - 2)))
    return batches


def _batch_worker(args):
    """(J, groups) for the subsets J of one batch with nonzero groups, in table order.

    A subset whose cone reduction lands before the batch gets the reduced
    subset itself in place of its groups; the caller, which has met every
    earlier batch, looks them up.
    """
    complex_, (first, stretches, parents), prune = args
    bits = [1 << i for i in range(complex_.m)]
    subsets = _subsets(bits, stretches)
    if not prune:
        return [(s, groups) for s in subsets if (groups := _subset_cohomology(complex_, s))]
    links = _vertex_links(complex_)
    neighbours = [0, *(links[bit][0] for bit in bits)]  # by vertex index + 1
    ghosts = ~complex_.vertex_support()
    missing = complex_.missing_faces()
    by_top = _missing_by_top(missing, complex_.m)
    # 4 bytes per subset (8 past 32 vertices), zeroed; a bytearray view
    # needs no import, unlike the array module
    code, width = ("I", 4) if complex_.m <= 32 else ("Q", 8)
    unions = memoryview(bytearray(width << complex_.m)).cast(code)
    for parent in _subsets(bits, parents):
        unions[parent] = _missing_union(parent, missing)
    # 1 byte per subset: the cone vertex of each covered subset, as its
    # index + 1, or 0 when none is known (the parents before the batch)
    witnesses = bytearray(1 << complex_.m)
    found = {}  # subset -> nonzero groups, or the subset before the batch it reduces to
    for subset in subsets:
        if not _covered_by_missing(subset, unions, by_top):
            continue
        high = 1 << subset.bit_length() >> 1
        witness = witnesses[subset ^ high]
        if not witness or neighbours[witness] & high:
            witness = _cone_witness(subset, links)
        if witness > 0:
            witnesses[subset] = witness
            smaller = subset ^ 1 << witness >> 1
            groups = found.get(smaller)
            # a reduction is never empty, so its run is (size, lowest vertex - 1)
            if groups is None and (
                (smaller.bit_count(), (smaller & -smaller).bit_length() - 1) < first
            ):
                groups = smaller
        elif witness < 0 and not subset & ghosts and subset.bit_count() > 1:
            groups = [(0, Abelian(subset.bit_count() - 1, ()))]  # |J| points
        else:
            groups = _subset_cohomology(complex_, subset)
        if groups:
            found[subset] = groups
    return list(found.items())


def check_vertex_cap(complex_: SimplicialComplex, max_vertices: int) -> None:
    """Refuse, before any work, a complex with more than ``max_vertices`` vertices."""
    if complex_.m > max_vertices:
        raise VertexCapExceeded(
            f"vertex count {complex_.m} exceeds the cap {max_vertices}; "
            "raise the cap explicitly to spend 2^m time and 5 * 2^m bytes"
        )


def bigraded_betti(
    complex_: SimplicialComplex,
    *,
    prune: bool = True,
    threads: int | None = None,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> BigradedBetti:
    """Reduced cohomology of every full subcomplex, nonzero entries only.

    Enumerates all 2^m subsets and keeps 5 bytes for each, so
    ``max_vertices`` refuses to run on large ground sets instead of silently
    taking days; raise it explicitly if you mean it.  ``prune=False`` turns
    off all three rules of the module docstring, the missing-face cover
    test, the cone-link (strong collapse) reduction after Barmak and Minian
    and the closed form for a set of points, so every subset gets a chain
    complex of its own: the slow oracle for the fast path.

    Subsets are visited by size, then lexicographically, the order of the
    table, so the entries need no sort.  ``threads`` > 1 splits that order
    into batches of whole runs, the subsets of one size with one lowest
    vertex; the batches come back in order, so the result does not depend
    on ``threads``; a count under 1 is refused (:func:`_thread_count`).
    """
    check_vertex_cap(complex_, max_vertices)
    threads = _thread_count(threads)
    batches = _batches(complex_.m, threads)
    if len(batches) == 1:
        found = [_batch_worker((complex_, batches[0], prune))]
    else:
        # imported here: loading the pool (multiprocessing, socket) costs
        # about as much as the rest of the package's import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            found = list(pool.map(_batch_worker, [(complex_, batch, prune) for batch in batches]))
    groups_of = {}
    entries = {}
    for batch in found:
        for subset, groups in batch:
            if type(groups) is int:  # handed back: the groups of a subset of an earlier batch
                groups = groups_of.get(groups, ())
            groups_of[subset] = groups
            for d, group in groups:
                entries[(subset, d)] = group
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

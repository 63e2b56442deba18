"""The bigraded decomposition of the moment-angle complex cohomology.

H^p of the moment-angle complex over a complex K on [m] splits as a direct
sum of the reduced cohomology of all full subcomplexes K_J, one group per
pair (J, d) with p = |J| + d + 1.  This module computes that table by
enumerating subsets in increasing order, with two rules that make the
enumeration fast:

* a subcomplex whose missing faces do not cover its vertex set is a join
  with a simplex, hence contractible, and contributes nothing;
* if a vertex v of J has a nonempty cone for its link in K_J, then K_J
  strongly collapses onto K_{J - v} (Barmak and Minian, *Strong homotopy
  types, nerves and collapses*, DCG 2012).  Mayer-Vietoris over the star
  and the link gives the same isomorphism over Z, torsion included, so J
  takes the groups of the smaller subset, which the walk has already met.

Only the subsets that neither rule settles get a chain complex of their own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .bitsets import is_subset, iter_vertices, vertices_of
from .complexes import SimplicialComplex
from .errors import NotASphereCandidate, ParameterOutOfRange, VertexCapExceeded
from .homology import ZERO_GROUP, Abelian, ChainComplexZ, pseudo_sphere_check, sum_groups

DEFAULT_VERTEX_CAP = 24


def _thread_default() -> int:
    """Worker count from ``MOMENT_ANGLE_THREADS``, 1 when it is unset or empty."""
    env = os.environ.get("MOMENT_ANGLE_THREADS")
    if not env:
        return 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0  # refused below, like any count under 1
    if threads < 1:
        raise ParameterOutOfRange(f"MOMENT_ANGLE_THREADS must be an integer >= 1, got {env!r}")
    return threads


@dataclass
class BigradedBetti:
    """Nonzero groups of the subset decomposition, keyed by (J mask, degree).

    ``entries`` is kept in (|J|, lex J, degree) order, sorted once here.
    Among subsets of one size, lex order is descending order of the mask
    read with its bits reversed (vertex 1 the highest of m bits), so the
    sort key needs no vertex tuple.
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


def _covered(subset: int, missing: tuple) -> bool:
    """Whether the members of ``missing`` inside ``subset`` cover it."""
    covered = 0
    outside = ~subset
    for mf in missing:
        if not mf & outside:
            covered |= mf
            if covered == subset:
                return True
    return covered == subset


def _covered_by_missing(subset: int, missing: tuple) -> bool:
    """The cover test of the sweep, called once per subset visited."""
    return _covered(subset, missing)


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


def _cone_reduction(subset: int, links: dict) -> int | None:
    """J - v for the lowest v in J whose link in K_J is a nonempty cone, else None."""
    rest = subset
    while rest:
        bit = rest & -rest
        rest ^= bit
        nbrs, link_missing = links[bit]
        nbrs &= subset
        if nbrs and not _covered(nbrs, link_missing):
            return subset ^ bit
    return None


def _subset_cohomology(complex_: SimplicialComplex, subset: int) -> list:
    groups = ChainComplexZ.of_subset(complex_, subset).cohomology()
    return [(d, group) for d, group in groups.items() if not group.is_zero]


def _batch_worker(args):
    complex_, subsets, prune = args
    if not prune:
        return [(s, groups) for s in subsets if (groups := _subset_cohomology(complex_, s))]
    missing = complex_.missing_faces()
    links = _vertex_links(complex_)
    first = subsets[0]
    found = {}  # subset of this batch -> its nonzero groups
    below = {}  # subset under the batch reached by a reduction -> its groups

    def groups_of(subset: int, covered: bool) -> list:
        if not covered:
            return []
        smaller = _cone_reduction(subset, links)
        if smaller is None:
            return _subset_cohomology(complex_, subset)
        if smaller >= first:
            return found.get(smaller, [])
        if smaller not in below:
            below[smaller] = groups_of(smaller, _covered(smaller, missing))
        return below[smaller]

    for subset in subsets:
        groups = groups_of(subset, _covered_by_missing(subset, missing))
        if groups:
            found[subset] = groups
    return list(found.items())


def check_vertex_cap(complex_: SimplicialComplex, max_vertices: int) -> None:
    """Refuse, before any work, a complex with more than ``max_vertices`` vertices."""
    if complex_.m > max_vertices:
        raise VertexCapExceeded(
            f"vertex count {complex_.m} exceeds the cap {max_vertices}; "
            "raise the cap explicitly to spend 2^m time"
        )


def bigraded_betti(
    complex_: SimplicialComplex,
    *,
    prune: bool = True,
    threads: int | None = None,
    max_vertices: int = DEFAULT_VERTEX_CAP,
) -> BigradedBetti:
    """Reduced cohomology of every full subcomplex, nonzero entries only.

    Enumerates all 2^m subsets, so ``max_vertices`` refuses to run on large
    ground sets instead of silently taking days; raise it explicitly if you
    mean it.  ``prune=False`` turns off both rules of the module docstring,
    the missing-face cover test and the cone-link (strong collapse) reduction
    after Barmak and Minian, so every subset gets a chain complex of its own:
    the slow oracle for the fast path.  The result does not depend on
    ``threads``.
    """
    check_vertex_cap(complex_, max_vertices)
    if threads is None:
        threads = _thread_default()
    subsets = range(1 << complex_.m)  # slices of a range pickle as three ints
    if threads <= 1 or len(subsets) < 64:
        batches = [_batch_worker((complex_, subsets, prune))]
    else:
        # imported here: loading the pool (multiprocessing, socket) costs
        # about as much as the rest of the package's import
        from concurrent.futures import ProcessPoolExecutor

        chunk = (len(subsets) + threads * 8 - 1) // (threads * 8)
        jobs = [
            (complex_, subsets[i : i + chunk], prune)
            for i in range(0, len(subsets), chunk)
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(_batch_worker, jobs))
    entries = {}
    for batch in batches:
        for subset, groups in batch:
            for d, group in groups:
                entries[(subset, d)] = group
    return BigradedBetti(m=complex_.m, dim=complex_.dim(), entries=entries)


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

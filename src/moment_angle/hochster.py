"""The bigraded decomposition of the moment-angle complex cohomology.

H^p of the moment-angle complex over a complex K on [m] splits as a direct
sum of the reduced cohomology of all full subcomplexes K_J, one group per
pair (J, d) with p = |J| + d + 1.  This module computes that table by
enumerating subsets, with the one pruning rule that makes the enumeration
fast: a subcomplex whose missing faces do not cover its vertex set is a join
with a simplex, hence contractible, and contributes nothing.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .bitsets import lex_key, vertices_of
from .complexes import SimplicialComplex
from .errors import CapExceeded, NotASphereCandidate
from .homology import (
    Abelian,
    ChainComplexZ,
    pseudo_sphere_check,
    sum_groups,
)

DEFAULT_VERTEX_CAP = 24


def _thread_default() -> int:
    env = os.environ.get("MOMENT_ANGLE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


@dataclass
class BigradedBetti:
    """Nonzero groups of the subset decomposition, keyed by (J mask, degree).

    ``entries`` is kept in (|J|, lex J, degree) order, sorted once here.
    """

    m: int
    dim: int
    entries: dict

    def __post_init__(self):
        ordered = sorted(self.entries, key=lambda key: (key[0].bit_count(), lex_key(key[0]), key[1]))
        self.entries = {key: self.entries[key] for key in ordered}

    def group(self, subset: int, d: int) -> Abelian:
        return self.entries.get((subset, d), Abelian(0, ()))

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
        total = [
            {"p": p, "rank": g.rank, "torsion": list(g.torsion)}
            for p, g in sorted(self.total().items())
        ]
        return {"m": self.m, "dim": self.dim, "bigraded": bigraded, "total": total}


def _covered_by_missing(subset: int, missing: tuple) -> bool:
    covered = 0
    outside = ~subset
    for mf in missing:
        if not mf & outside:
            covered |= mf
            if covered == subset:
                return True
    return covered == subset


def _subset_cohomology(complex_: SimplicialComplex, subset: int) -> list:
    cc = ChainComplexZ.of_subset(complex_, subset)
    out = []
    for d, group in cc.cohomology().items():
        if not group.is_zero:
            out.append((d, group))
    return out


def _batch_worker(args):
    complex_, subsets, prune = args
    missing = complex_.missing_faces()
    results = []
    for subset in subsets:
        if prune and not _covered_by_missing(subset, missing):
            continue
        groups = _subset_cohomology(complex_, subset)
        if groups:
            results.append((subset, groups))
    return results


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
    mean it.  The result does not depend on ``threads``.
    """
    if complex_.m > max_vertices:
        raise CapExceeded(
            f"vertex count {complex_.m} exceeds the cap {max_vertices}; "
            "raise the cap explicitly to spend 2^m time"
        )
    if threads is None:
        threads = _thread_default()
    subsets = range(1 << complex_.m)  # slices of a range pickle as three ints
    if threads <= 1 or len(subsets) < 64:
        batches = [_batch_worker((complex_, subsets, prune))]
    else:
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
        return total.get(p, Abelian(0, ()))

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

"""Two independent Tor computations used to cross-validate the subset method.

Koszul route: the quotient algebra of the exterior algebra on u-variables
tensored with the face ring by the relations v_i^2 = u_i v_i = 0.  Its basis
is the set of pairs (sigma, tau) of disjoint vertex sets with tau a face;
the differential replaces one exterior variable by its polynomial shadow and
keeps only face-monomial targets.

Taylor route: the exterior-algebra-shaped complex on the set of missing
faces.  The differential drops one factor and keeps the term only when the
union of the rest is unchanged, so it preserves the support and homology can
be computed one support stratum at a time.

Both deliver groups per Tor bidegree (-i, 2j), recorded here as (i, j).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .bitsets import iter_vertices, lex_key, vertices_of
from .complexes import SimplicialComplex
from .errors import CapExceeded, MethodDisagreement, NotAChainComplex
from .homology import Abelian, homology_groups, sum_groups
from .snf import invariant_factors_sparse

TAYLOR_GENERATOR_CAP = 20


@dataclass
class TorTable:
    """Nonzero Tor groups keyed by (i, j), meaning bidegree (-i, 2j)."""

    entries: dict

    def group(self, i: int, j: int) -> Abelian:
        return self.entries.get((i, j), Abelian(0, ()))

    def total(self) -> dict:
        """Aggregate to single degrees p = 2j - i."""
        return sum_groups((2 * j - i, group) for (i, j), group in self.entries.items())


def _differential_matrix(source: dict, target: dict, differential, method: str) -> dict:
    """Sparse ``{row: {col: sign}}`` matrix of d from ``source`` to ``target``.

    Both bases map a basis element to its index; ``differential(key)`` lists
    ``(sign, key)`` terms.  d o d = 0 is checked on every source element,
    and a failure raises :class:`NotAChainComplex`; each target's own terms
    are computed once for that check.
    """
    entries: dict[int, dict[int, int]] = {}
    below: dict = {}
    for key, col in source.items():
        square: dict = {}
        for sign, key2 in differential(key):
            entries.setdefault(target[key2], {})[col] = sign
            terms = below.get(key2)
            if terms is None:
                terms = below[key2] = differential(key2)
            for sign2, key3 in terms:
                square[key3] = square.get(key3, 0) + sign * sign2
        if any(square.values()):
            raise NotAChainComplex(f"{method} d*d != 0 on {key}")
    return entries


# -- Koszul quotient algebra ---------------------------------------------------


def koszul_basis_size(complex_: SimplicialComplex) -> int:
    """Count of monomials u_sigma v_tau with sigma, tau disjoint, tau a face."""
    m = complex_.m
    return sum(1 << (m - f.bit_count()) for f in complex_.face_set())


def _koszul_sign(v: int, sigma: int) -> int:
    below = (sigma & ((1 << (v - 1)) - 1)).bit_count()
    return -1 if below & 1 else 1


def koszul_bigraded(complex_: SimplicialComplex) -> TorTable:
    """Cohomology of the Koszul quotient algebra, one bidegree at a time.

    d(u_sigma v_tau) = sum over v in sigma of sign * u_{sigma - v} v_{tau + v},
    the term dropped whenever tau + v is not a face.  d preserves j = |sigma|
    + |tau| and lowers i = |sigma| by one; d o d = 0 is checked while the
    matrices are assembled.
    """
    faces = complex_.face_set()
    m = complex_.m
    full = (1 << m) - 1
    # index monomials per bidegree
    index: dict[tuple, dict] = {}
    for tau in faces:
        rest = full & ~tau
        sub = rest
        while True:
            sigma = sub
            key = (sigma.bit_count(), sigma.bit_count() + tau.bit_count())
            slot = index.setdefault(key, {})
            slot[(sigma, tau)] = len(slot)
            if sub == 0:
                break
            sub = (sub - 1) & rest

    def differential(mono: tuple) -> list:
        sigma, tau = mono
        terms = []
        for v in iter_vertices(sigma):
            bit = 1 << (v - 1)
            new_tau = tau | bit
            if new_tau in faces:
                terms.append((_koszul_sign(v, sigma), (sigma & ~bit, new_tau)))
        return terms

    # homology per fixed second grading j
    entries_out: dict[tuple, Abelian] = {}
    for j in sorted({key[1] for key in index}):
        sizes = {i: len(monos) for (i, j2), monos in index.items() if j2 == j}
        factors = {
            i: invariant_factors_sparse(
                _differential_matrix(index[(i, j)], index.get((i - 1, j), {}), differential, "koszul")
            )
            for i in sizes
            if i
        }
        for i, group in homology_groups(sizes, factors).items():
            if not group.is_zero:
                entries_out[(i, j)] = group
    ordered = sorted(entries_out)
    return TorTable(entries={key: entries_out[key] for key in ordered})


# -- Taylor complex on the missing faces ---------------------------------------


@dataclass(frozen=True)
class TaylorMonomial:
    """Product of distinct missing faces, kept in canonical order.

    ``indices`` are positions in the (cardinality, lex)-sorted missing face
    list; ``support`` is the union of the factors.
    """

    indices: tuple
    support: int

    @property
    def exterior_degree(self) -> int:
        return len(self.indices)

    def bidegree(self) -> tuple:
        return (-len(self.indices), 2 * self.support.bit_count())


def taylor_monomial(indices, missing: tuple) -> TaylorMonomial:
    idx = tuple(sorted(indices))
    support = 0
    for k in idx:
        support |= missing[k]
    return TaylorMonomial(indices=idx, support=support)


def taylor_product(u: TaylorMonomial, v: TaylorMonomial, missing: tuple) -> tuple:
    """Exterior product with the reordering sign; zero on overlapping support.

    Returns (sign, monomial) or (0, None).
    """
    if u.support & v.support:
        return (0, None)
    if set(u.indices) & set(v.indices):
        return (0, None)
    merged = u.indices + v.indices
    # parity of the merge of the two ascending index sequences
    inversions = 0
    for a in u.indices:
        for b in v.indices:
            if a > b:
                inversions += 1
    sign = -1 if inversions & 1 else 1
    return (sign, taylor_monomial(merged, missing))


@dataclass
class TaylorTable:
    """Taylor homology per stratum (exterior degree r, support mask S)."""

    missing: tuple
    strata: dict

    def group(self, r: int, support: int) -> Abelian:
        return self.strata.get((r, support), Abelian(0, ()))

    def bidegrees(self) -> TorTable:
        return TorTable(
            entries=sum_groups(
                ((r, support.bit_count()), group) for (r, support), group in self.strata.items()
            )
        )


def taylor_bigraded(complex_: SimplicialComplex) -> TaylorTable:
    """Homology of the Taylor complex, stratified by support.

    d(u) drops the i-th factor with sign (-1)^i and keeps the term only when
    the support is unchanged, so each (r, S) stratum is a finite complex of
    its own; d o d = 0 is checked stratum by stratum.
    """
    missing = complex_.missing_faces()
    if len(missing) > TAYLOR_GENERATOR_CAP:
        raise CapExceeded(
            f"{len(missing)} missing faces means 2^{len(missing)} Taylor monomials; "
            "refusing"
        )
    # group monomials by (r, support)
    strata_basis: dict[tuple, dict] = {}
    for r in range(len(missing) + 1):
        for combo in combinations(range(len(missing)), r):
            mono = taylor_monomial(combo, missing)
            slot = strata_basis.setdefault((r, mono.support), {})
            slot[mono.indices] = len(slot)

    def differential(indices: tuple, support: int) -> list:
        terms = []
        sign = -1  # (-1)^i with i starting at 1
        for pos in range(len(indices)):
            rest = indices[:pos] + indices[pos + 1 :]
            rest_support = 0
            for k in rest:
                rest_support |= missing[k]
            if rest_support == support:
                terms.append((sign, rest))
            sign = -sign
        return terms

    strata_out: dict[tuple, Abelian] = {}
    supports = sorted({s for _, s in strata_basis}, key=lex_key)
    for support in supports:
        sizes = {r: len(strata_basis[(r, support)]) for r, s in strata_basis if s == support}
        factors = {
            r: invariant_factors_sparse(
                _differential_matrix(
                    strata_basis[(r, support)],
                    strata_basis.get((r - 1, support), {}),
                    partial(differential, support=support),
                    "taylor",
                )
            )
            for r in sizes
            if r
        }
        for r, group in homology_groups(sizes, factors).items():
            if not group.is_zero:
                strata_out[(r, support)] = group
    ordered = sorted(strata_out, key=lambda key: (key[0], lex_key(key[1])))
    return TaylorTable(missing=missing, strata={key: strata_out[key] for key in ordered})


# -- three-method agreement -----------------------------------------------------


@dataclass
class CrossCheckReport:
    ok: bool
    bidegrees: dict
    strata_checked: int

    def __bool__(self) -> bool:
        return self.ok


def cross_check(complex_: SimplicialComplex, *, table=None, **kwargs) -> CrossCheckReport:
    """Assert the subset, Koszul and Taylor computations agree everywhere.

    Comparison is per Tor bidegree for all three, and additionally per
    support stratum between the Taylor table and the subset table.  Raises
    MethodDisagreement at the first difference; this is a bug signal, not a
    recoverable condition.
    """
    from .hochster import bigraded_betti  # local import to avoid a cycle

    if table is None:
        table = bigraded_betti(complex_, **kwargs)
    hochster_table = table.tor_bidegrees()
    koszul_table = koszul_bigraded(complex_).entries
    taylor = taylor_bigraded(complex_)
    taylor_table = taylor.bidegrees().entries

    keys = set(hochster_table) | set(koszul_table) | set(taylor_table)
    for key in sorted(keys):
        h = hochster_table.get(key, Abelian(0, ()))
        k = koszul_table.get(key, Abelian(0, ()))
        t = taylor_table.get(key, Abelian(0, ()))
        if not (h == k == t):
            raise MethodDisagreement(
                key, f"subset={h.describe()} koszul={k.describe()} taylor={t.describe()}"
            )

    # per-support refinement: Taylor stratum (r, S) vs subset entry (S, |S|-r-1)
    strata_checked = 0
    seen = set(taylor.strata)
    for (r, support), group in taylor.strata.items():
        d = support.bit_count() - r - 1
        if table.group(support, d) != group:
            raise MethodDisagreement(
                (r, vertices_of(support)),
                f"taylor stratum {group.describe()} vs subset "
                f"{table.group(support, d).describe()}",
            )
        strata_checked += 1
    for (subset, d), group in table.entries.items():
        r = subset.bit_count() - d - 1
        if (r, subset) not in seen and not group.is_zero:
            raise MethodDisagreement(
                (r, vertices_of(subset)), f"subset has {group.describe()}, taylor empty"
            )
    agreed = {key: hochster_table.get(key, Abelian(0, ())) for key in sorted(keys)}
    return CrossCheckReport(ok=True, bidegrees=agreed, strata_checked=strata_checked)

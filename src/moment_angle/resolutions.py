"""Two independent Tor computations used to cross-validate the subset method.

Koszul route: the quotient algebra of the exterior algebra on u-variables
tensored with the face ring by the relations v_i^2 = u_i v_i = 0.  Its basis
is the set of pairs (sigma, tau) of disjoint vertex sets with tau a face,
encoded as the integer ``sigma | tau << m``; the differential replaces one
exterior variable by its polynomial shadow and keeps only face-monomial
targets.

Taylor route: the exterior-algebra-shaped complex on the set of missing
faces, a monomial encoded as the bitmask of its factors' positions in the
missing face list.  The differential drops one factor and keeps the term
only when the union of the rest is unchanged, so it preserves the support
and homology can be computed one support stratum at a time.

Each Koszul piece (fixed j) and Taylor stratum (fixed support) becomes a
:class:`ChainComplexZ`, after d o d = 0 is checked on every basis element;
:func:`koszul_pieces` and :func:`taylor_strata` yield them one at a time.
Both deliver groups per Tor bidegree (-i, 2j), recorded here as (i, j).
Both refuse, before building anything, a complex whose basis would exceed
its cap: ``KOSZUL_BASIS_CAP`` monomials or ``TAYLOR_GENERATOR_CAP`` missing
faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bitsets import iter_vertices, lex_key, vertices_of
from .complexes import SimplicialComplex
from .errors import CapExceeded, MethodDisagreement, NotAChainComplex
from .homology import ZERO_GROUP, Abelian, ChainComplexZ, sum_groups

TAYLOR_GENERATOR_CAP = 20
KOSZUL_BASIS_CAP = 1 << 22


@dataclass
class TorTable:
    """Nonzero Tor groups keyed by (i, j), meaning bidegree (-i, 2j)."""

    entries: dict

    def group(self, i: int, j: int) -> Abelian:
        return self.entries.get((i, j), ZERO_GROUP)

    def total(self) -> dict:
        """Aggregate to single degrees p = 2j - i."""
        return sum_groups((2 * j - i, group) for (i, j), group in self.entries.items())


def _checked_columns(basis, differential, method: str) -> dict:
    """Boundary column ``differential(key)`` of every key in ``basis``.

    Every key a column names must itself be in ``basis``.  d o d = 0 is
    checked on every basis element, and a failure raises
    :class:`NotAChainComplex`.
    """
    columns = {key: differential(key) for key in basis}
    for key, column in columns.items():
        square: dict = {}
        for mid, sign in column.items():
            for low, sign2 in columns[mid].items():
                square[low] = square.get(low, 0) + sign * sign2
        if any(square.values()):
            raise NotAChainComplex(f"{method} d*d != 0 on {key}")
    return columns


def _checked_complex(basis_by_degree: dict, differential, method: str) -> ChainComplexZ:
    """The complex that ``differential`` spans on the basis, d o d = 0 checked."""
    keys = [key for keys in basis_by_degree.values() for key in keys]
    return ChainComplexZ(basis_by_degree, _checked_columns(keys, differential, method))


def _nonzero_homology(cc: ChainComplexZ) -> dict:
    return {d: group for d, group in cc.homology().items() if not group.is_zero}


# -- Koszul quotient algebra ---------------------------------------------------


def koszul_basis_size(complex_: SimplicialComplex) -> int:
    """Count of monomials u_sigma v_tau with sigma, tau disjoint, tau a face."""
    m = complex_.m
    return sum(1 << (m - f.bit_count()) for f in complex_.face_set())


def _koszul_sign(v: int, sigma: int) -> int:
    below = (sigma & ((1 << (v - 1)) - 1)).bit_count()
    return -1 if below & 1 else 1


def check_koszul_budget(complex_: SimplicialComplex) -> None:
    """Refuse a Koszul complex of more than ``KOSZUL_BASIS_CAP`` monomials."""
    size = koszul_basis_size(complex_)
    if size > KOSZUL_BASIS_CAP:
        raise CapExceeded(
            f"the Koszul complex has {size} monomials, over the cap of {KOSZUL_BASIS_CAP}; "
            "refusing"
        )


def koszul_pieces(complex_: SimplicialComplex) -> Iterator[tuple]:
    """The Koszul quotient algebra as ``(j, ChainComplexZ)`` pieces of fixed j.

    d(u_sigma v_tau) = sum over v in sigma of sign * u_{sigma - v} v_{tau + v},
    the term dropped whenever tau + v is not a face.  d preserves j = |sigma|
    + |tau| and lowers i = |sigma| by one.  The monomial u_sigma v_tau is the
    integer ``sigma | tau << m``, and d o d = 0 is checked on every monomial
    before any reduction.
    """
    check_koszul_budget(complex_)
    faces = complex_.face_set()
    m = complex_.m
    full = (1 << m) - 1
    pieces: dict[int, dict] = {}  # j -> i -> monomials
    for tau in faces:
        rest = full & ~tau
        size = tau.bit_count()
        sub = rest
        while True:
            i = sub.bit_count()
            pieces.setdefault(i + size, {}).setdefault(i, []).append(sub | tau << m)
            if sub == 0:
                break
            sub = (sub - 1) & rest

    def differential(mono: int) -> dict:
        sigma, tau = mono & full, mono >> m
        column = {}
        for v in iter_vertices(sigma):
            bit = 1 << (v - 1)
            if (tau | bit) in faces:
                column[(sigma & ~bit) | (tau | bit) << m] = _koszul_sign(v, sigma)
        return column

    for j, basis in pieces.items():
        yield j, _checked_complex(basis, differential, "koszul")


def koszul_bigraded(complex_: SimplicialComplex) -> TorTable:
    """Cohomology of the Koszul quotient algebra, one piece of fixed j at a time."""
    entries = {}
    for j, cc in koszul_pieces(complex_):
        for i, group in _nonzero_homology(cc).items():
            entries[(i, j)] = group
    return TorTable(entries={key: entries[key] for key in sorted(entries)})


# -- Taylor complex on the missing faces ---------------------------------------


@dataclass
class TaylorTable:
    """Taylor homology per stratum (exterior degree r, support mask S)."""

    missing: tuple
    strata: dict

    def group(self, r: int, support: int) -> Abelian:
        return self.strata.get((r, support), ZERO_GROUP)

    def bidegrees(self) -> TorTable:
        return TorTable(
            entries=sum_groups(
                ((r, support.bit_count()), group) for (r, support), group in self.strata.items()
            )
        )


def check_taylor_budget(complex_: SimplicialComplex) -> None:
    """Refuse a Taylor complex on more than ``TAYLOR_GENERATOR_CAP`` missing faces."""
    missing = complex_.missing_faces()
    if len(missing) > TAYLOR_GENERATOR_CAP:
        raise CapExceeded(
            f"{len(missing)} missing faces means 2^{len(missing)} Taylor monomials; "
            "refusing"
        )


def taylor_strata(complex_: SimplicialComplex) -> Iterator[tuple]:
    """The Taylor complex as ``(support, ChainComplexZ)`` strata of fixed support.

    A monomial is the bitmask of its factors' positions in the missing face
    list.  d(u) drops the i-th factor with sign (-1)^i and keeps the term
    only when the support is unchanged, so each support S spans a finite
    complex of its own, graded by the exterior degree r; d o d = 0 is
    checked stratum by stratum.
    """
    check_taylor_budget(complex_)
    missing = complex_.missing_faces()
    supports = [0] * (1 << len(missing))
    strata_basis: dict[int, dict] = {}  # support -> r -> monomials
    for mono in range(1 << len(missing)):
        if mono:
            low = mono & -mono
            supports[mono] = supports[mono ^ low] | missing[low.bit_length() - 1]
        strata_basis.setdefault(supports[mono], {}).setdefault(mono.bit_count(), []).append(mono)

    def differential(mono: int) -> dict:
        support = supports[mono]
        column = {}
        sign = -1  # (-1)^i with i starting at 1
        bits = mono
        while bits:
            low = bits & -bits
            bits ^= low
            if supports[mono ^ low] == support:
                column[mono ^ low] = sign
            sign = -sign
        return column

    for support, basis in strata_basis.items():
        yield support, _checked_complex(basis, differential, "taylor")


def taylor_bigraded(complex_: SimplicialComplex) -> TaylorTable:
    """Homology of the Taylor complex, one (r, S) stratum at a time."""
    strata = {}
    for support, cc in taylor_strata(complex_):
        for r, group in _nonzero_homology(cc).items():
            strata[(r, support)] = group
    ordered = sorted(strata, key=lambda key: (key[0], lex_key(key[1])))
    return TaylorTable(missing=complex_.missing_faces(), strata={key: strata[key] for key in ordered})


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
    recoverable condition.  A complex over either cap raises CapExceeded
    before the subset sweep starts.
    """
    from .hochster import bigraded_betti  # local import to avoid a cycle

    check_koszul_budget(complex_)
    check_taylor_budget(complex_)
    if table is None:
        table = bigraded_betti(complex_, **kwargs)
    hochster_table = table.tor_bidegrees()
    koszul_table = koszul_bigraded(complex_).entries
    taylor = taylor_bigraded(complex_)
    taylor_table = taylor.bidegrees().entries

    keys = set(hochster_table) | set(koszul_table) | set(taylor_table)
    for key in sorted(keys):
        h = hochster_table.get(key, ZERO_GROUP)
        k = koszul_table.get(key, ZERO_GROUP)
        t = taylor_table.get(key, ZERO_GROUP)
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
    agreed = {key: hochster_table.get(key, ZERO_GROUP) for key in sorted(keys)}
    return CrossCheckReport(ok=True, bidegrees=agreed, strata_checked=strata_checked)

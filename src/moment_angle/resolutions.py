"""Two independent Tor computations used to cross-validate the subset method.

Koszul route: the quotient algebra of the exterior algebra on u-variables
tensored with the face ring by the relations v_i^2 = u_i v_i = 0.  Its basis
is the set of pairs (sigma, tau) of disjoint vertex sets with tau a face,
encoded as the integer ``sigma | tau << m``; the differential replaces one
exterior variable by its polynomial shadow and keeps only face-monomial
targets, so it keeps the multidegree J = sigma + tau.  The piece of J has
one monomial per face of the full subcomplex K_J and depends only on K_J's
shape (Hochster's formula reads its cohomology off K_J; Buchstaber and
Panov, *Toric Topology*, 2015, sections 3.2-3.3).  One pass over the faces
gives every face tau its up-mask, the vertices v with tau + v a face, so
the column of u_sigma v_tau is one loop over the bits of ``up[tau] & sigma``.
Each piece is built whole and reduced on a smaller subcomplex with the same
groups: with a the lowest vertex of J, the monomials with a in sigma and
tau + a not a face, the relative cochains of (K_{J - a}, lk a).

Taylor route: Lyubeznik's subcomplex of the Taylor complex on the missing
faces (Lyubeznik 1988; Mermin, "Three simplicial resolutions", 2012).  A
monomial is the bitmask of its factors' positions in the missing face list,
and only the Lyubeznik-admissible ones are kept; they are closed under
dropping a factor and still resolve the face ring.  The differential drops
one factor and keeps the term only when the union of the rest is unchanged,
so it preserves the support and homology can be computed one support
stratum at a time.  The stratum of S is built on the missing faces inside
S alone, in their order, so like a Koszul piece it depends only on the
shape of K_S.

Koszul pieces (fixed J) and Taylor strata (fixed support) are built alike:
one loop over each monomial's bits fills its column, d o d = 0 is checked on
every monomial (:func:`_check_square`), and the result is a
:class:`ChainComplexZ`.  :func:`koszul_bigraded` builds one whole piece per
shape of K_J, d o d checked on all of it, the pieces of one size |J| as one
direct sum whose subcomplex off the lowest vertex's star is reduced in one
pass; :func:`taylor_bigraded` builds and reduces one stratum per shape of
K_S.  Both read shapes off the complex's one cached table
(:meth:`.SimplicialComplex.shape_ids`).  :func:`koszul_pieces` builds
every J's whole piece on its own, and :func:`taylor_strata` yields every
stratum, one at a time.  Both deliver groups per multidegree and per Tor
bidegree (-i, 2j), recorded here as (i, J) and (i, j).  Both refuse,
before building any complex, a basis over its budget: ``KOSZUL_BASIS_CAP``
monomials of the whole Koszul complex, or ``TAYLOR_BASIS_CAP`` admissible
monomials, each counted up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterator

from .bitsets import lex_key, vertices_of
from .complexes import SimplicialComplex
from .errors import CapExceeded, MethodDisagreement, NotAChainComplex
from .homology import ZERO_GROUP, ChainComplexZ, sum_groups

TAYLOR_BASIS_CAP = 1 << 20
KOSZUL_BASIS_CAP = 1 << 22


@dataclass
class TorTable:
    """Nonzero Tor groups keyed by (i, j), meaning bidegree (-i, 2j).

    ``multigraded``, when filled in, splits them by multidegree: the nonzero
    groups keyed (i, J), J a vertex mask with |J| = j.
    """

    entries: dict
    multigraded: dict = field(default_factory=dict, compare=False, repr=False)

    def total(self) -> dict:
        """Aggregate to single degrees p = 2j - i."""
        return sum_groups((2 * j - i, group) for (i, j), group in self.entries.items())


def _check_square(columns: dict, method: str) -> dict:
    """``columns`` itself, once d o d = 0 is checked on every key.

    Every key a column names must itself be a key of ``columns``; a column
    naming any other key, or a nonzero square, raises
    :class:`NotAChainComplex`.
    """
    try:
        for key, column in columns.items():
            if len(column) == 1:  # c * mid, c != 0, squares to c * d(mid): nothing cancels
                (mid,) = column
                square = columns[mid]
            else:
                square = {}
                for mid, sign in column.items():
                    for low, sign2 in columns[mid].items():
                        square[low] = square.get(low, 0) + sign * sign2
            if any(square.values()):
                raise NotAChainComplex(f"{method} d*d != 0 on {key}")
    except KeyError as error:
        raise NotAChainComplex(
            f"{method} column of {key} names {error.args[0]!r}, which has no column"
        ) from None
    return columns


# -- Koszul quotient algebra ---------------------------------------------------


def koszul_basis_size(complex_: SimplicialComplex) -> int:
    """Count of monomials u_sigma v_tau with sigma, tau disjoint, tau a face."""
    m = complex_.m
    return sum(1 << (m - f.bit_count()) for f in complex_.face_set())


def check_koszul_budget(complex_: SimplicialComplex) -> None:
    """Refuse a Koszul complex of more than ``KOSZUL_BASIS_CAP`` monomials."""
    size = koszul_basis_size(complex_)
    if size > KOSZUL_BASIS_CAP:
        raise CapExceeded(
            f"the Koszul complex has {size} monomials, over the cap of {KOSZUL_BASIS_CAP}; "
            "refusing"
        )


def _koszul_columns(basis: dict, up: dict, m: int) -> dict:
    """Boundary column of every monomial of one Koszul piece.

    ``basis`` maps each degree i to its monomials ``sigma | tau << m`` and
    ``up[tau]`` is the mask of vertices v outside tau with tau + v a face,
    so the terms of d(u_sigma v_tau) are the bits of ``up[tau] & sigma``:
    u_{sigma - v} v_{tau + v}, with sign (-1)^(number of vertices of sigma
    below v).
    """
    full = (1 << m) - 1
    columns = {}
    for monomials in basis.values():
        for mono in monomials:
            sigma = mono & full
            bits = up[mono >> m] & sigma
            column = {}
            while bits:
                bit = bits & -bits
                bits ^= bit
                column[mono ^ bit ^ (bit << m)] = -1 if (sigma & (bit - 1)).bit_count() & 1 else 1
            columns[mono] = column
    return columns


def _up_masks(complex_: SimplicialComplex) -> dict:
    """Each face's up-mask: the vertices v outside it with face + v a face."""
    up = dict.fromkeys(complex_.face_set(), 0)
    for tau in up:
        bits = tau
        while bits:
            bit = bits & -bits
            bits ^= bit
            up[tau ^ bit] |= bit
    return up


def _koszul_sum(complex_: SimplicialComplex, subsets, up: dict) -> ChainComplexZ:
    """The direct sum of the pieces of multidegree J in ``subsets``, d o d = 0 checked.

    The piece of J has one monomial u_{J - tau} v_tau for each face tau of
    K_J, in degree i = |J - tau|.  Degrees ascend in i; each lists the
    pieces in the order of ``subsets``, and each piece its faces in
    :meth:`.SimplicialComplex.subset_faces_by_dim` order.  The reduction
    pass meets elements in basis order, which changes how far its moves
    reach, though not the groups.
    """
    m = complex_.m
    basis: dict = {}
    for subset in subsets:
        top = subset.bit_count() - 1  # a face of dimension d sits in degree top - d
        for d, faces in complex_.subset_faces_by_dim(subset).items():
            basis.setdefault(top - d, []).extend([subset ^ tau | tau << m for tau in faces])
    basis = dict(sorted(basis.items()))
    return ChainComplexZ(basis, _check_square(_koszul_columns(basis, up, m), "koszul"))


def _off_lowest_star(cc: ChainComplexZ, up: dict, m: int) -> ChainComplexZ:
    """The subcomplex of Koszul pieces that :func:`koszul_bigraded` reduces.

    With a the lowest vertex of J, it keeps the monomials u_sigma v_tau
    of J's piece with a in sigma and tau + a not a face: the relative
    cochains of (K_{J - a}, lk a), whose cohomology is K_J's by excision.
    It is closed under d: a is not in ``up[tau]``, so every term is
    u_{sigma - v} v_{tau + v} with v != a, and tau + a not a face implies
    tau + v + a not one.  The rest of the piece is acyclic: it is the cone of
    u_sigma v_tau -> +-u_{sigma - a} v_{tau + a}, a bijection with +-1
    entries from {a in sigma, tau + a a face} onto {a in tau}.  So each
    piece keeps its groups over Z, torsion included.  For J = 0 the one
    monomial u_0 v_0 is kept.  ``cc`` may hold several pieces; it keeps its
    columns and the order of its basis.
    """
    full = (1 << m) - 1
    kept = {}
    for i, monomials in cc.faces.items():
        row = []
        for mono in monomials:
            tau = mono >> m
            subset = mono & full | tau
            if not (tau | up[tau]) & subset & -subset:
                row.append(mono)
        kept[i] = row
    return ChainComplexZ(kept, cc.columns)


def koszul_pieces(complex_: SimplicialComplex) -> Iterator[tuple]:
    """The Koszul quotient algebra as ``(J, ChainComplexZ)`` pieces, one per J.

    d(u_sigma v_tau) = sum over v in sigma of sign * u_{sigma - v} v_{tau + v},
    the term dropped whenever tau + v is not a face.  d preserves the
    multidegree J = sigma + tau and lowers i = |sigma| by one.  The monomial
    u_sigma v_tau is the integer ``sigma | tau << m``, and J is a vertex mask.

    Every one of the 2^m pieces is built on its own, by the builder
    :func:`koszul_bigraded` uses (:func:`_koszul_sum`): columns read off the
    up-masks (:func:`_koszul_columns`) and d o d = 0 checked on every
    monomial, when the piece is yielded.
    """
    check_koszul_budget(complex_)
    up = _up_masks(complex_)
    for subset in range(1 << complex_.m):
        yield subset, _koszul_sum(complex_, (subset,), up)


def koszul_bigraded(complex_: SimplicialComplex) -> TorTable:
    """Cohomology of the Koszul quotient algebra, one multidegree J at a time.

    The piece of J is K_J's Koszul complex read in the order of J's
    vertices, so it depends only on :meth:`.SimplicialComplex.subset_shape`:
    the order-preserving relabeling keeps every sign.  The walk groups the
    2^m subsets by their ids in :meth:`.SimplicialComplex.shape_ids`, and
    only the first J of a shape builds its piece.  The pieces of one size
    |J| are built whole as one direct sum (:func:`_koszul_sum`, where
    d o d = 0 is checked on every monomial).  Only their subcomplex
    :func:`_off_lowest_star` is reduced, in one pass
    (:meth:`.ChainComplexZ.summand_homology`): with a the lowest vertex of
    J, the monomials u_sigma v_tau with a in sigma and tau + a not a face.
    That is the relative cochain complex of (K_{J - a}, lk a), whose
    cohomology is K_J's by excision, and the rest of the piece is acyclic,
    so the groups are the piece's over Z, torsion included.  On p28 it
    keeps 417 of the 2,857 monomials.  Every J of a shape takes its first
    J's groups.  They land in ``multigraded`` by (i, J) and are summed into
    the bidegree (i, |J|).

    One sum per size is the middle way, measured both ways.  One sum over
    every shape doubled the peak memory (tracemalloc): polygon 12 went from
    1.98 to 3.28 MB, cross-polytope 5 from 4.32 to 8.62 MB, and
    truncated-simplex 3 7 from 2.52 to 4.62 MB.  One complex per piece
    raised the Koszul time of the 100-complex corpus from 81 to 104 ms.
    """
    check_koszul_budget(complex_)
    m = complex_.m
    full = (1 << m) - 1
    up = _up_masks(complex_)
    shape_ids = complex_.shape_ids()  # the budget keeps m <= 22, within the table's cap
    by_shape: list = [[] for _ in range(max(shape_ids) + 1)]  # the subsets of each shape, ascending
    for subset, shape_id in enumerate(shape_ids):
        by_shape[shape_id].append(subset)
    by_size: list = [[] for _ in range(m + 1)]
    for subsets in by_shape:
        by_size[subsets[0].bit_count()].append(subsets)
    multigraded = {}
    for classes in by_size:
        cc = _koszul_sum(complex_, [subsets[0] for subsets in classes], up)
        groups = _off_lowest_star(cc, up, m).summand_homology(lambda mono: mono & full | mono >> m)
        for subsets in classes:
            for i, group in groups.get(subsets[0], {}).items():
                for subset in subsets:
                    multigraded[(i, subset)] = group
    entries = sum_groups(((i, s.bit_count()), group) for (i, s), group in multigraded.items())
    return TorTable(entries=entries, multigraded=multigraded)


# -- Taylor complex on the missing faces ---------------------------------------


@dataclass
class TaylorTable:
    """Taylor homology per stratum (exterior degree r, support mask S)."""

    missing: tuple
    strata: dict

    def bidegrees(self) -> TorTable:
        return TorTable(
            entries=sum_groups(
                ((r, support.bit_count()), group) for (r, support), group in self.strata.items()
            )
        )


def lyubeznik_supports(missing: tuple) -> dict:
    """Support of every Lyubeznik-admissible monomial on ``missing``, by monomial.

    Positions i_1 < ... < i_k are admissible when, for every t, the first
    missing face inside m_{i_t} u ... u m_{i_k} is m_{i_t} itself.  The sets
    are grown depth first by putting a lower position in front of an
    admissible one; a set that fails never becomes admissible again, so it
    is not extended.  More than ``TAYLOR_BASIS_CAP`` admissible sets (the
    empty one included) raise :class:`CapExceeded` before any is stored.
    The r positions have 2^r subsets; when that is over the budget, the
    admissible sets are counted first, one count per lowest position and
    support, since those decide which positions may go in front.
    """

    @cache
    def first_inside(union: int) -> int:
        return next(q for q, face in enumerate(missing) if face & ~union == 0)

    @cache
    def count(low: int, support: int) -> int:
        # each position put in front adds a vertex to the support, so this
        # recurses at most m deep
        n = 1
        for i in range(low):
            union = support | missing[i]
            if first_inside(union) == i:
                n += count(i, union)
        return n

    size = 1 << len(missing)
    if size > TAYLOR_BASIS_CAP:
        size = 1 + sum(count(j, face) for j, face in enumerate(missing))
    if size > TAYLOR_BASIS_CAP:
        raise CapExceeded(
            f"the Lyubeznik subcomplex of the Taylor complex on {len(missing)} missing "
            f"faces has {size} monomials; more than {TAYLOR_BASIS_CAP} monomials are "
            "refused"
        )
    supports = {0: 0}
    stack = [(1 << j, face) for j, face in enumerate(missing)]
    while stack:
        mono, support = stack.pop()
        supports[mono] = support
        for i in range((mono & -mono).bit_length() - 1):
            union = support | missing[i]
            if first_inside(union) == i:
                stack.append((mono | 1 << i, union))
    return supports


def _strata(supports: dict, monomials=None) -> Iterator[tuple]:
    """``(support, ChainComplexZ)`` strata of the Taylor differential on ``supports``.

    ``supports`` maps each monomial of a set closed under dropping a factor
    to its support.  ``monomials``, in increasing order, are the ones to
    build strata of: every monomial of each support they meet, all of them
    by default.  d(u) drops the i-th factor with sign (-1)^i and keeps the
    term only when the support is unchanged, so each support S spans a
    finite complex of its own, graded by the exterior degree r; its columns
    are filled as :func:`_koszul_columns` fills a piece's, and d o d = 0 is
    checked stratum by stratum.  Each degree lists its monomials in
    increasing order.
    """
    strata: dict[int, dict] = {}  # support -> r -> monomials
    for mono in sorted(supports) if monomials is None else monomials:
        strata.setdefault(supports[mono], {}).setdefault(mono.bit_count(), []).append(mono)
    for support, basis in strata.items():
        columns = {}
        for monomials in basis.values():
            for mono in monomials:
                column = {}
                sign = -1  # (-1)^i with i starting at 1
                bits = mono
                while bits:
                    low = bits & -bits
                    bits ^= low
                    if supports[mono ^ low] == support:
                        column[mono ^ low] = sign
                    sign = -sign
                columns[mono] = column
        yield support, ChainComplexZ(basis, _check_square(columns, "taylor"))


def taylor_strata(complex_: SimplicialComplex) -> Iterator[tuple]:
    """Lyubeznik's Taylor subcomplex as ``(support, ChainComplexZ)`` strata.

    The admissible monomials of :func:`lyubeznik_supports`, all enumerated
    (and the budget checked) before the first stratum is built; every
    stratum is built, each carrying the same homology as the full Taylor
    complex's.
    """
    return _strata(lyubeznik_supports(complex_.missing_faces()))


def taylor_bigraded(complex_: SimplicialComplex) -> TaylorTable:
    """Homology of the Taylor complex, one (r, S) stratum per shape of K_S.

    Computed on Lyubeznik's subcomplex, whose strata have the same homology
    (:func:`taylor_strata` yields them all).  The stratum of S depends only
    on :meth:`.SimplicialComplex.subset_shape` of S: the missing faces
    inside S, in card-lex order, are those of its shape, so both the
    admissible monomials of support S and their signs carry over.  Only
    the smallest support S of each shape is built, d o d = 0 checked and
    reduced; every twin takes its groups, so ``strata`` still holds every
    (r, S) with a nonzero group.  Polygon 12 has 4,059 supports of 591
    shapes.
    """
    supports = lyubeznik_supports(complex_.missing_faces())
    first: dict = {}  # shape key -> its smallest support
    twin_of = {  # support -> the support of its shape that is built
        s: first.setdefault(complex_.shape_key(s), s) for s in sorted(set(supports.values()))
    }
    built = set(first.values())
    monomials = sorted(mono for mono, support in supports.items() if support in built)
    groups = {support: cc.homology() for support, cc in _strata(supports, monomials)}
    strata = {}
    for support, twin in twin_of.items():
        for r, group in groups[twin].items():
            if not group.is_zero:
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


def _check_refinement(method: str, groups: dict, table) -> int:
    """Compare groups keyed (i, J) with the subset entries (J, |J| - i - 1).

    Both ways: every group in ``groups`` must equal its subset entry, and
    every nonzero subset entry must have its group.  Returns how many groups
    were compared.
    """
    for (i, subset), group in groups.items():
        d = subset.bit_count() - i - 1
        if table.group(subset, d) != group:
            raise MethodDisagreement(
                (i, vertices_of(subset)),
                f"{method} {group.describe()} vs subset {table.group(subset, d).describe()}",
            )
    for (subset, d), group in table.entries.items():
        i = subset.bit_count() - d - 1
        if (i, subset) not in groups and not group.is_zero:
            raise MethodDisagreement(
                (i, vertices_of(subset)), f"subset has {group.describe()}, {method} empty"
            )
    return len(groups)


def cross_check(complex_: SimplicialComplex, *, table=None, **kwargs) -> CrossCheckReport:
    """Assert the subset, Koszul and Taylor computations agree everywhere.

    Comparison is per Tor bidegree for all three, and additionally per
    multidegree J against the subset table: each Koszul group (i, J) and
    each Taylor stratum (r, S) with its subset entry, both ways.  Raises
    MethodDisagreement at the first difference; this is a bug signal, not a
    recoverable condition.  The Taylor side (Lyubeznik's subcomplex) runs
    first, so a complex over either basis budget raises CapExceeded before
    the subset sweep starts.
    """
    from .hochster import _refuse_threads, bigraded_betti  # local import to avoid a cycle

    check_koszul_budget(complex_)
    if table is None:  # a bad thread count is refused before the Taylor side's work
        _refuse_threads(kwargs.get("threads", 1))
    taylor = taylor_bigraded(complex_)
    if table is None:
        table = bigraded_betti(complex_, **kwargs)
    hochster_table = table.tor_bidegrees()
    koszul = koszul_bigraded(complex_)
    koszul_table = koszul.entries
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

    _check_refinement("koszul piece", koszul.multigraded, table)
    strata_checked = _check_refinement("taylor stratum", taylor.strata, table)
    agreed = {key: hochster_table.get(key, ZERO_GROUP) for key in sorted(keys)}
    return CrossCheckReport(ok=True, bidegrees=agreed, strata_checked=strata_checked)

"""Exact integer matrix reduction: Smith normal form and invariant factors.

Matrices are lists of rows of Python ints, so every computation is exact and
entry growth is merely slow, never wrong.  One dense pivot loop,
:func:`_reduce`, does all Smith-form work, and it has two entry points:

* :func:`smith_normal_form` hands it the unimodular transforms (and their
  inverses) to update, for the small matrices behind explicit cocycle bases.
  By default it tracks both sides; ``track="u"`` or ``track="v"`` keeps
  only the row side (``u``, ``u_inv``) or the column side (``v``,
  ``v_inv``), and the loop then spends nothing on the other.  A cocycle
  basis reads the column side of the coboundary's form and the row side of
  the quotient's.
* :func:`_diag_snf` runs it untracked and keeps only the nonzero diagonal.
  :func:`invariant_factors` gets there after first eliminating fill-free
  +-1 pivots in a sparse representation, which is where boundary-like
  matrices spend almost all their rank, so the dense loop only sees a tiny
  core.

Row spaces over Q need no Smith form: :func:`row_basis` cuts a list of rows
down to a basis of their span by fraction-free elimination, with nothing
tracked.

A fill-free pivot is a +-1 entry alone in its row or in its column:
eliminating it changes no other entry.  :func:`_sparse_unit_reduction`
sweeps the matrix for them, in row order, until a sweep eliminates nothing;
whatever is left goes to the dense loop as it is.  No pivot order shows in a
result: every elimination is a unimodular change of basis, and the invariant
factors of a matrix do not depend on the bases.

The boundary maps of a chain complex do not start here:
:class:`~moment_angle.homology.ChainComplexZ` first pairs coreductions and
free faces across all degrees, so a pair removed in one degree is gone from
the next as well, and passes only the leftover columns to
:func:`invariant_factors_sparse`.  Those leftovers have no fill-free pivot
left, and they are small torsion cores (5 or 6 rows for the Z/2 of the
6-vertex RP^2).  The sweep here is the same move within one matrix, for
the plain matrices :func:`invariant_factors` and :func:`is_unimodular_square`
are given: the library sends them only small ones, such as one
complementary block pair of a Poincaré pairing (at most 5 x 5 on the
12-vertex truncated simplex), so a plain matrix without a fill-free pivot
costs little in the cubic dense loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Matrix = list  # list[list[int]]


def identity(n: int) -> Matrix:
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(out):
        row[i] = 1
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, v in enumerate(row):
            if v:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        acc[j] += v * brow[j]
        out.append(acc)
    return out


def _transpose(mat: Matrix | None) -> Matrix | None:
    return None if mat is None else [list(col) for col in zip(*mat)]


@dataclass
class SNFResult:
    """U @ M @ V == D with U, V unimodular and D a divisor chain diagonal.

    The transforms are kept as :func:`_reduce` updates them: ``u`` and
    ``v_inv`` as they are, ``u_inv_t`` and ``v_t`` transposed, so a column
    of ``V`` is a row of ``v_t``.  ``u_inv`` and ``v`` transpose them back.
    The transforms of an untracked side are ``None``.
    """

    u: Matrix | None
    d: Matrix
    u_inv_t: Matrix | None
    v_t: Matrix | None
    v_inv: Matrix | None
    rows: int
    cols: int

    @property
    def u_inv(self) -> Matrix | None:
        return _transpose(self.u_inv_t)

    @property
    def v(self) -> Matrix | None:
        return _transpose(self.v_t)

    def diagonal(self) -> list:
        return [self.d[i][i] for i in range(min(self.rows, self.cols)) if self.d[i][i]]

    @property
    def rank(self) -> int:
        return len(self.diagonal())


def _find_pivot(d: Matrix, t: int, rows: int, cols: int):
    best = None
    for i in range(t, rows):
        row = d[i]
        for j in range(t, cols):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def _sub_row(target: list, source: list, q: int) -> None:
    """target -= q * source, entry by entry."""
    for k, x in enumerate(source):
        if x:
            target[k] -= q * x


def _sub_col(mat: Matrix, j: int, i: int, q: int) -> None:
    """Column j of ``mat`` -= q * column i."""
    for r in mat:
        if r[i]:
            r[j] -= q * r[i]


def _reduce(d: Matrix, rows: int, cols: int, row_pair=None, col_pair=None) -> list:
    """Reduce ``d`` in place to Smith form; returns its nonzero diagonal.

    Pivot rule: smallest absolute value, ties broken in row-major order, so
    the output (and everything derived from it) is deterministic.  A side
    given a pair of transforms has every operation copied into it, so that
    ``U @ M @ V == D`` holds throughout: ``row_pair`` is ``(u, u_inv_t)``
    and ``col_pair`` is ``(v_t, v_inv)``, the ``_t`` ones transposed, so
    every tracked update is a row operation.  Subtracting q times line b
    of ``d`` from line a, rows or columns, subtracts q times row b from row
    a of the pair's first matrix and adds q times row a to row b of its
    second; a swap swaps the two rows in both, and negating a row of ``d``
    negates that row in both.  A side without a pair costs nothing.
    """

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        if row_pair:
            for mat in row_pair:
                mat[i], mat[j] = mat[j], mat[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        if row_pair:
            for mat in row_pair:
                mat[i] = [-x for x in mat[i]]

    def row_axpy(i, j, q):
        # row i -= q * row j
        _sub_row(d[i], d[j], q)
        if row_pair:
            fwd, inv = row_pair
            _sub_row(fwd[i], fwd[j], q)
            _sub_row(inv[j], inv[i], -q)

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        if col_pair:
            for mat in col_pair:
                mat[i], mat[j] = mat[j], mat[i]

    def col_axpy(j, i, q):
        # col j -= q * col i
        _sub_col(d, j, i, q)
        if col_pair:
            fwd, inv = col_pair
            _sub_row(fwd[j], fwd[i], q)
            _sub_row(inv[i], inv[j], -q)

    diagonal = []
    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = _find_pivot(d, t, rows, cols)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if d[t][t] < 0:
            row_negate(t)
        while True:
            dirty = False
            i = t + 1
            while i < rows:
                a = d[i][t]
                if a:
                    q, rem = divmod(a, d[t][t])
                    if q:
                        row_axpy(i, t, q)
                    if rem:
                        row_swap(t, i)
                        dirty = True
                        continue
                i += 1
            j = t + 1
            while j < cols:
                a = d[t][j]
                if a:
                    q, rem = divmod(a, d[t][t])
                    if q:
                        col_axpy(j, t, q)
                    if rem:
                        col_swap(t, j)
                        dirty = True
                        break
                j += 1
            if dirty:
                continue
            # row and column are clean; enforce divisibility of the rest,
            # which a unit pivot has already
            p = d[t][t]
            if p == 1:
                break
            offender = None
            for i in range(t + 1, rows):
                row = d[i]
                for j in range(t + 1, cols):
                    if row[j] % p:
                        offender = j
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            col_axpy(t, offender, -1)  # col t += col offender
        diagonal.append(d[t][t])
        t += 1
    return diagonal


def smith_normal_form(
    m: Matrix, rows: int | None = None, cols: int | None = None, *, track: str = "uv"
) -> SNFResult:
    """Dense Smith normal form with tracked transforms (and their inverses).

    ``track`` names the sides to track: ``"u"`` for ``u`` and ``u_inv``,
    ``"v"`` for ``v`` and ``v_inv``.  An untracked side is left ``None``
    and costs nothing; ``d`` and the pivots do not depend on ``track``.
    """
    if rows is None:
        rows = len(m)
    if cols is None:
        cols = len(m[0]) if m else 0
    d = [list(row) for row in m]
    row_pair = (identity(rows), identity(rows)) if "u" in track else None
    col_pair = (identity(cols), identity(cols)) if "v" in track else None
    _reduce(d, rows, cols, row_pair, col_pair)
    u, u_inv_t = row_pair or (None, None)
    v_t, v_inv = col_pair or (None, None)
    return SNFResult(u=u, d=d, u_inv_t=u_inv_t, v_t=v_t, v_inv=v_inv, rows=rows, cols=cols)


def _diag_snf(d: Matrix) -> list:
    """Nonzero Smith diagonal of a dense matrix, reduced in place, untracked."""
    return _reduce(d, len(d), len(d[0]) if d else 0)


def row_basis(rows) -> Matrix:
    """A basis over Q of the span of ``rows``, fraction free and untracked.

    Each row is eliminated against the kept rows at their pivot columns, in
    the order they were kept; a row that becomes zero is dropped, and any
    other is kept with its first nonzero column as its pivot, divided by its
    content so that the pivot is positive.  Every kept row is zero at the
    pivots of the rows kept before it, so the kept rows are independent.
    """
    basis = []
    pivots = []
    for r in rows:
        for b, j in zip(basis, pivots):
            a = r[j]
            if a:
                p = b[j]
                r = [p * x - a * y for x, y in zip(r, b)]
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            continue
        content = gcd(*r)
        if r[pivot] < 0:
            content = -content
        basis.append([x // content for x in r])
        pivots.append(pivot)
    return basis


def _eliminate(rows_map: dict, cols_map: dict, pr, pc) -> None:
    """Drop row ``pr`` and column ``pc`` of the fill-free +-1 pivot at ``(pr, pc)``.

    The pivot is alone in its row or in its column, so clearing the rest of
    both with it changes no other entry.
    """
    for c in rows_map.pop(pr):
        cols_map[c].discard(pr)
    for r2 in cols_map.pop(pc):
        row2 = rows_map[r2]
        del row2[pc]
        if not row2:
            del rows_map[r2]


def _sparse_unit_reduction(rows_map: dict, cols_map: dict) -> int:
    """Eliminate fill-free +-1 pivots in place; returns how many were eliminated.

    ``rows_map`` is ``{row: {col: value}}`` and ``cols_map`` is ``{col: set of
    rows}``; both are kept in step.  A fill-free pivot is a +-1 entry alone
    in its row or in its column (the coreductions of Mrozek and Batko).
    Row operations with it clear the rest of its column and column
    operations the rest of its row, and neither changes any other entry, so
    its row and column are dropped and the invariant factors of the rest are
    unchanged apart from one unit factor.

    Each sweep takes, in row order, every fill-free pivot it meets, and the
    sweeps repeat until one eliminates nothing.  On return no +-1 entry is
    alone in its row or its column; what is left is the core that
    :func:`invariant_factors_sparse` hands to the dense loop.
    """
    eliminated = 0
    while rows_map:
        before = eliminated
        for r in list(rows_map):
            row = rows_map.get(r)
            if row is None:
                continue
            single_row = len(row) == 1
            for c, val in row.items():
                if (val == 1 or val == -1) and (single_row or len(cols_map[c]) == 1):
                    _eliminate(rows_map, cols_map, r, c)
                    eliminated += 1
                    break
        if eliminated == before:
            break
    return eliminated


def invariant_factors_sparse(entries: dict) -> list:
    """Invariant factors from a {row: {col: value}} sparse matrix."""
    rows_map = {r: dict(row) for r, row in entries.items() if row}
    if not rows_map:
        return []
    cols_map: dict = {}
    for r, row in rows_map.items():
        for c in row:
            cols_map.setdefault(c, set()).add(r)
    units = _sparse_unit_reduction(rows_map, cols_map)
    if not rows_map:
        return [1] * units
    row_ids = sorted(rows_map)
    col_ids = sorted(c for c, rs in cols_map.items() if rs)
    col_pos = {c: j for j, c in enumerate(col_ids)}
    dense = [[0] * len(col_ids) for _ in row_ids]
    for i, r in enumerate(row_ids):
        for c, val in rows_map[r].items():
            dense[i][col_pos[c]] = val
    return [1] * units + _diag_snf(dense)


def invariant_factors(m: Matrix) -> list:
    """Nonzero Smith diagonal (the invariant factor chain) of a dense matrix."""
    entries = {}
    for i, row in enumerate(m):
        sparse_row = {j: v for j, v in enumerate(row) if v}
        if sparse_row:
            entries[i] = sparse_row
    return invariant_factors_sparse(entries)


def is_unimodular_square(m: Matrix) -> bool:
    """Square with every invariant factor 1, i.e. determinant +-1."""
    n = len(m)
    if n == 0:
        return True
    if len(m[0]) != n:
        return False
    factors = invariant_factors(m)
    return len(factors) == n and all(f == 1 for f in factors)

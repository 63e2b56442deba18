"""Exact integer matrix reduction: Smith normal form and invariant factors.

Matrices are lists of rows of Python ints, so every computation is exact and
entry growth is merely slow, never wrong.  One dense pivot loop,
:func:`_reduce`, does all Smith-form work, and it has two entry points:

* :func:`smith_normal_form` hands it the unimodular transforms (and their
  inverses) to update, for the small matrices behind explicit cocycle bases.
* :func:`_diag_snf` runs it untracked and keeps only the nonzero diagonal.
  :func:`invariant_factors` gets there after first eliminating fill-free
  +-1 pivots in a sparse representation, which is where boundary-like
  matrices spend almost all their rank, so the dense loop only sees a tiny
  core.

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

Matrix = list  # list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


@dataclass
class SNFResult:
    """U @ M @ V == D with U, V unimodular and D a divisor chain diagonal."""

    u: Matrix
    d: Matrix
    v: Matrix
    u_inv: Matrix
    v_inv: Matrix
    rows: int
    cols: int

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


def _reduce(d: Matrix, rows: int, cols: int, tracked: tuple | None = None) -> list:
    """Reduce ``d`` in place to Smith form; returns its nonzero diagonal.

    Pivot rule: smallest absolute value, ties broken in row-major order, so
    the output (and everything derived from it) is deterministic.  When
    ``tracked`` is ``(u, u_inv, v, v_inv)``, every row operation is copied
    into ``u`` and ``u_inv`` and every column operation into ``v`` and
    ``v_inv``, so that ``U @ M @ V == D`` holds throughout.
    """
    if tracked:
        u, u_inv, v, v_inv = tracked

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        if tracked:
            u[i], u[j] = u[j], u[i]
            for r in u_inv:
                r[i], r[j] = r[j], r[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        if tracked:
            u[i] = [-x for x in u[i]]
            for r in u_inv:
                r[i] = -r[i]

    def row_axpy(i, j, q):
        # row i -= q * row j
        _sub_row(d[i], d[j], q)
        if tracked:
            _sub_row(u[i], u[j], q)
            _sub_col(u_inv, j, i, -q)

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        if tracked:
            for r in v:
                r[i], r[j] = r[j], r[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def col_axpy(j, i, q):
        # col j -= q * col i
        _sub_col(d, j, i, q)
        if tracked:
            _sub_col(v, j, i, q)
            _sub_row(v_inv[i], v_inv[j], -q)

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


def smith_normal_form(m: Matrix, rows: int | None = None, cols: int | None = None) -> SNFResult:
    """Dense Smith normal form with tracked transforms (and their inverses)."""
    if rows is None:
        rows = len(m)
    if cols is None:
        cols = len(m[0]) if m else 0
    d = [list(row) for row in m]
    u, u_inv, v, v_inv = identity(rows), identity(rows), identity(cols), identity(cols)
    _reduce(d, rows, cols, (u, u_inv, v, v_inv))
    return SNFResult(u=u, d=d, v=v, u_inv=u_inv, v_inv=v_inv, rows=rows, cols=cols)


def _diag_snf(d: Matrix) -> list:
    """Nonzero Smith diagonal of a dense matrix, reduced in place, untracked."""
    return _reduce(d, len(d), len(d[0]) if d else 0)


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

"""Exact integer matrix reduction: Smith normal form and invariant factors.

Matrices are lists of rows of Python ints, so every computation is exact and
entry growth is merely slow, never wrong.  Two entry points:

* :func:`smith_normal_form` tracks the full unimodular transforms (and their
  inverses) and is meant for the small matrices behind explicit cocycle bases.
* :func:`invariant_factors` only returns the nonzero diagonal of the Smith
  form.  It first eliminates on +-1 pivots in a sparse representation, which
  is where boundary-like matrices spend almost all their rank, and only then
  falls back to the dense algorithm on the tiny remaining core.

The +-1 pivots are taken fill-free ones first, in one pass, and then from a
heap ordered by Markowitz fill, so no pivot needs a scan of the whole matrix
(see :func:`_sparse_unit_reduction`).  The pivot order never shows in a
result: every elimination is a unimodular change of basis, and the invariant
factors of a matrix do not depend on the bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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


def matvec(a: Matrix, x: list) -> list:
    return [sum(v * x[k] for k, v in enumerate(row) if v) for row in a]


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


def smith_normal_form(m: Matrix, rows: int | None = None, cols: int | None = None) -> SNFResult:
    """Dense Smith normal form with tracked transforms.

    Pivot rule: smallest absolute value, ties broken in row-major order, so
    the output (and everything derived from it) is deterministic.
    """
    if rows is None:
        rows = len(m)
    if cols is None:
        cols = len(m[0]) if m else 0
    d = [list(row) for row in m]
    u = identity(rows)
    u_inv = identity(rows)
    v = identity(cols)
    v_inv = identity(cols)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def row_axpy(i, j, q):
        # row i -= q * row j
        di, dj = d[i], d[j]
        for k in range(cols):
            if dj[k]:
                di[k] -= q * dj[k]
        ui, uj = u[i], u[j]
        for k in range(rows):
            if uj[k]:
                ui[k] -= q * uj[k]
        for r in u_inv:
            if r[i]:
                r[j] += q * r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def col_axpy(j, i, q):
        # col j -= q * col i
        for r in d:
            if r[i]:
                r[j] -= q * r[i]
        for r in v:
            if r[i]:
                r[j] -= q * r[i]
        vi, vj = v_inv[i], v_inv[j]
        for k in range(cols):
            if vj[k]:
                vi[k] += q * vj[k]

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
                    col_axpy(j, t, q)
                    if rem:
                        col_swap(t, j)
                        dirty = True
                        break
                j += 1
            if dirty:
                continue
            # row and column are clean; enforce divisibility of the rest
            p = d[t][t]
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
        t += 1
    return SNFResult(u=u, d=d, v=v, u_inv=u_inv, v_inv=v_inv, rows=rows, cols=cols)


def _diag_snf(d: Matrix) -> list:
    """Nonzero Smith diagonal of a dense matrix, no transform tracking."""
    rows = len(d)
    cols = len(d[0]) if d else 0
    t = 0
    limit = min(rows, cols)
    out = []
    while t < limit:
        pivot = _find_pivot(d, t, rows, cols)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
        if pj != t:
            for r in d:
                r[t], r[pj] = r[pj], r[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        while True:
            dirty = False
            i = t + 1
            while i < rows:
                a = d[i][t]
                if a:
                    q, rem = divmod(a, d[t][t])
                    if q:
                        di, dt = d[i], d[t]
                        for k in range(t, cols):
                            if dt[k]:
                                di[k] -= q * dt[k]
                    if rem:
                        d[t], d[i] = d[i], d[t]
                        dirty = True
                        continue
                i += 1
            j = t + 1
            while j < cols:
                a = d[t][j]
                if a:
                    q, rem = divmod(a, d[t][t])
                    if q:
                        for r in d:
                            if r[t]:
                                r[j] -= q * r[t]
                    if rem:
                        for r in d:
                            r[t], r[j] = r[j], r[t]
                        dirty = True
                        break
                j += 1
            if dirty:
                continue
            p = d[t][t]
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
            for r in d:
                r[t] += r[offender]
        out.append(d[t][t])
        t += 1
    return out


def _eliminate(rows_map: dict, cols_map: dict, pr, pc) -> list:
    """Clear column ``pc`` with the +-1 pivot at ``(pr, pc)`` and drop row ``pr``.

    Returns the rows that were changed.
    """
    pivot_row = rows_map.pop(pr)
    p = pivot_row[pc]
    for c in pivot_row:
        cols_map[c].discard(pr)
    touched = list(cols_map[pc])
    for r2 in touched:
        row2 = rows_map[r2]
        f = row2[pc] * p
        for c2, val in pivot_row.items():
            nv = row2.get(c2, 0) - f * val
            if nv:
                row2[c2] = nv
                cols_map[c2].add(r2)
            else:
                if c2 in row2:
                    del row2[c2]
                    cols_map[c2].discard(r2)
        if not row2:
            del rows_map[r2]
    del cols_map[pc]
    return touched


def _sparse_unit_reduction(rows_map: dict, cols_map: dict) -> int:
    """Eliminate on +-1 pivots in place; returns how many were eliminated.

    ``rows_map`` is ``{row: {col: value}}`` and ``cols_map`` is ``{col: set of
    rows}``; both are kept in step, and on return no +-1 entry is left.  A
    pivot's row is subtracted from the other rows of its column, and the
    cleared pivot row is dropped.  Dropping it amounts to implicit column
    operations that touch nothing else, so the invariant factors of the rest
    are unchanged apart from one unit factor.

    Pivot order, with no scan of the whole matrix per pivot:

    * One pass in row order takes every fill-free pivot it meets: a +-1
      entry alone in its row or in its column.  Eliminating it changes no
      other entry (the coreductions of Mrozek and Batko).
    * The other +-1 entries wait on a lazy heap keyed by the Markowitz fill
      ``(len(row) - 1) * (len(col) - 1)``, then row, then column.  A popped
      entry that is gone or no longer +-1 is skipped, and one whose fill has
      changed is pushed back with its new fill.  After each pivot, only the
      +-1 entries it wrote, in the rows it touched, are pushed.

    The order only decides which unimodular row and column operations are
    applied.  Invariant factors are unique, so no result depends on it.
    """
    eliminated = 0
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
    if not rows_map:
        return eliminated

    heap = [
        ((len(row) - 1) * (len(cols_map[c]) - 1), r, c)
        for r, row in rows_map.items()
        for c, val in row.items()
        if val == 1 or val == -1
    ]
    heapify(heap)
    while heap:
        fill, r, c = heappop(heap)
        row = rows_map.get(r)
        if row is None:
            continue
        val = row.get(c)
        if val != 1 and val != -1:
            continue
        now = (len(row) - 1) * (len(cols_map[c]) - 1)
        if now != fill:
            heappush(heap, (now, r, c))
            continue
        eliminated += 1
        for r2 in _eliminate(rows_map, cols_map, r, c):
            row2 = rows_map.get(r2)
            if row2 is None:
                continue
            rl = len(row2) - 1
            for c2 in row:  # the columns whose entries the pivot rewrote
                val = row2.get(c2)
                if val == 1 or val == -1:
                    heappush(heap, (rl * (len(cols_map[c2]) - 1), r2, c2))
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


def rank(m: Matrix) -> int:
    return len(invariant_factors(m))


def is_unimodular_square(m: Matrix) -> bool:
    """Square with every invariant factor 1, i.e. determinant +-1."""
    n = len(m)
    if n == 0:
        return True
    if len(m[0]) != n:
        return False
    factors = invariant_factors(m)
    return len(factors) == n and all(f == 1 for f in factors)

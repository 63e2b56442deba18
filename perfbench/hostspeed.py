"""How fast the host runs right now, measured by a fixed reference kernel.

The benchmark shares a few cores with other tenants whose load comes and goes
over seconds.  While they are busy every Python operation runs slower, by up
to 2x, and even the least time over a 30-second run drifts by 30% between
runs.  The reference kernel is a fixed sparse integer row reduction written
here, never the library's code: dict-of-dict rows, pivot choice and row
operations, the same kind of work as the library's hot loops.  Timed right
before and right after a library call, it tells how fast the host was
during that call.

A time divided by the kernel's time around it is a ratio that the host's
load mostly cancels out of.  ``normalised`` turns that ratio back into
seconds on a host where the kernel takes ``NOMINAL_S`` seconds, which is its
least time measured on a quiet 2-vCPU host.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.024
ROWS = 1200


def kernel() -> int:
    """Reduce a seeded random sparse integer matrix; returns the pivot count."""
    rng = random.Random(1)
    rows = [{rng.randrange(ROWS): rng.choice((-1, 1, 2)) for _ in range(4)} for _ in range(ROWS)]
    cols: dict = {}
    for i, row in enumerate(rows):
        for c in row:
            cols.setdefault(c, set()).add(i)
    alive = set(range(ROWS))
    pivots = 0
    for c in list(cols):
        candidates = [i for i in cols[c] if i in alive and abs(rows[i].get(c, 0)) == 1]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: len(rows[i]))
        prow, pv = rows[p], rows[p][c]
        alive.discard(p)
        pivots += 1
        for i in list(cols[c]):
            if i == p or i not in alive:
                continue
            row = rows[i]
            f = row.get(c, 0) * pv
            if not f:
                continue
            for k, v in prow.items():
                value = row.get(k, 0) - f * v
                if value:
                    row[k] = value
                    cols.setdefault(k, set()).add(i)
                else:
                    row.pop(k, None)
            if len(row) > 40:
                alive.discard(i)
    return pivots


def sample() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def normalised(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference``, at nominal host speed."""
    return seconds / reference * NOMINAL_S

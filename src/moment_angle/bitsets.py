"""Vertex sets as integer bitmasks.

Vertices carry 1-based labels; vertex ``v`` occupies bit ``v - 1``.  Python
integers have arbitrary precision, so the same representation is a machine
word for m <= 64 and degrades gracefully beyond that; subset, union and
intersection tests stay single expressions either way.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based vertex labels."""
    mask = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex labels are 1-based, got {v}")
        mask |= 1 << (v - 1)
    return mask


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of 1-based labels of a bitmask.

    Reads the binary digits once, lowest first, so the cost is linear in the
    bit length even for masks of millions of bits.
    """
    return tuple(i for i, bit in enumerate(bin(mask)[:1:-1], 1) if bit == "1")


def iter_vertices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, the full mask first and 0 last."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def lex_key(mask: int) -> tuple[int, ...]:
    """Sort key giving lexicographic order on sorted vertex tuples."""
    return vertices_of(mask)


def card_lex_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (mask.bit_count(), vertices_of(mask))


def shuffle_sign(left: int, right: int) -> int:
    """Sign of the permutation sorting (sorted left, sorted right) together.

    The two masks must be disjoint.  The parity equals the number of pairs
    (a, b) with a in ``left``, b in ``right`` and a > b.
    """
    inversions = 0
    for b in iter_vertices(right):
        inversions += (left >> b).bit_count()
    return -1 if inversions & 1 else 1

"""Seeded random complexes for cross-validation and property tests.

The generator keeps every sample small (at most ``max_missing`` missing
faces), so a corpus run exercises all three Tor computations without
pathological blowups, and tests can still compare against the full
2^|missing faces| Taylor complex.  Everything is driven by one
seed; the same seed always yields the same list.
"""

from __future__ import annotations

import random

from .bitsets import mask_of
from .complexes import SimplicialComplex

DEFAULT_SEED = 20240816
MAX_VERTICES = 7  # vertices of a sample before relabelling to its support
MAX_FACES = 220  # faces of a kept sample, the empty face included


def _restrict_to_support(m: int, facets: list) -> SimplicialComplex | None:
    support = 0
    for f in facets:
        support |= f
    if not support:
        return None
    verts = [v for v in range(1, m + 1) if support >> (v - 1) & 1]
    position = {v: i + 1 for i, v in enumerate(verts)}
    relabeled = []
    for f in facets:
        relabeled.append(mask_of(position[v] for v in range(1, m + 1) if f >> (v - 1) & 1))
    return SimplicialComplex(len(verts), relabeled)


def random_complex(rng: random.Random) -> SimplicialComplex | None:
    m = rng.randint(3, MAX_VERTICES)
    n_facets = rng.randint(2, m + 1)
    facets = []
    for _ in range(n_facets):
        size = rng.randint(1, min(m, 4))
        facets.append(mask_of(rng.sample(range(1, m + 1), size)))
    return _restrict_to_support(m, facets)


def random_complexes(
    count: int = 100,
    seed: int = DEFAULT_SEED,
    *,
    max_missing: int = 12,
) -> list:
    """A deterministic list of complexes, filtered to tractable sizes."""
    rng = random.Random(seed)
    out = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        complex_ = random_complex(rng)
        if complex_ is None:
            continue
        key = (complex_.m, complex_.facets)
        if key in seen:
            continue
        if len(complex_.missing_faces()) > max_missing:
            continue
        if len(complex_.face_set()) > MAX_FACES:
            continue
        seen.add(key)
        out.append(complex_)
    if len(out) < count:
        raise RuntimeError(f"generator stalled at {len(out)} of {count} complexes")
    return out

"""Finite simplicial complexes on 1-based vertex labels.

A complex stores its vertex count ``m`` and the antichain of facets as
bitmasks.  Everything else (faces by dimension, missing faces, full
subcomplexes) is derived on demand and cached; instances are immutable and
safe to share.  The EMPTY complex (no facets, only the empty face) is a
first-class value: it is what a full subcomplex on the empty vertex set
returns, and its reduced (-1)-homology is Z.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .bitsets import (
    card_lex_key,
    is_subset,
    iter_vertices,
    lex_key,
    mask_of,
    submasks,
    vertices_of,
)
from .errors import (
    ConstructionMismatch,
    IsolatedVertex,
    LabelCollision,
    NotAFacet,
    ParameterOutOfRange,
    ParseError,
    VertexOutOfRange,
)


def _as_mask(face) -> int:
    if isinstance(face, int):
        return face
    return mask_of(face)


def _antichain(masks: Iterable[int]) -> tuple:
    """Drop faces contained in another face; sort the survivors."""
    by_size = sorted(set(masks), key=lambda f: f.bit_count(), reverse=True)
    kept: list[int] = []
    for f in by_size:
        if not any(is_subset(f, g) for g in kept):
            kept.append(f)
    return tuple(sorted(kept, key=lex_key))


class SimplicialComplex:
    """An abstract simplicial complex given by its maximal faces.

    ``facets`` may mix bitmasks and vertex iterables; dominated faces are
    dropped so the stored facet list is always an antichain.  By default a
    vertex of 1..m outside every facet raises :class:`IsolatedVertex`; pass
    ``allow_ghosts=True`` for intermediate constructions that fill the gap
    later.
    """

    __slots__ = ("m", "facets", "name", "parent_vertices", "_cache")

    def __init__(self, m, facets=(), name=None, *, allow_ghosts=False, parent_vertices=None):
        if m < 0:
            raise ParameterOutOfRange(f"vertex count must be >= 0, got {m}")
        masks = [_as_mask(f) for f in facets]
        full = (1 << m) - 1
        for f in masks:
            if f == 0:
                raise VertexOutOfRange("facets must be nonempty vertex sets")
            if f & ~full:
                raise VertexOutOfRange(
                    f"facet {vertices_of(f)} uses labels outside 1..{m}"
                )
        self.m = m
        self.facets = _antichain(masks)
        self.name = name
        self.parent_vertices = parent_vertices
        self._cache = {}
        if not allow_ghosts and self.facets:
            ghosts = self.ghost_vertices()
            if ghosts:
                raise IsolatedVertex(f"vertices {ghosts} lie in no facet")

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.m == other.m and self.facets == other.facets

    def __hash__(self):
        return hash((self.m, self.facets))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<SimplicialComplex{label} m={self.m} facets={len(self.facets)}>"

    def __getstate__(self):
        return (self.m, self.facets, self.name, self.parent_vertices)

    def __setstate__(self, state):
        self.m, self.facets, self.name, self.parent_vertices = state
        self._cache = {}

    # -- basic queries ------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.facets

    def vertex_support(self) -> int:
        mask = 0
        for f in self.facets:
            mask |= f
        return mask

    def ghost_vertices(self) -> tuple:
        full = (1 << self.m) - 1
        return vertices_of(full & ~self.vertex_support())

    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(f.bit_count() for f in self.facets) - 1

    def face_set(self) -> frozenset:
        """Every face as a mask, including the empty face 0."""
        cached = self._cache.get("face_set")
        if cached is None:
            faces = {0}
            for f in self.facets:
                faces.update(submasks(f))
            cached = frozenset(faces)
            self._cache["face_set"] = cached
        return cached

    def faces_by_dim(self) -> dict:
        """dict d -> lexicographically sorted list of d-face masks, d >= -1."""
        cached = self._cache.get("faces_by_dim")
        if cached is None:
            grouped: dict[int, list] = {}
            for f in self.face_set():
                grouped.setdefault(f.bit_count() - 1, []).append(f)
            cached = {d: sorted(fs, key=lex_key) for d, fs in sorted(grouped.items())}
            self._cache["faces_by_dim"] = cached
        return cached

    def faces(self, d: int) -> list:
        """All d-faces in lexicographic order; d = -1 is the empty face."""
        return list(self.faces_by_dim().get(d, []))

    def is_face(self, face) -> bool:
        return _as_mask(face) in self.face_set()

    def f_vector(self) -> tuple:
        by_dim = self.faces_by_dim()
        return tuple(len(by_dim.get(d, [])) for d in range(self.dim() + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * fd for d, fd in enumerate(self.f_vector()))

    # -- missing faces ------------------------------------------------------

    def missing_faces(self) -> tuple:
        """Minimal non-faces, sorted by (cardinality, lexicographic).

        A candidate is a face plus one vertex that fails to be a face; it is
        minimal iff all its one-smaller subsets are faces.
        """
        cached = self._cache.get("missing_faces")
        if cached is not None:
            return cached
        faces = self.face_set()
        candidates = set()
        for tau in faces:
            for v in range(1, self.m + 1):
                bit = 1 << (v - 1)
                if tau & bit:
                    continue
                cand = tau | bit
                if cand not in faces:
                    candidates.add(cand)
        minimal = []
        for cand in candidates:
            if all((cand & ~(1 << (v - 1))) in faces for v in iter_vertices(cand)):
                minimal.append(cand)
        cached = tuple(sorted(minimal, key=card_lex_key))
        self._cache["missing_faces"] = cached
        return cached

    # -- derived complexes ---------------------------------------------------

    def full_subcomplex(self, subset) -> "SimplicialComplex":
        """Faces contained in ``subset``, relabeled 1..|subset|.

        The order-preserving relabeling is recorded in ``parent_vertices``
        (new label i corresponds to parent_vertices[i - 1]).
        """
        mask = _as_mask(subset)
        full = (1 << self.m) - 1
        if mask & ~full:
            raise VertexOutOfRange(f"subset {vertices_of(mask)} not within 1..{self.m}")
        parents = vertices_of(mask)
        position = {v: i for i, v in enumerate(parents)}
        kept = [f for f in self.face_set() if is_subset(f, mask)]
        relabeled = []
        for f in _antichain(f for f in kept if f):
            new = 0
            for v in iter_vertices(f):
                new |= 1 << position[v]
            relabeled.append(new)
        return SimplicialComplex(
            len(parents),
            relabeled,
            allow_ghosts=True,
            parent_vertices=parents,
        )

    def subset_faces_by_dim(self, subset) -> dict:
        """Faces of the full subcomplex in *parent* labels, grouped by dim."""
        mask = _as_mask(subset)
        out: dict[int, list] = {-1: [0]}
        for d, fs in self.faces_by_dim().items():
            if d < 0:
                continue
            kept = [f for f in fs if is_subset(f, mask)]
            if kept:
                out[d] = kept
        return out

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Simplicial join; the right factor's labels are shifted by ``m``."""
        shift = self.m
        left = self.facets or (0,)
        right = other.facets or (0,)
        facets = [a | (b << shift) for a in left for b in right]
        facets = [f for f in facets if f]
        return SimplicialComplex(self.m + other.m, facets, allow_ghosts=True)

    def cone(self, apex: int) -> "SimplicialComplex":
        """Cone with a fresh apex label (which may extend the ground set)."""
        if apex < 1:
            raise VertexOutOfRange(f"apex label must be positive, got {apex}")
        bit = 1 << (apex - 1)
        if self.vertex_support() & bit:
            raise LabelCollision(f"apex {apex} already used")
        base = self.facets or (0,)
        return SimplicialComplex(
            max(self.m, apex),
            [f | bit for f in base],
            allow_ghosts=True,
        )

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Union of face sets over a shared labeling."""
        return SimplicialComplex(
            max(self.m, other.m),
            list(self.facets) + list(other.facets),
            allow_ghosts=True,
        )

    def stellar_subdivide_facet(self, facet, new_label: int) -> "SimplicialComplex":
        """Replace a facet by the cone over its boundary from a new vertex."""
        f = _as_mask(facet)
        if f not in self.facets:
            raise NotAFacet(f"{vertices_of(f)} is not a facet")
        if new_label < 1:
            raise VertexOutOfRange(f"label must be positive, got {new_label}")
        bit = 1 << (new_label - 1)
        if self.vertex_support() & bit:
            raise LabelCollision(f"label {new_label} already used")
        new_facets = [g for g in self.facets if g != f]
        for v in iter_vertices(f):
            new_facets.append((f & ~(1 << (v - 1))) | bit)
        return SimplicialComplex(max(self.m, new_label), new_facets, allow_ghosts=True)


EMPTY = SimplicialComplex(0, (), name="empty")


# -- standard builders --------------------------------------------------------


def two_points() -> SimplicialComplex:
    return SimplicialComplex(2, [(1,), (2,)])


def boundary_simplex(k: int) -> SimplicialComplex:
    """Boundary of the k-simplex: the (k-1)-sphere on k + 1 vertices."""
    if k < 1:
        raise ParameterOutOfRange(f"k must be >= 1, got {k}")
    verts = range(1, k + 2)
    return SimplicialComplex(k + 1, list(combinations(verts, k)), name=f"boundary-simplex-{k}")


def polygon(m: int) -> SimplicialComplex:
    """Boundary of an m-gon."""
    if m < 3:
        raise ParameterOutOfRange(f"polygon needs m >= 3, got {m}")
    edges = [(i, i + 1) for i in range(1, m)] + [(1, m)]
    return SimplicialComplex(m, edges, name=f"polygon-{m}")


def cross_polytope(n: int) -> SimplicialComplex:
    """Join of n + 1 two-point complexes: the n-sphere on 2n + 2 vertices."""
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")
    out = two_points()
    for _ in range(n):
        out = out.join(two_points())
    return SimplicialComplex(out.m, out.facets, name=f"cross-polytope-{n}")


def truncated_simplex(k: int, l: int) -> SimplicialComplex:
    """Stellar subdivisions of the boundary of the k-simplex, l times.

    Dual to cutting l vertices off the simple k-polytope.  The canonical
    sequence subdivides the lexicographically smallest facet not containing
    the newest vertex; new vertices get labels k + 2, ..., k + 1 + l.
    """
    if k < 2:
        raise ParameterOutOfRange(f"k must be >= 2, got {k}")
    if l < 0:
        raise ParameterOutOfRange(f"l must be >= 0, got {l}")
    out = boundary_simplex(k)
    for step in range(l):
        new_label = k + 2 + step
        newest_bit = 1 << (new_label - 2) if step else 0
        choices = [f for f in out.facets if not f & newest_bit]
        target = min(choices, key=lex_key)
        out = out.stellar_subdivide_facet(target, new_label)
    return SimplicialComplex(out.m, out.facets, name=f"truncated-simplex-{k}-{l}")


# -- the 8-vertex 3-sphere with a three-sphere product in its ring ------------

P28_FACETS = tuple(
    mask_of(f)
    for f in [
        (1, 2, 4, 5), (1, 2, 4, 6), (1, 2, 5, 7), (1, 2, 6, 7), (1, 3, 5, 7),
        (1, 3, 6, 7), (2, 3, 4, 7), (2, 3, 6, 7), (2, 4, 5, 7), (3, 4, 5, 7),
        (1, 4, 5, 8), (1, 4, 6, 8), (1, 3, 5, 8), (1, 3, 6, 8), (2, 3, 4, 8),
        (2, 3, 6, 8), (2, 4, 6, 8), (3, 4, 5, 8),
    ]
)

P28_MISSING_FACES = tuple(
    sorted(
        (
            mask_of(f)
            for f in [
                (1, 2, 3), (1, 3, 4), (2, 3, 5), (3, 4, 6), (5, 6),
                (1, 4, 7), (4, 6, 7), (1, 2, 8), (2, 5, 8), (7, 8),
            ]
        ),
        key=card_lex_key,
    )
)

_STAGE0_MISSING = tuple(
    sorted(
        (mask_of(f) for f in [(1, 2, 3), (1, 3, 4), (2, 3, 5), (3, 4, 6), (5, 6)]),
        key=card_lex_key,
    )
)


def construct_p28_8() -> SimplicialComplex:
    """Build the 8-vertex polytopal 3-sphere by its staged construction.

    Stage one glues two cones over subcomplexes of a disc-like complex on
    four vertices (new vertices 5 and 6), stage two cones an inner 2-sphere
    from vertex 8, stage three cones the boundary 2-sphere from vertex 7.
    The staged result is checked against the hard-coded facet list, so any
    drift in the intermediate complexes raises ConstructionMismatch.
    """
    k0 = SimplicialComplex(4, [(1, 2, 4), (2, 3, 4), (1, 3)])
    k1 = SimplicialComplex(4, [(1, 2, 4), (1, 3), (3, 4)])
    k2 = SimplicialComplex(4, [(1, 2, 4), (1, 3), (2, 3)])
    l1 = k0.union(k1.cone(5))
    l2 = k0.union(k2.cone(6))
    k0p = l1.union(l2)
    if k0p.missing_faces() != _STAGE0_MISSING:
        raise ConstructionMismatch("stage-one complex has wrong missing faces")
    inner_sphere = SimplicialComplex(
        6,
        [(1, 4, 5), (1, 4, 6), (1, 3, 5), (1, 3, 6), (2, 3, 4), (2, 3, 6), (2, 4, 6), (3, 4, 5)],
    )
    boundary_sphere = SimplicialComplex(
        6,
        [(1, 2, 5), (1, 2, 6), (1, 3, 5), (1, 3, 6), (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 4, 5)],
    )
    for tri in inner_sphere.facets:
        if not k0p.is_face(tri):
            raise ConstructionMismatch("inner sphere is not a subcomplex of stage one")
    for tri in boundary_sphere.facets:
        if not k0p.is_face(tri):
            raise ConstructionMismatch("boundary sphere is not a subcomplex of stage one")
    staged = k0p.union(inner_sphere.cone(8)).union(boundary_sphere.cone(7))
    if staged.facets != tuple(sorted(P28_FACETS, key=lex_key)):
        raise ConstructionMismatch("staged facets differ from the hard-coded list")
    return SimplicialComplex(8, staged.facets, name="p28-8")


# -- text format ---------------------------------------------------------------


def write_cplx(complex_: SimplicialComplex) -> str:
    """Serialize to the .cplx text format, facets in lexicographic order."""
    lines = [f"vertices {complex_.m}"]
    for f in sorted(complex_.facets, key=lex_key):
        lines.append("facet " + " ".join(str(v) for v in vertices_of(f)))
    return "\n".join(lines) + "\n"


def read_cplx(text: str) -> SimplicialComplex:
    """Parse the .cplx text format; raises ParseError with a line number."""
    m = None
    facets = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if m is not None:
                raise ParseError(line_no, "duplicate vertices line")
            if len(parts) != 2:
                raise ParseError(line_no, "expected: vertices <m>")
            try:
                m = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {parts[1]!r}") from None
            if m < 0:
                raise ParseError(line_no, "vertex count must be >= 0")
        elif parts[0] == "facet":
            if m is None:
                raise ParseError(line_no, "facet before vertices line")
            try:
                verts = [int(p) for p in parts[1:]]
            except ValueError:
                raise ParseError(line_no, "facet entries must be integers") from None
            if not verts:
                raise ParseError(line_no, "facet needs at least one vertex")
            if len(set(verts)) != len(verts):
                raise ParseError(line_no, "repeated vertex in facet")
            if any(v < 1 or v > m for v in verts):
                raise ParseError(line_no, f"vertex out of range 1..{m}")
            facets.append(mask_of(verts))
        else:
            raise ParseError(line_no, f"unknown directive {parts[0]!r}")
    if m is None:
        raise ParseError(0, "missing vertices line")
    return SimplicialComplex(m, facets)


def builtin_complex(name: str, params: tuple = ()) -> SimplicialComplex:
    """Named builders used by the command line: p28-8, polygon m, etc."""
    if name == "p28-8":
        return construct_p28_8()
    if name == "polygon":
        (m,) = params
        return polygon(m)
    if name == "simplex-boundary":
        (k,) = params
        return boundary_simplex(k)
    if name == "cross-polytope":
        (n,) = params
        return cross_polytope(n)
    if name == "truncated-simplex":
        k, l = params
        return truncated_simplex(k, l)
    raise ParameterOutOfRange(f"unknown builtin complex {name!r}")

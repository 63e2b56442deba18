"""Cup products on the subset decomposition and ring presentations.

A class living on the full subcomplex over I pairs with one over J through
the juxtaposition product (Baskakov 2002): zero unless I and J are disjoint,
otherwise (phi . psi)(sigma | tau) = phi(sigma) psi(tau) times the sign of
the shuffle sorting sigma | tau, for faces sigma | tau of K with sigma in I
and tau in J.  :func:`star_product` reads it off the pairs of supported
faces, at a cost of the product of the two support sizes.
:func:`ring_presentation` multiplies the representatives of each pair of
blocks as supports read off the two block bases, through the same join and
the same coboundary check, and writes each product in the target block's
basis; a generator's :class:`HochsterClass` is built from its block only
when it is read.  The product is associative on the nose, and it commutes as
h.g = (-1)^{(d1+1)(d2+1)} g.h in the reduced degrees d1, d2, which is the
rule the stored products obey.  That is NOT graded commutativity in the
moment-angle total degrees |J| + d + 1, and no per-class sign can make it
so: changing the sign of a class changes g.h and h.g alike, so the
commutation sign of two blocks does not depend on the basis.  The structure
constants therefore differ from the cup product of the moment-angle complex
by a sign on some pairs of blocks.  If that sign depends only on the two
blocks, every t-fold product is off by a sign at most, so ranks of product
spans over Q, the unimodularity of the pairing and the existence of top
products do not see it; the golden assertions downstream are stated as
those.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import islice, product

from .bitsets import is_subset, lex_key, mask_of, shuffle_sign, vertices_of
from .complexes import SimplicialComplex, _as_mask, subset_mask
from .errors import (
    BasisMismatch,
    DegreeMismatch,
    NotACocycle,
    NotASubcomplex,
    ParameterOutOfRange,
    TorsionWarning,
)
from .hochster import BigradedBetti, bigraded_betti
from .homology import Abelian, ChainComplexZ, CohomologyBasis
from .snf import identity, is_unimodular_square, row_basis


class HochsterClass:
    """A cochain on one full subcomplex, kept in parent vertex labels.

    ``subset`` is the vertex set the class lives on, ``degree`` the reduced
    cochain degree, ``cochain`` a mapping face mask -> coefficient over the
    degree-faces of the subcomplex.  The zero class is an empty cochain.
    """

    __slots__ = ("subset", "degree", "cochain")

    def __init__(self, subset: int, degree: int, cochain: dict):
        clean = {}
        for face, coeff in cochain.items():
            if not coeff:
                continue
            if not is_subset(face, subset):
                raise DegreeMismatch(
                    f"face {vertices_of(face)} is not inside {vertices_of(subset)}"
                )
            if face.bit_count() != degree + 1:
                raise DegreeMismatch(
                    f"face {vertices_of(face)} has the wrong cardinality for degree {degree}"
                )
            clean[face] = coeff
        self.subset = subset
        self.degree = degree
        self.cochain = clean

    @property
    def total_degree(self) -> int:
        return self.subset.bit_count() + self.degree + 1

    @property
    def is_zero(self) -> bool:
        return not self.cochain

    def items(self):
        return sorted(self.cochain.items(), key=lambda kv: lex_key(kv[0]))

    def __eq__(self, other):
        if not isinstance(other, HochsterClass):
            return NotImplemented
        return (
            self.subset == other.subset
            and self.degree == other.degree
            and self.cochain == other.cochain
        )

    def __neg__(self):
        return HochsterClass(
            self.subset, self.degree, {f: -c for f, c in self.cochain.items()}
        )

    def __repr__(self):
        support = [(vertices_of(f), c) for f, c in self.items()]
        return (
            f"HochsterClass(J={vertices_of(self.subset)}, d={self.degree}, "
            f"cochain={support})"
        )


def _coboundary_check(subset: int, cochain: dict, columns: dict) -> None:
    """Raise :class:`NotACocycle` unless the coboundary of ``cochain`` on K_J vanishes.

    ``columns`` is the complex's boundary table.  Only the cofaces
    ``face | v`` of supported faces, v in J, can carry the coboundary.
    """
    coboundary = {}
    for face, coeff in cochain.items():
        rest = subset & ~face
        while rest:
            low = rest & -rest
            rest ^= low
            coface = face | low
            column = columns.get(coface)
            if column is not None:
                coboundary[coface] = coboundary.get(coface, 0) + column[face] * coeff
    for coface, total in coboundary.items():
        if total:
            raise NotACocycle(
                f"juxtaposition product has coboundary {total} on {vertices_of(coface)}"
            )


def _check_cocycle(cls: HochsterClass, complex_: SimplicialComplex) -> None:
    """Raise :class:`NotACocycle` unless the coboundary of ``cls`` on K_J vanishes."""
    _coboundary_check(cls.subset, cls.cochain, complex_.boundary_table())


def _join(left_items, right_items, faces) -> dict:
    """The juxtaposition cochain of two supports over disjoint vertex sets.

    ``left_items`` and ``right_items`` are ``(face, coefficient)`` pairs with
    nonzero coefficients; each join ``sigma | tau`` in ``faces`` gets
    c1(sigma) c2(tau) times the shuffle sign, so no coefficient is zero.
    """
    cochain = {}
    for left, a in left_items:
        for right, b in right_items:
            face = left | right
            if face in faces:
                cochain[face] = a * b * shuffle_sign(left, right)
    return cochain


def _positions(cochain: dict, index: dict) -> list:
    """``(position, coefficient)`` entries of a cochain over one degree of a block's faces."""
    try:
        return [(index[f], c) for f, c in cochain.items()]
    except KeyError:
        extra = [f for f in cochain if f not in index]
        raise DegreeMismatch(
            f"cochain supported outside the subcomplex: {sorted(map(vertices_of, extra))}"
        ) from None


def _terms(free: tuple, gids, subset: int, degree: int) -> list:
    """``(generator id, coefficient)`` of free coordinates over a block's ids."""
    if len(free) != len(gids):
        raise BasisMismatch(
            f"{len(free)} coordinates for {len(gids)} generators of block "
            f"({vertices_of(subset)}, {degree})"
        )
    return [(gid, coeff) for gid, coeff in zip(gids, free) if coeff]


def star_product(
    c1: HochsterClass, c2: HochsterClass, complex_: SimplicialComplex
) -> HochsterClass:
    """Juxtaposition product of two classes; zero when supports overlap.

    (c1 . c2)(sigma | tau) = c1(sigma) c2(tau) shuffle_sign(sigma, tau) for
    each supported sigma of c1 and tau of c2 whose join is a face of K, so
    the cost is the product of the two support sizes.
    """
    union = c1.subset | c2.subset
    degree = c1.degree + c2.degree + 1
    if c1.subset & c2.subset:
        return HochsterClass(union, degree, {})
    cochain = _join(c1.cochain.items(), c2.cochain.items(), complex_.face_set())
    result = HochsterClass(union, degree, cochain)
    _check_cocycle(result, complex_)
    return result


@dataclass(slots=True)
class RingGenerator:
    """One free basis class of a block; its cochain is read from the block on demand."""

    gid: int
    subset: int
    degree: int  # reduced cochain degree
    index: int  # position within the (subset, degree) basis
    _context: _BlockContext = field(repr=False, compare=False)
    _cls: HochsterClass | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def cls(self) -> HochsterClass:
        """The representative cocycle, built once from the block's basis."""
        if self._cls is None:
            self._cls = self._context.class_of(self.degree, self.index)
        return self._cls

    @property
    def total_degree(self) -> int:
        return self.subset.bit_count() + self.degree + 1

    def address(self) -> tuple:
        return (self.subset, self.degree, self.index)


class _BlockContext:
    """Cohomology basis of one full subcomplex, faces in parent labels.

    ``basis`` is the one its presentation keeps for the block's shape (see
    :class:`RingPresentation`), found through the block's
    :meth:`.SimplicialComplex.shape_key`.  Only the first block of a shape
    builds a chain complex, the one that basis is computed on; every block
    lists its own faces, and their positions, only in the degrees that its
    methods ask for, and reads ``basis`` through those positions.  A class
    is written in ``basis`` through :meth:`index` by the pair loop and by
    :meth:`RingPresentation.express_class`, not by the block.
    """

    def __init__(self, complex_: SimplicialComplex, subset: int, bases: dict, shapes: dict):
        self.complex = complex_
        self.subset = subset
        self._faces = {}  # degree -> this block's faces, in lex order
        self._index = {}  # degree -> {face: position in _faces}
        key = complex_.shape_key(subset)
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = complex_.subset_shape(subset)
            cc = ChainComplexZ.of_subset(complex_, subset)
            bases[shape] = CohomologyBasis(cc)
            self._faces.update(cc.faces)
        self.basis = bases[shape]

    def faces(self, degree: int) -> list:
        """The block's degree-d faces, listed when first asked for.

        Listing every degree of every block up front with
        :meth:`.SimplicialComplex.subset_faces_by_dim` was slower: ring
        ``wall_s`` read 0.0248-0.0254 s against 0.0245-0.0248 s for this
        per-degree listing (3 pairs, 2 vCPUs, Python 3.11).
        """
        faces = self._faces.get(degree)
        if faces is None:
            outside = ~self.subset
            by_dim = self.complex.faces_by_dim()
            faces = self._faces[degree] = [f for f in by_dim.get(degree, ()) if not f & outside]
        return faces

    def index(self, degree: int) -> dict:
        index = self._index.get(degree)
        if index is None:
            index = self._index[degree] = {f: i for i, f in enumerate(self.faces(degree))}
        return index

    def supports(self, degree: int) -> list:
        """Each representative's nonzero ``(face, coefficient)`` pairs, in basis order."""
        faces = self.faces(degree)
        return [
            [(f, c) for f, c in zip(faces, rep) if c]
            for rep in self.basis.degree(degree).representatives
        ]

    def class_of(self, degree: int, index: int) -> HochsterClass:
        """The class of one representative, validated by :class:`HochsterClass`."""
        rep = self.basis.degree(degree).representatives[index]
        cochain = {f: c for f, c in zip(self.faces(degree), rep) if c}
        return HochsterClass(self.subset, degree, cochain)


@dataclass
class RingPresentation:
    """Additive basis of the moment-angle cohomology with all pair products.

    Generators cover every nonzero (subset, degree) block of positive total
    degree (the unit class is left implicit); the generators of one block
    have consecutive ids.  ``products`` is sparse: it holds only the pairs
    ``(g, h)`` whose product is nonzero, mapped to the (generator id,
    coefficient) pairs expressing the product of the free representatives,
    and it is kept in ascending ``(g, h)`` order.  Each unordered pair is
    multiplied once and both orders are stored from that one product, the
    second by the reduced-degree commutation sign of the module docstring.
    Read products through ``product()``, which gives ``()`` for every other
    pair.  Torsion blocks are excluded with a warning.

    The products are taken from the block bases, not from generator
    classes: for each pair of blocks the loop joins the supports of their
    representatives, checks each product's coboundary on K_{I | J} and its
    faces against the target block's, and expresses it in the target's
    basis.  A generator holds only its address and its block; ``cls``
    builds its cochain on first read and keeps it.

    Blocks whose full subcomplexes have the same shape
    (:meth:`.SimplicialComplex.subset_shape`) share one
    :class:`.CohomologyBasis`, kept in ``_bases``; ``_shapes`` maps each
    block's :meth:`.SimplicialComplex.shape_key` to its shape, so each
    shape is scanned once.  Faces are listed in lex order of parent labels
    and the relabeling to 1..|J| keeps that order, so twins have the same
    local boundary matrices.  The first block of a shape builds its chain
    complex and the basis on it, two one-sided Smith forms per degree;
    every later twin only lists its own faces in the degrees it is asked
    for (98 shapes for the 439 blocks of polygon 9).  The memo lives and
    dies with the presentation; nothing carries over to another one.
    """

    complex: SimplicialComplex
    table: BigradedBetti
    generators: list
    products: dict
    fundamental_id: int | None
    has_torsion: bool
    _contexts: dict = field(default_factory=dict, repr=False)
    _bases: dict = field(default_factory=dict, repr=False)  # shape -> CohomologyBasis
    _shapes: dict = field(default_factory=dict, repr=False)  # shape key -> shape
    _blocks: dict = field(default_factory=dict, repr=False)  # (subset, degree) -> gid range

    def context(self, subset: int) -> _BlockContext:
        ctx = self._contexts.get(subset)
        if ctx is None:
            ctx = _BlockContext(self.complex, subset, self._bases, self._shapes)
            self._contexts[subset] = ctx
        return ctx

    def find(self, subset, degree: int, index: int = 0) -> RingGenerator:
        """Generator by its (subset, degree, index) address."""
        subset = _as_mask(subset)
        block = self.block_generators(subset, degree)
        if not 0 <= index < len(block):
            raise KeyError((subset, degree, index))
        return block[index]

    def block_generators(self, subset: int, degree: int) -> list:
        """Generators of one block, read from the ids recorded for it.

        Entries that no longer carry the block's address are dropped, so a
        presentation whose generator list was altered yields a short block
        and ``express_class`` refuses it.
        """
        gids = self._blocks.get((subset, degree), range(0))
        return [
            g
            for g in self.generators[gids.start : gids.stop]
            if g.subset == subset and g.degree == degree
        ]

    def degree_generators(self, p: int) -> list:
        return [g for g in self.generators if g.total_degree == p]

    def express_class(self, cls: HochsterClass) -> list:
        """Coefficients of a class over its block's generators, read as the pair loop reads them."""
        context = self.context(cls.subset)
        support = _positions(cls.cochain, context.index(cls.degree))
        free = context.basis.degree(cls.degree).express(support).free
        block = self.block_generators(cls.subset, cls.degree)
        return _terms(free, [g.gid for g in block], cls.subset, cls.degree)

    def product(self, gid1: int, gid2: int) -> tuple:
        """Terms of the product of two generators; ``()`` when it is zero."""
        for gid in (gid1, gid2):
            if not 0 <= gid < len(self.generators):
                raise KeyError(gid)
        return self.products.get((gid1, gid2), ())

    def product_class(self, gids) -> HochsterClass:
        """Fold the juxtaposition product over a nonempty sequence of generators."""
        gids = list(gids)
        if not gids:
            raise ParameterOutOfRange("product_class needs at least one generator")
        for gid in gids:
            if not 0 <= gid < len(self.generators):
                raise KeyError(gid)
        cls = self.generators[gids[0]].cls
        for gid in gids[1:]:
            cls = star_product(cls, self.generators[gid].cls, self.complex)
            if cls.is_zero:
                return cls
        return cls

    def coefficient_on(self, cls: HochsterClass, gid: int) -> int:
        for g, coeff in self.express_class(cls):
            if g == gid:
                return coeff
        return 0


def ring_presentation(
    complex_: SimplicialComplex,
    *,
    table: BigradedBetti | None = None,
    **kwargs,
) -> RingPresentation:
    """Choose deterministic free bases per block and multiply them out."""
    if table is None:
        table = bigraded_betti(complex_, **kwargs)
    has_torsion = any(g.torsion for g in table.entries.values())
    if has_torsion:
        warnings.warn(
            "torsion classes present; the presentation restricts to free parts",
            TorsionWarning,
            stacklevel=2,
        )
    presentation = RingPresentation(
        complex=complex_,
        table=table,
        generators=[],
        products={},
        fundamental_id=None,
        has_torsion=has_torsion,
    )
    keys = [
        (subset, d)
        for (subset, d), group in table.entries.items()
        if subset.bit_count() + d + 1 > 0 and group.rank > 0
    ]
    keys.sort(key=lambda key: (key[0].bit_count() + key[1] + 1, lex_key(key[0]), key[1]))
    generators = presentation.generators
    for subset, d in keys:
        context = presentation.context(subset)
        start = len(generators)
        count = len(context.basis.degree(d).representatives)
        generators.extend(RingGenerator(start + i, subset, d, i, context) for i in range(count))
        presentation._blocks[(subset, d)] = range(start, len(generators))
    full = (1 << complex_.m) - 1
    top = presentation._blocks.get((full, complex_.dim()))
    if top and table.group(full, complex_.dim()) == Abelian(1, ()):
        presentation.fundamental_id = top.start
    # Baskakov's rule: the blocks over I and J multiply into the block over
    # I | J, and only when I and J are disjoint.  A target block without
    # free generators has no coordinates, so the pairs are found from the
    # free targets: for a target (T, d), every nonempty proper submask s1
    # of T with a block (s1, d1) pairs with the block (T ^ s1, d - d1 - 1),
    # if there is one.  Of s1 and T ^ s1 only the one holding T's lowest
    # vertex is walked, so each unordered pair is multiplied once and h.g
    # is stored from g.h by the commutation sign below.  Targets come in
    # block order, not in (g, h) order, so the products are sorted once at
    # the end.
    blocks = presentation._blocks
    by_subset = {}  # subset -> {degree: gid range}
    for (subset, d), gids in blocks.items():
        by_subset.setdefault(subset, {})[d] = gids
    # A product sits at least one degree above twice the lowest block degree.
    low = min((d for _, d in blocks), default=0)
    products = presentation.products
    faces = complex_.face_set()
    columns = complex_.boundary_table()
    # The loop multiplies representatives as supports read off each block's
    # basis, the same cochains ``RingGenerator.cls`` builds, through the
    # join and coboundary check of ``star_product``.  They are kept only
    # while the loop runs.
    supports = {}  # (subset, degree) -> each generator's supported faces

    def supported(subset, degree):
        out = supports.get((subset, degree))
        if out is None:
            out = supports[(subset, degree)] = presentation.context(subset).supports(degree)
        return out

    for target, target_degrees in by_subset.items():
        if max(target_degrees) <= 2 * low:
            continue
        context = presentation.context(target)
        lowest = target & -target
        rest = target ^ lowest
        part = rest  # s1 = part | lowest for every proper submask part of rest
        while part:
            part = (part - 1) & rest
            s1 = part | lowest
            left = by_subset.get(s1)
            right = left and by_subset.get(target ^ s1)
            if not right:
                continue
            for d1, gids1 in left.items():
                for d in target_degrees:
                    d2 = d - d1 - 1
                    gids2 = right.get(d2)
                    if gids2 is None:
                        continue
                    index, basis, gids = context.index(d), context.basis.degree(d), target_degrees[d]
                    # h.g = (-1)^{(d1+1)(d2+1)} g.h in the reduced degrees
                    # (TestStarProductLaws pins it on cochains)
                    flip = d1 % 2 == 0 and d2 % 2 == 0
                    rights = list(zip(gids2, supported(target ^ s1, d2)))
                    for g, left_items in zip(gids1, supported(s1, d1)):
                        for h, right_items in rights:
                            cochain = _join(left_items, right_items, faces)
                            if not cochain:
                                continue
                            _coboundary_check(target, cochain, columns)
                            free = basis.express(_positions(cochain, index)).free
                            terms = tuple(_terms(free, gids, target, d))
                            if terms:
                                products[(g, h)] = terms
                                products[(h, g)] = (
                                    tuple((gid, -c) for gid, c in terms) if flip else terms
                                )
    supports.clear()
    presentation.products = dict(sorted(products.items()))
    return presentation


def product_span_rank(presentation: RingPresentation, t: int, levels: list | None = None) -> dict:
    """Rank over Q of the span of products of >= t generators, by degree.

    That span is the t-th power of the ideal A+ of positive-degree classes,
    so its rank in each degree is a ring invariant although single products
    depend on the basis.  It is folded out of the stored structure constants
    one (subset, degree) block at a time: level 1 is the identity basis of
    every block, and level k multiplies each level k - 1 basis vector by
    every generator whose products with the vector's block are stored.
    Products over overlapping supports vanish, so no generator meets
    itself.  Both orders of every pair are stored (from one multiplication
    each, see :class:`RingPresentation`), so the fold needs only the right
    factors.  Each block's rows are cut down to a basis over Q by
    :func:`.snf.row_basis`; a rank over Q does not depend on which basis
    is kept.  Returns ``{p: rank}`` with the degrees of rank 0 left out.

    The fold passes every level below t on its way, so a caller that wants
    several factor counts passes a list as ``levels`` and folds once: the
    ranks of levels 1 to t are appended to it, level t last.
    """
    if t < 1:
        raise ParameterOutOfRange(f"t must be >= 1, got {t}")
    generators = presentation.generators
    blocks = presentation._blocks
    by_right = {}  # right factor -> [(left factor, terms)]
    for (g, h), terms in presentation.products.items():
        by_right.setdefault(h, []).append((generators[g], terms))
    level = {key: identity(len(ids)) for key, ids in blocks.items()}
    for k in range(1, t + 1):
        ranks = {}
        for (s, d), basis in level.items():
            p = s.bit_count() + d + 1
            ranks[p] = ranks.get(p, 0) + len(basis)
        ranks = dict(sorted(ranks.items()))
        if levels is not None:
            levels.append(ranks)
        if k == t:
            return ranks
        rows = {}
        for (s, d), basis in level.items():
            start = blocks[(s, d)].start
            for vec in basis:
                sums = {}  # left factor -> its product with vec, {gid: coefficient}
                for i, c in enumerate(vec):
                    if not c:
                        continue
                    for g, terms in by_right.get(start + i, ()):
                        acc = sums.setdefault(g.gid, {})
                        for gid, coeff in terms:
                            acc[gid] = acc.get(gid, 0) + c * coeff
                for left, acc in sums.items():
                    g = generators[left]
                    key = (g.subset | s, g.degree + d + 1)
                    row = [acc.get(gid, 0) for gid in blocks[key]]
                    if any(row):
                        rows.setdefault(key, []).append(row)
        level = {key: row_basis(block_rows) for key, block_rows in rows.items()}


@dataclass
class PairingReport:
    """Failure entries are ``(p, detail)``, p the degree of a failing block.

    ``detail`` is ``"rank mismatch r vs c"`` when the block and its
    complement differ in size, otherwise the block's pairing matrix.
    """

    ok: bool
    top: int
    failures: list

    def __bool__(self) -> bool:
        return self.ok


def poincare_pairing_report(presentation: RingPresentation) -> PairingReport:
    """Unimodularity of the product pairing, one complementary block at a time.

    By Baskakov's rule the block over (I, d) reaches the fundamental class
    only against the block over ([m] - I, dim - 1 - d), so the pairing is
    block diagonal, and unimodular exactly when each block of degree
    0 < p < top is square with determinant +-1 against its complement.
    """
    complex_ = presentation.complex
    top = complex_.m + complex_.dim() + 1
    fid = presentation.fundamental_id
    if fid is None:
        return PairingReport(ok=False, top=top, failures=[("no fundamental class", None)])
    on_top = {pair: dict(terms).get(fid, 0) for pair, terms in presentation.products.items()}
    full = (1 << complex_.m) - 1
    failures = []
    for (subset, d), rows in presentation._blocks.items():
        p = subset.bit_count() + d + 1
        if not 0 < p < top:
            continue
        cols = presentation._blocks.get((full & ~subset, complex_.dim() - 1 - d), range(0))
        matrix = [[on_top.get((g, h), 0) for h in cols] for g in rows]
        if len(rows) != len(cols):
            failures.append((p, f"rank mismatch {len(rows)} vs {len(cols)}"))
        elif not is_unimodular_square(matrix):
            failures.append((p, matrix))
    return PairingReport(ok=not failures, top=top, failures=failures)


@dataclass
class FunctorialityReport:
    ok: bool
    pairs_checked: int
    first_failure: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _push_class(cls: HochsterClass, parents: tuple) -> HochsterClass:
    """Relabel a class on a full subcomplex into parent coordinates."""

    def push_mask(mask: int) -> int:
        return mask_of(parents[i - 1] for i in vertices_of(mask))

    return HochsterClass(
        push_mask(cls.subset),
        cls.degree,
        {push_mask(f): c for f, c in cls.cochain.items()},
    )


def functoriality_check(
    complex_: SimplicialComplex,
    subset,
    *,
    max_pairs: int = 64,
) -> FunctorialityReport:
    """Products computed inside a full subcomplex match the ambient ones.

    The inclusion of the subcomplex is order-preserving, so pushing classes
    through the recorded relabeling must commute with the cochain-level
    product exactly, not just up to coboundary.
    """
    if max_pairs < 0:
        raise ParameterOutOfRange(f"max_pairs must be >= 0, got {max_pairs}")
    subset = subset_mask(subset, complex_.m, NotASubcomplex)
    sub = complex_.full_subcomplex(subset)
    parents = sub.parent_vertices
    sub_table = bigraded_betti(sub)
    sub_pres = ring_presentation(sub, table=sub_table)
    checked = 0
    gens = sub_pres.generators
    for g, h in islice(product(gens, gens), max_pairs):
        inner = star_product(g.cls, h.cls, sub)
        pushed_inner = _push_class(inner, parents)
        outer = star_product(
            _push_class(g.cls, parents), _push_class(h.cls, parents), complex_
        )
        checked += 1
        if pushed_inner != outer:
            return FunctorialityReport(
                ok=False,
                pairs_checked=checked,
                first_failure=(g.address(), h.address()),
            )
    return FunctorialityReport(ok=True, pairs_checked=checked)


def ring_json_obj(presentation: RingPresentation) -> dict:
    """Stable JSON form: generator addresses and integer structure constants.

    Products are listed as stored: nonzero only, in ascending ``(g, h)`` order.
    """
    gens = [
        {
            "id": g.gid,
            "J": list(vertices_of(g.subset)),
            "d": g.degree,
            "p": g.total_degree,
            "index": g.index,
        }
        for g in presentation.generators
    ]
    products = [
        {"g": a, "h": b, "terms": [[gid, coeff] for gid, coeff in terms]}
        for (a, b), terms in presentation.products.items()
    ]
    return {
        "m": presentation.complex.m,
        "dim": presentation.complex.dim(),
        "torsion_excluded": presentation.has_torsion,
        "fundamental": presentation.fundamental_id,
        "generators": gens,
        "products": products,
    }

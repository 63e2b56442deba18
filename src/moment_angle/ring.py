"""Cup products on the subset decomposition and ring presentations.

A class living on the full subcomplex over I pairs with one over J through
the juxtaposition product: zero unless I and J are disjoint, otherwise the
value on a simplex of K_{I union J} splits the simplex into its I-part and
J-part and multiplies the factor values with the sign of the shuffle sorting
them back together.  This realizes the cup product of the moment-angle
complex up to a per-class sign the sources leave free, so every golden
assertion downstream is stated up to sign or as a rank condition.

At the cochain level the product commutes up to (-1)^{(d1+1)(d2+1)} in the
reduced degrees (NOT the moment-angle total degrees: making the total-degree
sign literal would need a normalization of the degree-shifting isomorphism
that is not pinned down anywhere), and it is associative on the nose.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .bitsets import is_subset, lex_key, mask_of, shuffle_sign, vertices_of
from .complexes import SimplicialComplex
from .errors import BasisMismatch, DegreeMismatch, NotACocycle, NotASubcomplex, TorsionWarning
from .hochster import BigradedBetti, bigraded_betti
from .homology import Abelian, ChainComplexZ, CohomologyBasis, Expression
from .snf import identity, is_unimodular_square, smith_normal_form


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


def _check_cocycle(cls: HochsterClass, complex_: SimplicialComplex) -> None:
    columns = complex_.boundary_table()
    for face in complex_.faces_by_dim().get(cls.degree + 1, []):
        if not is_subset(face, cls.subset):
            continue
        total = sum(sign * cls.cochain.get(sub, 0) for sub, sign in columns[face].items())
        if total:
            raise NotACocycle(
                f"juxtaposition product has coboundary {total} on {vertices_of(face)}"
            )


def star_product(
    c1: HochsterClass, c2: HochsterClass, complex_: SimplicialComplex
) -> HochsterClass:
    """Juxtaposition product of two classes; zero when supports overlap."""
    union = c1.subset | c2.subset
    degree = c1.degree + c2.degree + 1
    if c1.subset & c2.subset:
        return HochsterClass(union, degree, {})
    cochain = {}
    for face in complex_.faces_by_dim().get(degree, []):
        if not is_subset(face, union):
            continue
        left = face & c1.subset
        if left.bit_count() != c1.degree + 1:
            continue
        right = face & c2.subset
        a = c1.cochain.get(left)
        if not a:
            continue
        b = c2.cochain.get(right)
        if not b:
            continue
        cochain[face] = a * b * shuffle_sign(left, right)
    result = HochsterClass(union, degree, cochain)
    _check_cocycle(result, complex_)
    return result


@dataclass
class RingGenerator:
    gid: int
    subset: int
    degree: int  # reduced cochain degree
    index: int  # position within the (subset, degree) basis
    cls: HochsterClass

    @property
    def total_degree(self) -> int:
        return self.subset.bit_count() + self.degree + 1

    def address(self) -> tuple:
        return (self.subset, self.degree, self.index)


class _BlockContext:
    """Cohomology basis of one full subcomplex, faces in parent labels.

    ``shared`` is the presentation's memo of degree bases (see
    :class:`RingPresentation`).
    """

    def __init__(self, complex_: SimplicialComplex, subset: int, shared: dict):
        self.subset = subset
        self.cc = ChainComplexZ.of_subset(complex_, subset)
        self.basis = CohomologyBasis(self.cc, _shared=shared)

    def express(self, cls: HochsterClass) -> Expression:
        index = self.cc.index.get(cls.degree, {})
        extra = [f for f in cls.cochain if f not in index]
        if extra:
            raise DegreeMismatch(
                f"cochain supported outside the subcomplex: {sorted(map(vertices_of, extra))}"
            )
        if not index:  # no faces in this degree, so no coordinates either
            return Expression((), ())
        support = [(index[f], c) for f, c in cls.cochain.items()]
        return self.basis.degree(cls.degree).express(support)

    def classes(self, degree: int) -> list:
        faces = self.cc.faces.get(degree, [])
        out = []
        for rep in self.basis.representatives(degree):
            cochain = {f: c for f, c in zip(faces, rep) if c}
            out.append(HochsterClass(self.subset, degree, cochain))
        return out


@dataclass
class RingPresentation:
    """Additive basis of the moment-angle cohomology with all pair products.

    Generators cover every nonzero (subset, degree) block of positive total
    degree (the unit class is left implicit); the generators of one block
    have consecutive ids.  ``products`` is sparse: it holds only the pairs
    ``(g, h)`` whose product is nonzero, mapped to the (generator id,
    coefficient) pairs expressing the product of the free representatives,
    and it is kept in ascending ``(g, h)`` order.  Read products through
    ``product()``, which gives ``()`` for every other pair.  Torsion blocks
    are excluded with a warning.

    The block contexts share one memo of degree bases, ``_bases``, keyed by
    the local boundary matrices into and out of the degree.  Faces are
    listed in lex order of parent labels, so full subcomplexes of the same
    shape meet the same key, and each distinct key runs its tracked Smith
    forms once (98 keys for the 439 degree bases of polygon 9).  The Smith
    form is deterministic, so a shared basis is the one a fresh computation
    would give.  The memo lives and dies with the presentation; nothing
    carries over to another one.
    """

    complex: SimplicialComplex
    table: BigradedBetti
    generators: list
    products: dict
    fundamental_id: int | None
    has_torsion: bool
    _contexts: dict = field(default_factory=dict, repr=False)
    _bases: dict = field(default_factory=dict, repr=False)  # boundary key -> degree basis
    _blocks: dict = field(default_factory=dict, repr=False)  # (subset, degree) -> gid range

    def context(self, subset: int) -> _BlockContext:
        ctx = self._contexts.get(subset)
        if ctx is None:
            ctx = _BlockContext(self.complex, subset, self._bases)
            self._contexts[subset] = ctx
        return ctx

    def find(self, subset, degree: int, index: int = 0) -> RingGenerator:
        """Generator by its (subset, degree, index) address."""
        if not isinstance(subset, int):
            subset = mask_of(subset)
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
        """Coefficients of a class over the generators of its block."""
        expr = self.context(cls.subset).express(cls)
        block = self.block_generators(cls.subset, cls.degree)
        if len(expr.free) != len(block):
            raise BasisMismatch(
                f"{len(expr.free)} coordinates for {len(block)} generators of block "
                f"({vertices_of(cls.subset)}, {cls.degree})"
            )
        return [
            (g.gid, coeff) for g, coeff in zip(block, expr.free) if coeff
        ]

    def product(self, gid1: int, gid2: int) -> tuple:
        """Terms of the product of two generators; ``()`` when it is zero."""
        for gid in (gid1, gid2):
            if not 0 <= gid < len(self.generators):
                raise KeyError(gid)
        return self.products.get((gid1, gid2), ())

    def product_class(self, gids) -> HochsterClass:
        """Fold the juxtaposition product over a sequence of generators."""
        gids = list(gids)
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
        for (subset, d) in table.sorted_keys()
        if subset.bit_count() + d + 1 > 0 and table.entries[(subset, d)].rank > 0
    ]
    keys.sort(key=lambda key: (key[0].bit_count() + key[1] + 1, lex_key(key[0]), key[1]))
    generators = presentation.generators
    for subset, d in keys:
        start = len(generators)
        for index, cls in enumerate(presentation.context(subset).classes(d)):
            generators.append(
                RingGenerator(gid=len(generators), subset=subset, degree=d, index=index, cls=cls)
            )
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
    # if there is one.  Targets come in block order, not in (g, h) order,
    # so the products are sorted once at the end.
    blocks = presentation._blocks
    by_subset = {}  # subset -> {degree: gid range}
    for (subset, d), gids in blocks.items():
        by_subset.setdefault(subset, {})[d] = gids
    # A product sits at least one degree above twice the lowest block degree.
    low = min((d for _, d in blocks), default=0)
    products = presentation.products
    for target, target_degrees in by_subset.items():
        if max(target_degrees) <= 2 * low:
            continue
        s1 = (target - 1) & target
        while s1:
            left = by_subset.get(s1)
            right = left and by_subset.get(target ^ s1)
            s1 = (s1 - 1) & target
            if not right:
                continue
            for d1, gids1 in left.items():
                for d in target_degrees:
                    gids2 = right.get(d - d1 - 1)
                    if gids2 is None:
                        continue
                    for g in generators[gids1.start : gids1.stop]:
                        for h in generators[gids2.start : gids2.stop]:
                            prod = star_product(g.cls, h.cls, complex_)
                            if prod.is_zero:
                                continue
                            terms = tuple(presentation.express_class(prod))
                            if terms:
                                products[(g.gid, h.gid)] = terms
    presentation.products = dict(sorted(products.items()))
    return presentation


def product_span_rank(presentation: RingPresentation, t: int) -> dict:
    """Rank over Q of the span of products of >= t generators, by degree.

    That span is the t-th power of the ideal A+ of positive-degree classes,
    so its rank in each degree is a ring invariant although single products
    depend on the basis.  It is folded out of the stored structure constants
    one (subset, degree) block at a time: level 1 is the identity basis of
    every block, and level k multiplies each level k - 1 basis vector by
    every generator whose products with the vector's block are stored.
    Products over overlapping supports vanish, so no generator meets
    itself.  Each block's rows are cut down to a basis over Q.  Returns
    ``{p: rank}`` with the degrees of rank 0 left out.
    """
    generators = presentation.generators
    blocks = presentation._blocks
    by_right = {}  # right factor -> [(left factor, terms)]
    for (g, h), terms in presentation.products.items():
        by_right.setdefault(h, []).append((generators[g], terms))
    level = {key: identity(len(ids)) for key, ids in blocks.items()}
    for _ in range(t - 1):
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
        level = {}
        for key, block_rows in rows.items():
            # a basis has at most ``width`` rows, so feeding the rows in
            # batches of that size keeps each tracked transform small
            width = len(blocks[key])
            basis = []
            for i in range(0, len(block_rows), width):
                snf = smith_normal_form(basis + block_rows[i : i + width])
                basis = snf.v_inv[: snf.rank]
            level[key] = basis
    ranks = {}
    for (s, d), basis in level.items():
        p = s.bit_count() + d + 1
        ranks[p] = ranks.get(p, 0) + len(basis)
    return dict(sorted(ranks.items()))


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
    if not isinstance(subset, int):
        subset = mask_of(subset)
    if subset & ~((1 << complex_.m) - 1):
        raise NotASubcomplex(f"{vertices_of(subset)} is not within 1..{complex_.m}")
    sub = complex_.full_subcomplex(subset)
    parents = sub.parent_vertices
    sub_table = bigraded_betti(sub)
    sub_pres = ring_presentation(sub, table=sub_table)
    checked = 0
    for g in sub_pres.generators:
        for h in sub_pres.generators:
            if checked >= max_pairs:
                break
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
    """Stable JSON form: generator addresses and integer structure constants."""
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
    products = []
    for (a, b), terms in sorted(presentation.products.items()):
        if terms:
            products.append(
                {"g": a, "h": b, "terms": [[gid, coeff] for gid, coeff in terms]}
            )
    return {
        "m": presentation.complex.m,
        "dim": presentation.complex.dim(),
        "torsion_excluded": presentation.has_torsion,
        "fundamental": presentation.fundamental_id,
        "generators": gens,
        "products": products,
    }

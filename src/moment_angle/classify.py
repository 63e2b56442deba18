"""Connected-sum-of-sphere-products models and obstruction tests.

A model is a multiset of sphere products with every factor of dimension at
least 3 and all summands of equal total dimension.  Verification against a
computed ring checks the necessary invariants a ring isomorphism would
impose: the additive table, unimodularity of the top pairing, and, degree
by degree, the rank over Q of the t-th power of the ideal of positive-degree
classes, folded out of the stored pair products.  Passing means "consistent
with the model", not a certified graded-ring isomorphism.

The obstruction battery turns three structural facts about such rings into
executable checks: a proper induced cycle of length five or more rules the
shape out; an induced quadrangle forces every two-vertex missing face to be
disjoint from the others and every degree-zero class to live on exactly two
vertices; and a missing-face set that is a perfect matching pins the ring to
a power of three-spheres.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bitsets import is_subset, vertices_of
from .complexes import SimplicialComplex
from .errors import (
    GrammarError,
    SphereDimBelow3,
    TorsionPresent,
    UnequalTotalDimension,
)
from .hochster import BigradedBetti, _require_sphere, bigraded_betti
from .ring import RingPresentation, poincare_pairing_report, product_span_rank, ring_presentation


@dataclass(frozen=True)
class CspModel:
    """Summands as (sphere dimension tuple, multiplicity), canonically sorted."""

    summands: tuple

    @property
    def total_dimension(self) -> int:
        return sum(self.summands[0][0]) if self.summands else 0

    def max_factors(self) -> int:
        return max(len(dims) for dims, _ in self.summands)

    def describe(self) -> str:
        parts = []
        for dims, mult in self.summands:
            base = " x ".join(f"S^{d}" for d in dims)
            parts.append(f"{mult}({base})" if mult > 1 else base)
        return " # ".join(parts)


def parse_model(text: str) -> CspModel:
    """Parse ``"3,3,6;5,7*8;6,6*8"``: summands by ';', dims by ',', '*k' multiplicity."""
    summands = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise GrammarError("empty summand")
        mult = 1
        if "*" in chunk:
            body, _, mult_text = chunk.partition("*")
            try:
                mult = int(mult_text.strip())
            except ValueError:
                raise GrammarError(f"bad multiplicity {mult_text.strip()!r}") from None
            if mult < 1:
                raise GrammarError(f"multiplicity must be >= 1, got {mult}")
            chunk = body
        parts = [p.strip() for p in chunk.split(",")]
        if not parts or any(not p for p in parts):
            raise GrammarError(f"malformed summand {chunk!r}")
        try:
            dims = tuple(sorted(int(p) for p in parts))
        except ValueError:
            raise GrammarError(f"bad sphere dimension in {chunk!r}") from None
        for d in dims:
            if d < 3:
                raise SphereDimBelow3(f"sphere dimension {d} < 3")
        summands.append((dims, mult))
    totals = {sum(dims) for dims, _ in summands}
    if len(totals) > 1:
        raise UnequalTotalDimension(f"summand total dimensions differ: {sorted(totals)}")
    merged: dict[tuple, int] = {}
    for dims, mult in summands:
        merged[dims] = merged.get(dims, 0) + mult
    return CspModel(summands=tuple(sorted(merged.items())))


def model_betti(model: CspModel) -> dict:
    """Betti numbers of the model ring: proper sub-collections per summand."""
    top = model.total_dimension
    betti = {0: 1, top: 1}
    for dims, mult in model.summands:
        n = len(dims)
        for r in range(1, n):
            for combo in combinations(range(n), r):
                p = sum(dims[i] for i in combo)
                betti[p] = betti.get(p, 0) + mult
    return dict(sorted(betti.items()))


def model_product_rank(model: CspModel, t: int, p: int) -> int:
    """Count of proper sub-collections with >= t factors summing to p."""
    count = 0
    for dims, mult in model.summands:
        n = len(dims)
        for r in range(t, n):
            for combo in combinations(range(n), r):
                if sum(dims[i] for i in combo) == p:
                    count += mult
    return count


def model_degree_contributions(model: CspModel, p: int) -> list:
    """Which summand sub-collections build the model rank at degree p."""
    out = []
    for dims, mult in model.summands:
        n = len(dims)
        seen: dict[tuple, int] = {}
        for r in range(1, n):
            for combo in combinations(range(n), r):
                sub = tuple(dims[i] for i in combo)
                if sum(sub) == p:
                    seen[sub] = seen.get(sub, 0) + 1
        for sub, times in sorted(seen.items()):
            out.append((dims, sub, times * mult))
    return out


@dataclass
class CspVerification:
    consistent: bool
    model: CspModel
    additive_ok: bool
    pairing_ok: bool
    product_rank_ok: bool
    top_products_ok: bool
    mismatches: list
    degree_contributions: dict

    def __bool__(self) -> bool:
        return self.consistent


def verify_csp_model(
    complex_: SimplicialComplex,
    model: CspModel | str,
    *,
    presentation: RingPresentation | None = None,
    **kwargs,
) -> CspVerification:
    """Check the computed ring against a sphere-product model.

    In order: additive equality of the Betti tables including zero torsion;
    unimodular top pairing in every complementary degree pair; for every
    factor count t >= 2 the rank of t-fold product spans in each interior
    degree against the model's proper sub-collection count; existence of
    nonzero t-fold products into the top degree exactly for t up to the
    largest summand.
    """
    if isinstance(model, str):
        model = parse_model(model)
    if presentation is None:
        presentation = ring_presentation(complex_, **kwargs)
    if presentation.has_torsion:
        raise TorsionPresent("the computed ring has torsion; no model can match")
    table = presentation.table
    mismatches = []
    top = model.total_dimension
    expected_top = complex_.m + complex_.dim() + 1
    if top != expected_top:
        mismatches.append(("total-dimension", top, expected_top))
    computed = {p: g.rank for p, g in table.total().items()}
    expected = model_betti(model)
    additive_ok = computed == expected and top == expected_top
    if computed != expected:
        for p in sorted(set(computed) | set(expected)):
            if computed.get(p, 0) != expected.get(p, 0):
                mismatches.append(("betti", p, computed.get(p, 0), expected.get(p, 0)))
    pairing = poincare_pairing_report(presentation)
    pairing_ok = bool(pairing)
    if not pairing_ok:
        mismatches.append(("pairing", pairing.failures[:1]))
    product_rank_ok = True
    top_products_ok = True
    if additive_ok:
        max_q = model.max_factors()
        degrees = sorted(p for p in expected if 0 < p < top)
        for t in range(2, max_q + 1):
            for p in degrees:
                want = model_product_rank(model, t, p)
                got = product_span_rank(presentation, t, p)
                if want != got:
                    product_rank_ok = False
                    mismatches.append(("product-rank", t, p, got, want))
            want_top = 1 if any(len(dims) >= t for dims, _ in model.summands) else 0
            got_top = product_span_rank(presentation, t, top)
            if want_top != got_top:
                top_products_ok = False
                mismatches.append(("top-product", t, got_top, want_top))
        if product_span_rank(presentation, max_q + 1, top) != 0:
            top_products_ok = False
            mismatches.append(("top-product", max_q + 1, "nonzero", 0))
    else:
        product_rank_ok = top_products_ok = False
    contributions = {
        p: model_degree_contributions(model, p) for p in expected if 0 < p < top
    }
    return CspVerification(
        consistent=additive_ok and pairing_ok and product_rank_ok and top_products_ok,
        model=model,
        additive_ok=additive_ok,
        pairing_ok=pairing_ok,
        product_rank_ok=product_rank_ok,
        top_products_ok=top_products_ok,
        mismatches=mismatches,
        degree_contributions=contributions,
    )


# -- induced cycles -------------------------------------------------------------


def induced_cycles(complex_: SimplicialComplex, min_len: int, max_len: int) -> list:
    """Vertex subsets whose full subcomplex is a polygon boundary.

    For length >= 4 these are exactly the chordless cycles of the edge graph
    (an induced cycle that long cannot carry a 2-face).  Each cycle is
    returned once, as the vertex list in cycle order starting at its
    smallest vertex, second entry smaller than the last.
    """
    if min_len < 4:
        raise ValueError("polygon subcomplexes need length >= 4")
    m = complex_.m
    adjacency = [0] * (m + 1)
    for edge in complex_.faces_by_dim().get(1, []):
        a, b = vertices_of(edge)
        adjacency[a] |= 1 << (b - 1)
        adjacency[b] |= 1 << (a - 1)
    cycles = []

    def extend(path: list, used: int, interior: int):
        # interior holds path[1:-1]; adjacency to it means a chord
        last = path[-1]
        start = path[0]
        start_bit = 1 << (start - 1)
        candidates = adjacency[last] & ~used
        new_interior = interior | ((1 << (last - 1)) if len(path) >= 2 else 0)
        for v in range(start + 1, m + 1):
            bit = 1 << (v - 1)
            if not candidates & bit:
                continue
            if adjacency[v] & interior:
                continue
            closes = len(path) >= 2 and bool(adjacency[v] & start_bit)
            if closes and len(path) + 1 >= min_len and path[1] < v:
                cycles.append(tuple(path) + (v,))
            if len(path) + 1 < max_len and not closes:
                extend(path + [v], used | bit, new_interior)

    for start in range(1, m + 1):
        extend([start], 1 << (start - 1), 0)
    return sorted(cycles)


@dataclass
class ObstructionReport:
    """Verdicts of the obstruction battery with re-verifiable witnesses."""

    dim: int
    checks: dict  # name -> (verdict, witness)
    degree_zero_classes: list

    @property
    def obstructed(self) -> bool:
        return any(v == "obstruction" for v, _ in self.checks.values())

    @property
    def applicable(self) -> bool:
        return any(v != "inapplicable" for v, _ in self.checks.values())


def csp_obstructions(
    complex_: SimplicialComplex, *, table: BigradedBetti | None = None, **kwargs
) -> ObstructionReport:
    """Run the structural tests a sphere-product ring must survive."""
    n = _require_sphere(complex_)
    checks: dict[str, tuple] = {}
    if n < 2:
        checks["all"] = ("inapplicable", f"dimension {n} < 2")
        return ObstructionReport(dim=n, checks=checks, degree_zero_classes=[])
    if table is None:
        table = bigraded_betti(complex_, **kwargs)
    missing = complex_.missing_faces()
    degree_zero = [
        vertices_of(subset) for (subset, d) in table.sorted_keys() if d == 0
    ]

    # long induced cycles kill the sphere-product shape; for dim >= 2 a
    # chordless cycle can never span the whole complex, so all are proper
    long_cycles = induced_cycles(complex_, 5, complex_.m)
    if long_cycles:
        checks["long-induced-cycle"] = ("obstruction", long_cycles[0])
    else:
        checks["long-induced-cycle"] = ("pass", None)

    # an induced quadrangle forces two-vertex missing faces to behave
    quads = induced_cycles(complex_, 4, 4)
    if not quads:
        checks["quadrangle-pairs"] = ("inapplicable", "no induced quadrangle")
    else:
        verdict = ("pass", quads[0])
        pairs = [f for f in missing if f.bit_count() == 2]
        for f1, f2 in combinations(pairs, 2):
            if f1 & f2:
                verdict = ("obstruction", (vertices_of(f1), vertices_of(f2)))
                break
            union = f1 | f2
            sub_missing = [g for g in missing if is_subset(g, union)]
            if sorted(sub_missing) != sorted((f1, f2)):
                verdict = ("obstruction", (vertices_of(f1), vertices_of(f2)))
                break
        if verdict[0] == "pass":
            wide = [J for J in degree_zero if len(J) > 2]
            if wide:
                verdict = ("obstruction", ("degree-zero class on", wide[0]))
        checks["quadrangle-pairs"] = verdict

    # a perfect matching of missing edges is the join of two-point complexes
    if (
        len(missing) == n + 1
        and all(f.bit_count() == 2 for f in missing)
        and not any(f1 & f2 for f1, f2 in combinations(missing, 2))
        and sum(f.bit_count() for f in missing) == complex_.m
    ):
        checks["join-of-pairs"] = (
            "pass",
            f"ring of the {n + 1}-fold product of 3-spheres",
        )
    else:
        checks["join-of-pairs"] = ("inapplicable", None)

    return ObstructionReport(dim=n, checks=checks, degree_zero_classes=degree_zero)


def obstruction_json_obj(report: ObstructionReport) -> dict:
    return {
        "dim": report.dim,
        "obstructed": report.obstructed,
        "checks": {
            name: {"verdict": verdict, "witness": witness}
            for name, (verdict, witness) in sorted(report.checks.items())
        },
        "degree_zero_classes": [list(j) for j in report.degree_zero_classes],
    }

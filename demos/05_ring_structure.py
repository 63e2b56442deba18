"""The cup product: where the three-sphere product reveals itself.

Classes on disjoint vertex subsets multiply through the juxtaposition
product.  For the 8-vertex sphere the two classes on the missing edges
(5,6) and (7,8) multiply into the class of the induced 4-cycle, and a
further product with a class on (1,2,3,4) lands on the fundamental class:
a nonzero triple product, which no product of two spheres can explain.
"""

from moment_angle import (
    construct_p28_8,
    poincare_pairing_report,
    polygon,
    product_span_rank,
    ring_presentation,
    star_product,
    vertices_of,
)

# warm-up on the square: two degree-3 classes whose product is the top class
quad = polygon(4)
presentation = ring_presentation(quad)
print("square generators:")
for g in presentation.generators:
    print(f"  g{g.gid}: J={vertices_of(g.subset)}, degree {g.total_degree}")
print("g0 * g1 =", presentation.product(0, 1))
print("g1 * g0 =", presentation.product(1, 0), "(odd degrees anticommute)")
print("g0 * g0 =", presentation.product(0, 0), "(overlapping supports vanish)")

# the 8-vertex sphere
sphere = construct_p28_8()
ring = ring_presentation(sphere)
print(f"\nsphere ring: {len(ring.generators)} generators, "
      f"fundamental class g{ring.fundamental_id}")

a1 = ring.find((5, 6), 0)
a2 = ring.find((7, 8), 0)
alpha0 = ring.find((1, 2, 3, 4), 1)
print("a1 * a2 =", ring.product(a1.gid, a2.gid),
      "-> the degree-6 class of the 4-cycle on (5,6,7,8)")

triple = ring.product_class([a1.gid, a2.gid, alpha0.gid])
coeff = ring.coefficient_on(triple, ring.fundamental_id)
print("a1 * a2 * alpha0 hits the fundamental class with coefficient", coeff)
# product_span_rank(ring, t) gives the rank of t-fold products in every degree
print("ranks of two-fold products by degree:", product_span_rank(ring, 2))
print("rank of three-fold products in the top degree:",
      product_span_rank(ring, 3).get(12, 0))

# cochain-level products of every complementary pair are unimodular
pairing = poincare_pairing_report(ring)
print("top pairing unimodular in all complementary degrees:", pairing.ok)

# products are computed at the cochain level, so they can be inspected
product = star_product(a1.cls, a2.cls, sphere)
print("\nthe product cochain on the 4-cycle:")
for face, value in product.items():
    print("  edge", vertices_of(face), "->", value)

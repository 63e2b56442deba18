"""Three independent roads to the same Tor algebra, cross-validating.

The subset decomposition, the Koszul quotient algebra, and (Lyubeznik's
subcomplex of) the Taylor complex on the missing faces all compute the same
bigraded groups.  Any
disagreement raises immediately; on the bundled sphere and a seeded random
corpus they agree bidegree by bidegree, torsion included.
"""

import time

from moment_angle import (
    construct_p28_8,
    cross_check,
    koszul_basis_size,
    koszul_bigraded,
    polygon,
    random_complexes,
    taylor_bigraded,
    vertices_of,
)

# Koszul over the square: eight monomials, three surviving groups
quad = polygon(4)
print("square Koszul basis size:", koszul_basis_size(quad))
print("square Koszul groups by (i, j):",
      {key: g.rank for key, g in koszul_bigraded(quad).entries.items()})

# Taylor over the square: the two missing diagonals, no differentials
taylor = taylor_bigraded(quad)
print("square Taylor strata:",
      [((r, vertices_of(s)), g.rank) for (r, s), g in taylor.strata.items()])

# the 8-vertex sphere: 4384 Koszul monomials; of the 1024 Taylor monomials
# on its 10 missing faces, the 136 Lyubeznik-admissible ones are built
sphere = construct_p28_8()
print("\nsphere Koszul basis size:", koszul_basis_size(sphere))
start = time.perf_counter()
report = cross_check(sphere)
print(f"three-method agreement in {time.perf_counter() - start:.2f}s:",
      report.ok, f"({len(report.bidegrees)} bidegrees, {report.strata_checked} strata)")

# a seeded corpus keeps all three implementations honest, torsion included
corpus = random_complexes(25)
start = time.perf_counter()
for complex_ in corpus:
    cross_check(complex_)
print(f"\n25 random complexes cross-checked in {time.perf_counter() - start:.2f}s")

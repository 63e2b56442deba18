"""Integral cohomology rings of moment-angle complexes.

Build a finite simplicial complex, compute the cohomology of its
moment-angle complex by three independent routes, extract the cup-product
structure, and test the ring against connected-sum-of-sphere-products
models.  All arithmetic is exact over the integers.
"""

from .bitsets import mask_of, vertices_of
from .classify import (
    CspModel,
    csp_obstructions,
    induced_cycles,
    model_betti,
    parse_model,
    verify_csp_model,
)
from .complexes import (
    EMPTY,
    SimplicialComplex,
    boundary_simplex,
    builtin_complex,
    construct_p28_8,
    cross_polytope,
    polygon,
    read_cplx,
    truncated_simplex,
    two_points,
    write_cplx,
)
from .corpus import random_complexes
from .errors import MomentAngleError
from .homology import (
    Abelian,
    ChainComplexZ,
    CohomologyBasis,
    pseudo_sphere_check,
    reduced_cohomology,
    reduced_cohomology_basis,
    reduced_homology,
)
from .hochster import (
    BigradedBetti,
    alexander_duality_check,
    bigraded_betti,
    poincare_check,
    zk_betti,
)
from .resolutions import (
    cross_check,
    koszul_basis_size,
    koszul_bigraded,
    taylor_bigraded,
)
from .ring import (
    HochsterClass,
    RingPresentation,
    functoriality_check,
    poincare_pairing_report,
    product_span_rank,
    ring_presentation,
    star_product,
)
from .snf import invariant_factors, smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "Abelian",
    "BigradedBetti",
    "ChainComplexZ",
    "CohomologyBasis",
    "CspModel",
    "EMPTY",
    "HochsterClass",
    "MomentAngleError",
    "RingPresentation",
    "SimplicialComplex",
    "alexander_duality_check",
    "bigraded_betti",
    "boundary_simplex",
    "builtin_complex",
    "construct_p28_8",
    "cross_check",
    "cross_polytope",
    "csp_obstructions",
    "functoriality_check",
    "induced_cycles",
    "invariant_factors",
    "koszul_basis_size",
    "koszul_bigraded",
    "mask_of",
    "model_betti",
    "parse_model",
    "poincare_check",
    "poincare_pairing_report",
    "polygon",
    "product_span_rank",
    "pseudo_sphere_check",
    "random_complexes",
    "read_cplx",
    "reduced_cohomology",
    "reduced_cohomology_basis",
    "reduced_homology",
    "ring_presentation",
    "smith_normal_form",
    "star_product",
    "taylor_bigraded",
    "truncated_simplex",
    "two_points",
    "verify_csp_model",
    "vertices_of",
    "write_cplx",
    "zk_betti",
]

"""Exception types shared across the library."""


class MomentAngleError(Exception):
    """Base class for every error raised by this library."""


class VertexOutOfRange(MomentAngleError):
    """A vertex label falls outside 1..m, or a facet is empty."""


class IsolatedVertex(MomentAngleError):
    """A ground-set vertex belongs to no facet and ghosts were not allowed."""


class LabelCollision(MomentAngleError):
    """A new vertex label is already in use."""


class NotAFacet(MomentAngleError):
    """The face handed to a facet operation is not a facet."""


class ParameterOutOfRange(MomentAngleError):
    """A builder parameter or a setting is outside its documented range."""


class NotPure(MomentAngleError):
    """The complex is not pure (facets of mixed dimension)."""


class ConstructionMismatch(MomentAngleError):
    """A staged construction disagrees with its hard-coded result."""


class NotACocycle(MomentAngleError):
    """A cochain handed to a cohomology operation has nonzero coboundary."""


class NotAChainComplex(MomentAngleError):
    """An assembled differential d fails d o d = 0."""


class BasisMismatch(MomentAngleError):
    """A class's coordinates do not match the generators of its block."""


class DegreeMismatch(MomentAngleError):
    """A cochain is not homogeneous of the declared degree."""


class NotASphereCandidate(MomentAngleError):
    """The operation needs a complex passing the sphere candidate checks."""


class NotASubcomplex(MomentAngleError):
    """The claimed full subcomplex does not match the ambient complex."""


class MethodDisagreement(MomentAngleError):
    """Two independent Tor computations disagree; carries the first bad bidegree."""

    def __init__(self, bidegree, detail=""):
        self.bidegree = bidegree
        self.detail = detail
        super().__init__(f"method disagreement at bidegree {bidegree}: {detail}")


class GrammarError(MomentAngleError):
    """A sphere-product model string does not match the grammar."""


class UnequalTotalDimension(MomentAngleError):
    """Sphere-product summands have different total dimensions."""


class SphereDimBelow3(MomentAngleError):
    """A sphere factor of dimension < 3 is not a valid model entry."""


class TorsionPresent(MomentAngleError):
    """Model verification requires a torsion-free ring."""


class CapExceeded(MomentAngleError):
    """An input is refused up front: the work it needs exceeds a cap."""


class VertexCapExceeded(CapExceeded):
    """The vertex count exceeds the subset-enumeration cap ``max_vertices``."""


class ParseError(MomentAngleError):
    """A .cplx file is malformed; carries the offending line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class TorsionWarning(UserWarning):
    """Ring presentation met torsion classes and restricted to free parts."""

"""Exception types raised by the morseflow pipeline."""


class MorseflowError(Exception):
    """Base class for all library errors."""


class PointOutsideManifold(MorseflowError):
    pass


class AmbiguousBoundary(MorseflowError):
    """Two boundary constraints active at once (corner) -- unsupported."""


class NotOnBoundary(MorseflowError):
    pass


class NotMorse(MorseflowError):
    """The function violates one of the admissibility clauses."""


class DegenerateCritical(NotMorse):
    pass


class TypeUndetermined(NotMorse):
    """<df, n> vanishes at a boundary critical point of the restriction."""


class BlendGapFailure(MorseflowError):
    """Vector-field assembly could not be certified at any retry radius."""


class SampleMismatch(MorseflowError):
    """A boundary or certification sample holds the gradients of another
    function than the one searched or descended."""


class CertificateViolation(MorseflowError):
    """A trajectory left the manifold through a supposedly inward boundary."""


class FlowTimeout(MorseflowError):
    pass


class NonTransverse(MorseflowError):
    """Degenerate invariant-manifold configuration; retry with a perturbation."""


class StalledBranch(MorseflowError):
    """A branch launched `r_launch` from its generator ends there; no retry mends it."""


class DimensionMismatch(MorseflowError):
    pass


class BoundarySquareNonzero(MorseflowError):
    """The composed incidence matrices are not zero."""


class InvarianceFailure(MorseflowError):
    pass


class UnknownEntry(MorseflowError):
    pass

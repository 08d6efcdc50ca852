"""Exception hierarchy shared by all gphase modules."""


class GphaseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDensityMatrix(GphaseError):
    """Input is not a valid density matrix (trace, Hermiticity or positivity)."""


class InvalidInitialValue(GphaseError):
    """A decoherence-factor sampler does not start at r(0) = 1."""


class UnwrapFailure(GphaseError):
    """Phase unwrapping cannot be validated even at maximum grid refinement."""


class DegenerateEigenvector(GphaseError):
    """The reduced density matrix eigenvector direction is undefined."""


class QuadratureNonconvergence(GphaseError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class DomainError(GphaseError):
    """Function argument outside its mathematical domain."""


class ValidationError(GphaseError):
    """A parameter record violates its invariants."""


class ConfigParseError(GphaseError):
    """Command-line / run configuration could not be parsed."""


class MagnitudeUnderflow(RuntimeWarning):
    """Mode-product magnitude underflowed below exp(-700); value flushed to zero."""


class PerturbativeBreakdown(RuntimeWarning):
    """First-order cycle phase |d T G1| reached 1 rad; the weak-coupling series is unreliable."""

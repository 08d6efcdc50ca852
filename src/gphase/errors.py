"""Exception hierarchy shared by all gphase modules: every failure is a
GphaseError, and PerturbativeBreakdown is the one warning."""


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


class CancellationFloor(GphaseError):
    """A phase correction is within the rounding floor of the phases it is the difference of."""


class ValidationError(GphaseError):
    """A parameter record violates its invariants."""


class ConfigParseError(GphaseError):
    """Command-line / run configuration could not be parsed."""


class MagnitudeUnderflow(GphaseError):
    """The mode product's magnitude fell below exp(-700), where its phase is lost."""


class PerturbativeBreakdown(RuntimeWarning):
    """First-order cycle phase |d T G1| reached 1 rad; the weak-coupling series is unreliable."""

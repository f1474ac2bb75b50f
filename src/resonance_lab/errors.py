"""Exception types of the package; the CLI exits 3 on a NumericalError, 2 on any other."""


class ResonanceLabError(Exception):
    """Base class for all errors raised by this package."""


class NumericalError(ResonanceLabError):
    """A computation failed on valid input: a pole, a truncation, quadrature or overflow."""


class PoleError(NumericalError):
    """Evaluation requested at (or indistinguishably close to) a pole."""


class DiagonalError(ResonanceLabError):
    """Kernel evaluation too close to the diagonal z = z'."""


class DomainError(ResonanceLabError):
    """Argument outside the validity region of a formula."""


class NonConvergenceError(NumericalError):
    """A series did not reach its tolerance within the term budget."""


class TruncationError(NumericalError):
    """An image/mode sum could not be truncated below the requested tail."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to reach its tolerance."""


class OverflowBudgetError(NumericalError):
    """Argument exceeds the documented exponent budget."""


class NonUnitaryError(ResonanceLabError):
    """A matrix expected to be unitary failed the tolerance check."""


class InsufficientDataError(ResonanceLabError):
    """Not enough samples for a fit."""


class RadiusExceededError(NumericalError):
    """Counting radius exceeds the enumeration radius of a resonance set."""

"""Exception hierarchy for the slocc package."""


class SloccError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SloccError):
    """Shapes or lengths are inconsistent with the declared dimensions."""


class ZeroState(SloccError):
    """The zero vector is not a valid pure state."""


class BadPivot(SloccError):
    """Pivot subsystem index out of range."""


class SingularOperator(SloccError):
    """A local operator has |det| at or below the machine floor, or beyond the float range."""


class NonFinite(SloccError):
    """A matrix or an amplitude vector contains NaN or infinite entries."""


class EmptySpectrum(SloccError):
    """No positive singular value to define a rank against."""


class SingularMatrix(SloccError):
    """2x2 matrix is numerically singular, no inverse."""


class WrongArity(SloccError):
    """Operation requires a different number of subsystems."""


class ArityMismatch(SloccError):
    """Descriptors for different qubit counts cannot be compared."""


class InconsistentRanks(SloccError):
    """Coefficient-matrix ranks in a pattern impossible for a valid state.

    Two pivots reading rank 1 while the third reads rank 2 cannot happen
    exactly; it signals a tolerance failure on a borderline input.
    """


class ReductionFailed(SloccError):
    """Constructed local operators did not reach the canonical vector.

    Signals a tolerance breakdown on a near-boundary input, not a class
    change.
    """


class DependentGenerators(SloccError):
    """The two span generators are (numerically) linearly dependent."""


class ZeroVector(SloccError):
    """A nonzero vector was required."""


class ToleranceBreakdown(SloccError):
    """Internal consistency checks disagree at the configured tolerances."""


class UnsupportedDepth(SloccError):
    """Qubit count exceeds the configured recursion depth."""


class DegenerateParameter(SloccError):
    """Continuous-family parameter coincides with a basis direction."""


class StateFileError(SloccError):
    """A state file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

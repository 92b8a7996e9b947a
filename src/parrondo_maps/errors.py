"""Exception types shared across the package."""


class ParrondoError(Exception):
    """Base class for all library-specific errors."""


class NoConvergenceError(ParrondoError):
    """An iterative solver exhausted its budget before reaching tolerance."""


class BadExpansionError(ParrondoError):
    """Radial expansion factor outside the admissible range."""


class BadWidthError(ParrondoError):
    """Slow-arc half width outside (0, 1/4) turns."""


class DriftTooLargeError(ParrondoError):
    """Angular drift amplitude exceeds the gap left between the slow arc and its translate."""


class NotHomeomorphismError(ParrondoError):
    """Angular drift large enough to break strict monotonicity of the circle lift."""


class OriginNotRepresentableError(ParrondoError):
    """The origin has no finite log-radius representation."""


class WindowTooLargeError(ParrondoError):
    """Classification window does not fit inside the recorded orbit."""

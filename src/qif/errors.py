"""Exception types shared across the qif package."""


class QifError(Exception):
    """Base class for all qif errors."""


class ParameterError(QifError, ValueError):
    """A parameter lies outside the range where it has a meaning."""


class GridTooNarrowError(QifError, ValueError):
    """Momentum grid does not cover or resolve the requested wavepacket."""


class GridMismatchError(QifError, ValueError):
    """Two wavefunctions live on different grids."""


class AliasingError(QifError, ValueError):
    """Requested momentum shift is too large for the grid (would wrap)."""


class ZeroNormError(QifError, ValueError):
    """Moment requested of a state with (numerically) zero norm.

    Signals a dark port; callers that post-select must handle this.
    """


class BoundaryLeakError(QifError, RuntimeError):
    """Wavepacket probability reached the edge of the position window."""


class CircuitRuntimeError(QifError, RuntimeError):
    """Error raised while executing a circuit program.

    Carries the source line of the instruction that failed.
    """

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line

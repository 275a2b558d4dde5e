"""Exception types shared across the library."""


class WolctError(Exception):
    """Base class for all library errors."""


class DeterminantViolation(WolctError):
    """Parameter six-tuple does not satisfy the unimodularity constraint."""


class DegenerateB(WolctError):
    """Operation requires |b| above the degeneracy threshold."""


class GridMismatch(WolctError):
    """Operands live on different grids."""


class ShiftOutOfRange(WolctError):
    """Requested lattice shift exceeds the grid length."""


class AsymmetricGrid(WolctError):
    """Operation requires a grid symmetric about t = 0."""


class InvalidShapeParam(WolctError):
    """Signal generator called with a nonpositive shape parameter."""


class ZeroWindow(WolctError):
    """Window function is numerically zero."""


class NonAdmissiblePair(WolctError):
    """Analysis/synthesis window pair with vanishing inner product."""


class LatticeViolation(WolctError):
    """Value is not aligned with the sampling lattice."""


class FormatError(WolctError):
    """Malformed signal, spectrum, or map file."""


class PhaseOverflow(WolctError):
    """Kernel or chirp phase too large for float64 to keep any of its digits."""


class NonFiniteValues(WolctError, ValueError):
    """Sampled values hold nan or inf, as when a result overflows float64."""


class TruncationWarning(UserWarning):
    """Spectral tail energy outside the computed grid is not negligible."""

"""Exception hierarchy shared across the toolkit.

Two families matter to callers: ``InputError`` for malformed or
out-of-contract inputs, and ``MethodError`` for operations that ran but
could not produce a certified result. The CLI maps them to exit codes 2
and 3 respectively.
"""


class QidlabError(Exception):
    """Base class for all toolkit errors."""


class InputError(QidlabError, ValueError):
    """Invalid argument, malformed law, or violated precondition."""


class LawShapeError(InputError):
    """Law does not have the shape an operation requires (pure lattice,
    pure density, bounded support, ...)."""


class NotLatticeError(LawShapeError):
    """Discrete support does not fit a lattice a + b*Z at the requested
    tolerance."""


class MethodError(QidlabError, RuntimeError):
    """Operation ran but failed to produce a certified result."""


class IdenticallyZeroImagError(MethodError):
    """Imaginary part vanished on the whole scan grid, so sign-change
    root finding is meaningless."""


class SelectionUnverifiableError(MethodError):
    """No mixing weight in the candidate ladder produced a positive
    zero-free certificate."""


class SpectralExtractionError(MethodError):
    """Spectral pair not extractable (characteristic function has a
    zero or near-zero on the scan)."""


class PipelineError(MethodError):
    """Approximation pipeline failed (parameter search exhausted or an
    internal bound check tripped)."""

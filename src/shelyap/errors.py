"""Exception types raised by the public API.

Class names double as the machine-readable error codes emitted by the CLI.
"""


class ShelyapError(Exception):
    """Base class for all package errors."""


class NonPositiveTime(ShelyapError):
    """Time horizon, moment scale T or kernel time must be > 0.

    The horizon and T must also be finite, and so must the quadrature's
    kernel time T*t: it neither underflows to 0 nor overflows to inf.
    """


class UnsortedLocations(ShelyapError):
    """Locations must be strictly increasing."""


class NonPositiveMultiplicity(ShelyapError):
    """Multiplicities must be integers >= 1 that can be flattened.

    Their total must fit an int64 index, and be at most 2^24 where the
    coordinates are flattened (route 1).
    """


class LengthMismatch(ShelyapError):
    """Paired sequences disagree in length, or a sequence is empty."""


class NoMerge(ShelyapError):
    """The simulation produced no merge event."""


class DimensionTooLarge(ShelyapError):
    """Chain QP dimension exceeds the exhaustive oracle's cap."""


class NuTooLarge(ShelyapError):
    """Total multiplicity exceeds the tensor-grid quadrature cap."""


class InvalidContour(ShelyapError, ValueError):
    """A contour setting is invalid.

    Offsets would place a pole on or across the integration surface, or the
    truncation is not > 0, the grid has fewer than 8 points or the rule is
    unknown.
    """


class NonPositiveMoment(ShelyapError):
    """Quadrature returned a non-positive moment; no log-rate exists."""


class InvalidFitInput(ShelyapError, ValueError):
    """A fit got a weight that is not finite and > 0 or data it cannot use.

    That is a NaN isotonic target or a non-finite datum of the exhaustive
    oracle.
    """


class NonFiniteResult(ShelyapError):
    """A result to be printed is NaN or infinite; the input is degenerate."""

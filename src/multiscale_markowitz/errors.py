"""Exceptions and warnings shared across the package.

Errors split by origin. ``DataError`` means the input cannot support the
request: unparseable or non-positive prices, too few blocks at a scale,
mismatched shapes. ``NumericalError`` means a procedure failed on valid
input: a singular covariance, no positive excess return, an embedding
without a valid factorization. The CLI maps them to exit codes 2 and 3;
both derive from ``MultiscaleError``, which the backtest catches to fall
back. The message says which check fired. Only ``CalibrationFailure``
carries a payload: the nearest reachable target.

Warnings derive from ``MultiscaleWarning`` and stay separate categories
so callers can filter each one.
"""


class MultiscaleError(Exception):
    """Base class for every error raised by this package."""


class DataError(MultiscaleError):
    """Input data is missing, malformed, or incompatible with the request."""


class NumericalError(MultiscaleError):
    """A numerical procedure failed on otherwise valid input."""


class MaxIterationsError(NumericalError):
    """Active-set iteration cap reached before convergence; carries only its message."""


class CalibrationFailure(NumericalError):
    """Requested correlation decay is outside the generator's reachable set.

    Carries the nearest achievable (rho_inf, decay exponent) pair.
    """

    def __init__(self, message, nearest=None):
        super().__init__(message)
        self.nearest = nearest


# ---------------------------------------------------------------------------
# warnings

class MultiscaleWarning(UserWarning):
    """Base class for package warnings."""


class DegenerateAssetWarning(MultiscaleWarning):
    """An asset had zero variance in some estimation window."""


class SensitivitySignWarning(MultiscaleWarning):
    """A variance sensitivity came out non-negative.

    The closed-form derivative of a weight with respect to its own variance
    is negative whenever that weight is positive; a non-negative value
    signals a short position in the unconstrained solution.
    """


class ScaleOneWarning(MultiscaleWarning):
    """Hurst sensitivity at scale 1 is identically zero (ln 1 = 0)."""

"""Exceptions and warnings shared across the package.

Two base classes split failures by origin: ``DataError`` for unusable input
(bad files, impossible scales, malformed panels) and ``NumericalError`` for
procedures that fail on valid input (singular matrices, iteration caps,
embeddings without a valid factorization). The CLI maps them to distinct
exit codes.
"""


class MultiscaleError(Exception):
    """Base class for every error raised by this package."""


class DataError(MultiscaleError):
    """Input data is missing, malformed, or incompatible with the request."""


class NumericalError(MultiscaleError):
    """A numerical procedure failed on otherwise valid input."""


# ---------------------------------------------------------------------------
# ingestion and panel construction

class ParseError(DataError):
    """A cell or header could not be parsed."""


class MissingValueError(DataError):
    """A required value is empty or NaN."""


class NonPositivePriceError(DataError):
    """Prices must be strictly positive to admit log returns."""


class DuplicateDateError(DataError):
    """The same timestamp appears more than once."""


class TooShortError(DataError):
    """Series too short for the requested transformation."""


class ScaleTooLargeError(DataError):
    """Aggregation scale leaves too few observations."""


# ---------------------------------------------------------------------------
# scaling estimation

class ZeroMomentError(DataError):
    """All base returns are zero; moments carry no information."""


class TooFewPointsError(DataError):
    """A log-log fit needs at least three scales."""


class NonPositiveMomentError(DataError):
    """A moment that must be positive for log-log fitting is not."""


class SeriesTooShortError(DataError):
    """Series shorter than the fluctuation analysis requires."""


class DegenerateSegmentsError(DataError):
    """Every detrended segment has zero variance at some scale."""


# ---------------------------------------------------------------------------
# covariance assembly

class DimensionMismatchError(DataError):
    """Matrices or panels disagree in shape or asset universe."""


class NotPSDError(DataError):
    """A matrix required to be positive semidefinite is not."""


# ---------------------------------------------------------------------------
# optimization

class SingularCovarianceError(NumericalError):
    """Covariance condition number too large to invert reliably."""


class InfeasibleError(NumericalError):
    """No portfolio satisfies the requested constraints."""


class NoPositiveExcessReturnError(NumericalError):
    """Every excess return is non-positive; the Sharpe ratio has no maximizer."""


class MaxIterationsError(NumericalError):
    """Active-set iteration cap reached before convergence.

    Carries the best iterate seen so the caller can inspect it.
    """

    def __init__(self, message, weights=None):
        super().__init__(message)
        self.weights = weights


class UniverseMismatchError(DataError):
    """Portfolios being combined do not share an asset universe."""


# ---------------------------------------------------------------------------
# synthetic generation

class BadLengthError(DataError):
    """Requested sample length unsupported by the generator."""


class BadDepthError(DataError):
    """Cascade length is not a power of two of sufficient depth."""


class BadScheduleError(DataError):
    """Regime switch points are not strictly increasing within range."""


class EmbeddingFailure(NumericalError):
    """Circulant embedding produced negative eigenvalues and no fallback applies."""


class CalibrationFailure(NumericalError):
    """Requested correlation decay is outside the generator's reachable set.

    Carries the nearest achievable (rho_inf, decay exponent) pair.
    """

    def __init__(self, message, nearest=None):
        super().__init__(message)
        self.nearest = nearest


# ---------------------------------------------------------------------------
# backtesting

class PanelTooShortError(DataError):
    """Panel cannot cover one estimation window plus one holding period."""


class ZeroVolatilityError(NumericalError):
    """Equity curve has zero return volatility; ratios are undefined."""


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

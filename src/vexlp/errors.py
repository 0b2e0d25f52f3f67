"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class UnboundedRegionError(ToolkitError):
    """Raised when an operation needs a finite sampling envelope and none exists."""


class SamplingBudgetError(ToolkitError):
    """Raised when a region holds none of the points drawn over its envelope:
    it is empty, or too thin for the draw's size; the message gives that size."""


class QuadratureDomainError(ToolkitError, ValueError):
    """Raised when a quadrature rule cannot integrate over the requested domain."""


class AnalyticUnavailableError(ToolkitError):
    """Raised when no closed-form volume exists for a region descriptor."""


class DecayFitError(ToolkitError, ValueError):
    """Raised when fewer than three norms of a decay fit are above the zero floor,
    or when floating point cannot tell the logarithms of its radii apart."""


class InvalidRadiusError(ToolkitError):
    """Raised when a cutoff radius does not satisfy R > 1."""


class ExponentRangeError(ToolkitError):
    """Raised when an exponent leaves the range required by an operation."""


class ExponentRelationError(ToolkitError):
    """Raised when a pointwise exponent identity (1/p = 1/q + 1/r) fails."""


class PresetConstraintError(ToolkitError):
    """Raised when preset parameters violate their admissible band.

    The message names the violated inequality.
    """


class ConfigError(ToolkitError):
    """Raised for malformed run configurations; maps to CLI usage errors."""

"""Exception types shared across the package."""


class TomolensError(Exception):
    """Base class for all package errors."""


class TruncationOverflow(TomolensError):
    """Significant amplitude would leave the truncated Fock basis."""


class GridTooNarrow(TomolensError):
    """A quadrature grid fails to capture the distribution it integrates."""


class DegenerateParameter(TomolensError):
    """A state family is undefined at the requested parameter value."""


class OrderTooHigh(TomolensError):
    """A moment order beyond the supported maximum was requested."""


class MissingOrder(TomolensError):
    """A moment table lacks the entries needed for the requested quantity."""


class ConfigError(TomolensError):
    """A scenario configuration file is missing or malformed."""


class NegativeTomogram(TomolensError):
    """A density matrix yields tomogram values below zero beyond rounding."""


class ProjectionDefect(TomolensError):
    """A product-basis projection misses the psi products it stands in for beyond rounding."""


class AuditFailure(TomolensError):
    """An audit found a value outside its tolerance."""

"""Exception types shared across the package."""


class MacsymError(Exception):
    """Base class for package-specific errors."""


class NotSeriesExpandable(MacsymError):
    """Rational function has a pole at q = t = 0, so no power-series expansion exists."""


class SpecializationPole(MacsymError):
    """Requested substitution makes a denominator vanish."""


class CellOutOfDiagram(MacsymError):
    """Cell coordinates fall outside the Young diagram."""


class EmptyPartition(MacsymError):
    """Operation requires a nonempty partition."""


class InternalInconsistency(MacsymError):
    """Two routes that must agree produced different results; signals a bug."""


class WindowTooSmall(MacsymError):
    """Declared exponent window cannot hold every term affecting the requested result."""

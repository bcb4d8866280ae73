"""Exception types and argument checks shared across the package."""


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


def check_counts(fn, **bounds):
    """ValueError unless each argument, name=(value, floor[, ceiling]), is an int in range."""
    for name, (value, floor, *ceiling) in bounds.items():
        if type(value) is not int or value < floor or any(value > c for c in ceiling):
            raise ValueError(f"{fn}: {name} must be an int >= {floor}"
                             f"{''.join(f' and <= {c}' for c in ceiling)}, got {value!r}")

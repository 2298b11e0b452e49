"""Exception types shared across the package."""


class DiraclabError(Exception):
    pass


class ChartMismatchError(DiraclabError):
    """Operands live on different charts."""


class DegreeError(DiraclabError):
    """Operation not defined for the given tensor degree(s)."""


class ShapeError(DiraclabError):
    """Inconsistent dimensions in user-supplied data."""


class PointError(DiraclabError):
    """A failure at a point, which it carries so reports can name it."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = None if point is None else tuple(float(x) for x in point)


class TransversalityError(PointError):
    """A pointwise transversality condition failed."""


class DomainEscapeError(PointError):
    """A computation left the region where it stays accurate: a trajectory
    left its admissible neighborhood, or a structure that holds exactly was
    lost to rounding."""


class PreconditionError(DiraclabError):
    """A documented precondition of an operation does not hold."""

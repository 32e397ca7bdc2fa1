"""Exception hierarchy shared across the package."""


class QDeformError(Exception):
    """Base class for all qdeform errors."""


class NonPositiveArgument(QDeformError, ValueError):
    """An argument that must be strictly positive was <= 0 or non-finite."""

    def __init__(self, name, value):
        self.name = name
        self.value = value
        super().__init__(f"{name} must be a positive finite real, got {value!r}")


class DomainViolation(QDeformError, ValueError):
    """A domain bracket that must stay strictly positive dropped to <= 0.

    ``constraint`` carries the offending bracket value (for the deformed
    exponential this is 1 + (1-q)*x); ``index`` identifies the failing
    element for stepwise operations.
    """

    def __init__(self, message, constraint, index=None):
        self.constraint = constraint
        self.index = index
        where = f" (element {index})" if index is not None else ""
        super().__init__(f"{message}{where}: constraint value {constraint!r} <= 0")


class RangeOverflow(QDeformError, OverflowError):
    """A result passed the largest double.

    ``q`` is the deformation index and ``where`` names the argument (or the
    element) that produced it.
    """

    def __init__(self, name, q, where):
        self.q = q
        self.where = where
        super().__init__(f"{name} at q={q!r} overflows a double ({where})")


class UnnormalizableModel(QDeformError, ValueError):
    """The density has no finite normalization (requires q < 3)."""

    def __init__(self, q):
        self.q = q
        super().__init__(f"no finite normalization exists for q={q!r} (requires q < 3)")

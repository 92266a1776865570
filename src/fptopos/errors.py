"""Exception hierarchy shared by all modules."""


class ToposError(Exception):
    """Base class for all errors raised by this package."""

    kind = "Error"


class CategoryError(ToposError):
    """A finite-category description is malformed (bad identities,
    incomplete or non-associative composition, dangling references)."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class PresheafError(ToposError):
    """A presheaf description violates functoriality or totality."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class BaseMismatch(ToposError):
    kind = "BaseMismatch"


class ShapeMismatch(ToposError):
    kind = "ShapeMismatch"


class SizeCapError(ToposError):
    """A construction would exceed the configured per-stage size cap."""

    kind = "SizeCap"


class UnknownName(ToposError):
    kind = "UnknownName"


class SortError(ToposError):
    kind = "SortError"


class UnboundVariable(ToposError):
    kind = "UnboundVariable"


class ParseError(ToposError):
    kind = "ParseError"

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return "line %d, col %d: %s" % (self.line, self.col, base)
        return base


class AxiomPrereqFailed(ToposError):
    kind = "AxiomPrereqFailed"


# Default cap: no computed set may exceed this many elements at any stage.
DEFAULT_SIZE_CAP = 4096

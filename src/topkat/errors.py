"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: input/sort problems are usage errors
(exit 2); resource limits and internal errors compute no verdict (exit 3).
"""


class TopkatError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TopkatError):
    """Malformed term or guarded-string text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SortError(TopkatError):
    """A term was used at the wrong sort (e.g. negation of a non-test)."""


class UndeclaredIdentifierError(TopkatError):
    """An identifier occurs that the alphabet does not declare."""


class TopNotAllowedError(TopkatError):
    """T occurs in a term where only top-free terms are meaningful."""


class ResourceLimitError(TopkatError):
    """A configured cap (atom count, enumeration ceiling) was exceeded."""


class InternalError(TopkatError):
    """A result failed its own check: a fault in topkat, not in the input."""

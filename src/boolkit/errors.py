"""Shared exception types."""


class BoolkitError(Exception):
    """Base class for all package errors."""


class ParseError(BoolkitError):
    """Malformed S-expression or bit-string input; carries a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureError(BoolkitError):
    """Symbol missing from, or clashing with, the ambient signature."""


class ResourceBudgetError(BoolkitError):
    """A configured evaluation/search cap was exceeded."""


class ConstructionFailure(BoolkitError):
    """A model-existence construction failed its mandatory post-validation.

    Carries the offending counterexample rather than hiding it.
    """

    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample

"""Exception taxonomy.

Every domain error carries a stable machine-readable ``code`` so the CLI can
report it uniformly (exit status 1 + the code).
"""


class PseudospaceError(Exception):
    """Base class for all domain errors."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class ParseError(PseudospaceError):
    code = "parse-error"


class DimensionError(PseudospaceError):
    """Dimension out of range or inconsistent between arguments."""

    code = "dimension-mismatch"


class NotReducedError(PseudospaceError):
    code = "not-reduced"


class NotMonotoneError(PseudospaceError):
    """Letter sizes increase somewhere; the closed rank formula does not apply."""

    code = "not-monotone"


class SearchBoundExceededError(PseudospaceError):
    code = "search-bound-exceeded"


class AnchorLevelMismatchError(PseudospaceError):
    code = "anchor-level-mismatch"


class AnchorsNotOverError(PseudospaceError):
    code = "anchors-not-over"


class PreconditionError(PseudospaceError):
    code = "precondition-violated"


class DifferenceMismatchError(PseudospaceError):
    code = "difference-mismatch"


class NotAPermutationError(PseudospaceError):
    code = "not-a-permutation"


class NoFlagError(PseudospaceError):
    code = "no-flag-in-X"


class FlagNotInSetError(PseudospaceError):
    code = "G-not-in-X"


class UnknownSuiteError(PseudospaceError):
    code = "unknown-suite"


class LawFailedError(PseudospaceError):
    """A checked law or identity does not hold; the report says which."""

    code = "law-failed"

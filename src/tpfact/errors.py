"""Exception types shared across the package.

Two broad families: ValidationError for malformed input (bad tokens,
index sets out of range, arity mismatches) and PreconditionError for
inputs that are well formed but outside the mathematical locus an
operation requires (singular matrix, wrong cell, vanishing minor).
The command line maps the former to exit code 2 and the latter to 3.
"""


class ValidationError(ValueError):
    pass


class PreconditionError(ArithmeticError):
    pass


# exact_linalg

class SizeMismatch(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class Singular(PreconditionError):
    pass


# schemes

class BadToken(ValidationError):
    pass


class NotReducedE(ValidationError):
    """The unbarred subword is not a reduced word."""


class NotReducedF(ValidationError):
    """The barred subword is not a reduced word."""


class BadHPart(ValidationError):
    """The circled symbols are not a permutation of 1..n."""


class MoveNotApplicable(ValidationError):
    pass


# networks / product map

class ArityMismatch(ValidationError):
    pass


class ZeroDiagonal(PreconditionError):
    """A circled symbol was given parameter zero."""


# twist

class WrongCell(PreconditionError):
    """Matrix does not lie in the double cell the operation expects."""


class DecompositionFailure(PreconditionError):
    """A Gaussian factor required by the twist does not exist."""


# solver

class ZeroMinor(PreconditionError):
    """A chamber minor in a denominator vanished at this matrix."""


# identities

class PreconditionViolated(ValidationError):
    """Index data fed to an identity check violates its hypotheses."""


class NotAnExchange(ValidationError):
    """The move does not exchange exactly one chamber minor pair."""


class TooMuchWork(ValidationError):
    """The estimated work of a run exceeds its documented bound."""

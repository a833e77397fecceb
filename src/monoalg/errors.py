"""Exception hierarchy, and the CLI's exit-code contract.

Each class declares the ``kind`` that the CLI reports under ``--json`` and
the ``exit_code`` it exits with; subclasses inherit both.  ``InputError``
covers anything wrong with the user-supplied data itself (exit 1), while
``PreconditionError`` covers inputs that are well-formed but outside the
supported domain, such as non-simplicial cones (exit 2).
"""


class MonoalgError(Exception):
    """Base class for all package errors."""

    kind = "error"
    exit_code = 2


# -- input and validation (CLI exit 1) --------------------------------------

class InputError(MonoalgError):
    kind = "input"
    exit_code = 1


class ParseError(InputError):
    """Malformed input document; carries a human-readable position."""

    def __init__(self, message: str, *, line: int | None = None,
                 field: str | None = None):
        self.line = line
        self.field = field
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif field is not None:
            where = f" (at {field})"
        super().__init__(message + where)


class InputSyntaxError(ParseError):
    pass


class RaggedRowsError(ParseError):
    pass


class NonIntegerError(ParseError):
    pass


class ValidationError(InputError):
    pass


class EmptyInputError(ValidationError):
    pass


class NegativeEntryError(ValidationError):
    pass


class ZeroGeneratorError(ValidationError):
    pass


class DuplicateGeneratorError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


# -- domain preconditions (CLI exit 2) ---------------------------------------

class PreconditionError(MonoalgError):
    kind = "precondition"


class NotSimplicialError(PreconditionError):
    kind = "not_simplicial"


class NotHomogeneousError(PreconditionError):
    kind = "not_homogeneous"


# -- lattice / linear algebra -------------------------------------------------

class InfiniteQuotientError(MonoalgError):
    pass


class NotInLatticeError(MonoalgError):
    pass


class OutsideSpanError(MonoalgError):
    pass


class InvalidCharacteristicError(MonoalgError):
    kind = "invalid_characteristic"
    exit_code = 1


class InternalError(MonoalgError):
    """A computed result broke an invariant the algorithm guarantees."""

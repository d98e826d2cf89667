"""Error hierarchy shared by the whole engine.

Every error carries the process exit code the CLI maps it to, so the
command layer never needs a case table.
"""


class HKForgeError(Exception):
    exit_code = 1


class PreconditionViolated(HKForgeError):
    """Caller handed us inputs outside an operation's contract."""

    exit_code = 2


class RingMismatch(PreconditionViolated):
    """Operands live in different rings (modulus, variables or order differ)."""


class NotAPowerOfP(PreconditionViolated):
    pass


class EmptyVariety(PreconditionViolated):
    """The unit ideal was passed where a proper ideal is required."""


class ModularCase(PreconditionViolated):
    """Group order divisible by the characteristic; averaging is undefined."""


class ParseError(HKForgeError):
    exit_code = 3

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class UnknownVariable(ParseError):
    pass


class ResourceCap(HKForgeError):
    """A configured budget (pairs, terms, truncation degree, group size) ran out."""

    exit_code = 4

    def __init__(self, message, completed=None):
        super().__init__(message)
        self.completed = completed


class InternalError(HKForgeError):
    """An invariant the engine guarantees was observed broken: a bug."""

    exit_code = 5


class IdentityViolation(InternalError):
    """An exact length identity that is a theorem failed on concrete data."""


class DoubleLinkFailed(InternalError):
    pass


class NoetherBoundViolated(InternalError):
    pass

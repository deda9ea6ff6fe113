"""Exception hierarchy shared by all heiskod modules."""


class HeiskodError(Exception):
    """Base class for all package errors."""


class PreconditionError(HeiskodError, ValueError):
    """A user-supplied parameter violates a documented precondition, or asks
    for work beyond a stated bound (an enumeration, a search, a group order).

    The CLI maps this to exit code 2 (usage error).
    """


class InconsistencyError(HeiskodError):
    """An internal cross-check failed (e.g. a closed form disagreed with a
    direct computation, or a signature broke its divisibility rule).

    Inadmissible input, a non-integral invariant included, is refused earlier
    with :class:`PreconditionError`, so this signals a refuted claim or a
    genuine bug; the CLI maps it to exit code 1.
    """

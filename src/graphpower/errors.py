"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input problems exit 2, capacity limits
exit 3, internal consistency faults exit 4.
"""


class GraphPowerError(Exception):
    """Base class for all package errors."""


# -- input errors (CLI exit code 2) -----------------------------------------

class InputError(GraphPowerError):
    """Bad user-supplied data: indices, parameters, parse failures."""


class IndexOutOfRange(InputError):
    pass


class SelfLoopRejected(InputError):
    pass


class InvalidParameter(InputError):
    pass


class UnsupportedParameter(InputError):
    pass


class UnsupportedFamily(InputError):
    pass


class MalformedGraph6(InputError):
    pass


class NotPrime(InputError):
    pass


class DomainMismatch(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class PreconditionViolated(InputError):
    pass


class SpecParseError(InputError):
    """Mini-language parse failure; carries the offending token."""

    def __init__(self, token, message):
        self.token = token
        super().__init__(f"{message}: {token!r}")


# -- capacity errors (CLI exit code 3) ---------------------------------------

class CapacityError(GraphPowerError):
    pass


class LimitExceeded(CapacityError):
    pass


class CapacityExceeded(CapacityError):
    """Raised when a subgroup computation would exceed the order cap."""

    def __init__(self, bound, cap):
        self.bound = bound
        self.cap = cap
        super().__init__(f"predicted order at least {bound} exceeds cap {cap}")


# -- internal consistency (CLI exit code 4) ----------------------------------

class ConsistencyError(GraphPowerError):
    """An internal cross-check failed; results would be untrustworthy."""

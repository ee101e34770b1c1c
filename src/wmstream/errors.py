"""Exception taxonomy shared by all modules.

Exit codes used by the CLI: parse/parameter errors map to 2, capability
errors to 3, capacity errors to 4, invariant failures to 5.
"""


class WmStreamError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(WmStreamError):
    """A parameter is non-finite, out of range, or otherwise invalid."""


class WeightRangeError(ParameterError):
    """An edge weight falls outside the declared [1, wmax] range."""


class ParseError(WmStreamError):
    """A stream file is malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StreamError(WmStreamError):
    """A multiset violation: duplicate insert, delete of an
    absent edge, or delete whose weight differs from the insert."""


class CapabilityError(WmStreamError):
    """An estimator was asked to do something it does not support."""


class CapacityError(WmStreamError):
    """An instance exceeds the exhaustive oracle's size caps."""


class InvariantError(WmStreamError):
    """A checked invariant failed on actual data."""


EXIT_CODES = {
    ParseError: 2,
    ParameterError: 2,
    StreamError: 2,
    CapabilityError: 3,
    CapacityError: 4,
    InvariantError: 5,
}


def exit_code_for(exc: BaseException) -> int:
    for cls in type(exc).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]
    return 1

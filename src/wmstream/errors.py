"""Exception taxonomy shared by all modules.

Each class carries the CLI exit code for its errors in ``exit_code``: 1 for
the base class, 2 for parse, parameter and stream errors, 3 for capability
errors, 4 for capacity errors and 5 for invariant failures. A subclass
inherits its base's code.
"""


class WmStreamError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParameterError(WmStreamError):
    """A parameter is non-finite, out of range, or otherwise invalid."""

    exit_code = 2


class WeightRangeError(ParameterError):
    """An edge weight falls outside the declared [1, wmax] range."""


class ParseError(WmStreamError):
    """A stream file is malformed; carries the offending line number."""

    exit_code = 2

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StreamError(WmStreamError):
    """A multiset violation: duplicate insert, delete of an
    absent edge, or delete whose weight differs from the insert."""

    exit_code = 2


class CapabilityError(WmStreamError):
    """An estimator was asked to do something it does not support."""

    exit_code = 3


class CapacityError(WmStreamError):
    """An instance exceeds a size cap: the exhaustive oracle's, the level
    schedule's (``schedule.MAX_LEVELS``), a vertex count ``n`` too large
    for the greedy estimator's per-vertex list, or the float range (a top
    threshold in ``build_schedule``, an estimate in ``combine``, a matching
    weight in ``exact_mwm``)."""

    exit_code = 4


class InvariantError(WmStreamError):
    """A check of ``reduction.verify`` failed on actual data: ``estimate
    --verify`` raises it, and ``eval`` exits with its code."""

    exit_code = 5

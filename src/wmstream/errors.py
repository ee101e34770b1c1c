"""Exception taxonomy shared by all modules.

Each class carries the CLI exit code for its errors in ``exit_code``: 1 for
the base class, 2 for parse, parameter and stream errors, 3 for capability
errors, 4 for capacity errors and 5 for invariant failures.
"""


class WmStreamError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParameterError(WmStreamError):
    """A parameter is non-finite, out of range, or otherwise invalid."""

    exit_code = 2


class ParseError(WmStreamError):
    """A stream file is malformed; carries the offending line number."""

    exit_code = 2

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class StreamError(WmStreamError):
    """An update the stream rules refuse: a duplicate insert, a delete of an
    absent edge or with a weight other than its insert's, a delete in an
    insert-only stream, an op other than insert and delete, a self-loop or
    a vertex outside 1..n in updates built in code, or an exact estimator's
    delete at another top level than its insert."""

    exit_code = 2


class CapabilityError(WmStreamError):
    """An estimator was asked to do something it does not support."""

    exit_code = 3


class CapacityError(WmStreamError):
    """An instance exceeds a size cap: the exhaustive oracle's, the level
    schedule's (``schedule.MAX_LEVELS``), a vertex count ``n`` too large
    for the greedy estimator's per-vertex list or for the memory that
    forest-union's packed pairs need, or the float range (a top threshold in
    ``build_schedule``, an estimate in ``combine``, a matching weight in
    ``exact_mwm``)."""

    exit_code = 4


class InvariantError(WmStreamError):
    """A check of ``reduction.verify`` failed on actual data: ``estimate
    --verify`` raises it, and ``eval`` exits with its code."""

    exit_code = 5

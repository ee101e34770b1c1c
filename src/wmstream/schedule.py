"""Geometric weight bucketing: levels, thresholds, and level membership.

Edges are grouped into nested weight classes with thresholds 1, (1+eps),
(1+eps)^2, ... An edge of weight w belongs to every level whose threshold
it meets, so the induced substreams are nested.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .errors import CapacityError, ParameterError, WeightRangeError

# The schedule holds levels + 1 thresholds, and a run keeps a few objects per
# level on top of them. A tiny epsilon or a huge wmax asks for billions of
# levels, which would exhaust memory before the stream is read. 2^18 still
# allows epsilon 1e-5 at wmax 4 (138,631 levels); at the cap a one-edge
# `estimate` peaks near 530 MiB, most of it the JSON of its per-level report.
MAX_LEVELS = 1 << 18


class LevelSchedule(NamedTuple):
    """Immutable bucketing parameters shared by one run.

    ``thresholds[i] == (1+epsilon)**i`` computed by repeated multiplication,
    so every run agrees bit-for-bit. ``levels`` is the index of the top
    threshold (there are ``levels + 1`` thresholds).
    """

    epsilon: float
    wmax: float
    levels: int
    thresholds: tuple[float, ...]


def build_schedule(epsilon: float, wmax: float) -> LevelSchedule:
    """Construct the level schedule for granularity ``epsilon`` and declared
    maximum weight ``wmax``.

    The level count is ceil(log_{1+eps} wmax), zero when wmax == 1.
    epsilon must lie in (0, 1]; values above 1 are rejected. A count above
    MAX_LEVELS, or a top threshold past the float range, raises
    CapacityError.
    """
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon)):
        raise ParameterError(f"epsilon must be finite, got {epsilon!r}")
    if not (0.0 < epsilon <= 1.0):
        raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
    if not (isinstance(wmax, (int, float)) and math.isfinite(wmax)):
        raise ParameterError(f"wmax must be finite, got {wmax!r}")
    if wmax < 1.0:
        raise ParameterError(f"wmax must be >= 1, got {wmax}")

    epsilon = float(epsilon)
    wmax = float(wmax)
    span = math.log(wmax) / math.log1p(epsilon)  # inf if the quotient overflows
    if span > MAX_LEVELS:
        raise CapacityError(
            f"epsilon {epsilon} and wmax {wmax} need more than {MAX_LEVELS} levels"
        )
    levels = math.ceil(span)

    thresholds = [1.0]
    for _ in range(levels):
        thresholds.append(thresholds[-1] * (1.0 + epsilon))
    if thresholds[-1] == math.inf:
        raise CapacityError(f"epsilon {epsilon} and wmax {wmax} overflow the top threshold")
    return LevelSchedule(epsilon, wmax, levels, tuple(thresholds))


def top_level(schedule: LevelSchedule, w: float) -> int:
    """Largest level index whose threshold the weight ``w`` meets.

    Membership is decided by direct comparison against the stored
    thresholds, never by logarithms, so boundary behavior matches routing
    exactly. The range check needs no finiteness test: ``build_schedule``
    makes ``wmax`` finite, so inf and -inf fall outside [1, wmax], and nan
    fails every comparison.
    """
    if not 1.0 <= w <= schedule.wmax:
        raise WeightRangeError(
            f"weight {w} outside [1, {schedule.wmax}]"
        )
    return bisect_right(schedule.thresholds, w) - 1

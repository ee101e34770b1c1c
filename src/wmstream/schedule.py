"""Geometric weight bucketing: levels, thresholds, and level membership.

Edges are grouped into nested weight classes with thresholds 1, (1+eps),
(1+eps)^2, ... An edge of weight w belongs to every level whose threshold
it meets, so the induced substreams are nested.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, repeat
from typing import NamedTuple

from .errors import CapacityError, ParameterError, WeightRangeError

# The schedule holds levels + 1 thresholds, and a run keeps a few objects per
# level on top of them. A tiny epsilon or a huge wmax asks for billions of
# levels, which would exhaust memory before the stream is read. 2^18 still
# allows epsilon 1e-5 at wmax 4 (138,631 levels). At the cap a one-edge
# `estimate` peaks at 81 MiB RSS with greedy and 73 MiB with exact (Python
# 3.11, 2 vCPU), its 45 MB per-level report written one level at a time.
MAX_LEVELS = 1 << 18


class LevelSchedule(NamedTuple):
    """Immutable bucketing parameters shared by one run.

    ``thresholds[i] == (1+epsilon)**i`` computed by repeated multiplication,
    so every run agrees bit-for-bit. ``levels`` is T, the first level whose
    threshold, by these products, reaches wmax (``levels + 1`` thresholds).
    """

    epsilon: float
    wmax: float
    levels: int
    thresholds: tuple[float, ...]


def wmax_refusal(wmax) -> str | None:
    """The words refusing ``wmax``, or None for a finite number >= 1: the one
    home of the wmax rule, which the parser and ``generate`` also call."""
    ok = isinstance(wmax, (int, float)) and math.isfinite(wmax) and wmax >= 1.0
    return None if ok else f"wmax must be finite and >= 1, got {wmax!r}"


def build_schedule(epsilon: float, wmax: float) -> LevelSchedule:
    """Construct the level schedule for granularity ``epsilon`` and declared
    maximum weight ``wmax``.

    T is the first level whose threshold, by the stored products, reaches
    wmax: 0 when wmax == 1, k for wmax == 2**k at epsilon 1. epsilon must
    lie in (0, 1]. More than MAX_LEVELS levels (refused before a threshold
    is stored) or a top threshold past the float range raise CapacityError.
    """
    if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon <= 1.0):
        raise ParameterError(f"epsilon must be in (0, 1], got {epsilon!r}")
    if refusal := wmax_refusal(wmax):
        raise ParameterError(refusal)

    epsilon, wmax = float(epsilon), float(wmax)
    step = 1.0 + epsilon  # 1.0 for a tiny epsilon: the cap ends the loop
    levels, top = 0, 1.0
    while top < wmax:
        if levels == MAX_LEVELS:
            raise CapacityError(
                f"epsilon {epsilon} and wmax {wmax} need more than {MAX_LEVELS} levels"
            )
        top *= step
        levels += 1
    if top == math.inf:
        raise CapacityError(f"epsilon {epsilon} and wmax {wmax} overflow the top threshold")
    thresholds = tuple(accumulate(repeat(step, levels), float.__mul__, initial=1.0))
    return LevelSchedule(epsilon, wmax, levels, thresholds)


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

"""The weighted-to-cardinality reduction.

One estimator serves every level: each update reaches it once, with the top
level its weight reaches, and counts on levels 0..top. After the pass, a
descending greedy combine turns the per-level cardinality estimates into a
weight estimate: iterating from the top level down,

    m_hat[i]  = max(m_hat[i+1], s_hat[i])
    delta[i]  = max(0, ceil(m_hat[i] - 2*b[i+1]))
    b[i]      = b[i+1] + delta[i]
    a[i]      = a[i+1] + thresholds[i] * delta[i]

and the final estimate is a[0].
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapacityError, ParameterError
from .estimators import ESTIMATORS, make_estimator
from .oracle import check_oracle_cap, exact_mcm, exact_mwm
from .schedule import LevelSchedule, build_schedule, top_level
from .stream_io import GraphSnapshot, StreamHeader, StreamUpdate

# Relative slack of the checks that compare float sums, whose rounding
# depends on the order in which they were added.
REL_SLACK = 1e-9


class LevelState(NamedTuple):
    level: int
    s_hat: float
    m_hat: float
    delta_count: int
    b: int
    a: float


class RunReport(NamedTuple):
    schedule: LevelSchedule
    levels: tuple[LevelState, ...]  # ordered top level down to 0
    estimate: float
    estimator: str
    delta: float
    delta_prime: float
    level_words: tuple[int, ...]  # indexed by level, not serialized

    @property
    def total_words(self) -> int:
        return sum(self.level_words)


def combine(schedule: LevelSchedule, s_hats: Sequence[float]) -> tuple[LevelState, ...]:
    """Run the descending greedy combine on per-level estimates, top level
    down. An estimate past the float range raises CapacityError."""
    t = schedule.levels
    if len(s_hats) != t + 1:
        raise ParameterError(
            f"expected {t + 1} estimates, got {len(s_hats)}"
        )
    for s in s_hats:
        if not (math.isfinite(s) and s >= 0.0):
            raise ParameterError(f"estimates must be nonnegative, got {s}")

    levels: list[LevelState] = []
    m_hat_next = 0.0
    b_next = 0
    a_next = 0.0
    for i in range(t, -1, -1):
        s_hat = float(s_hats[i])
        m_hat = max(m_hat_next, s_hat)
        delta_count = max(0, math.ceil(m_hat - 2 * b_next))
        b = b_next + delta_count
        a = a_next + schedule.thresholds[i] * delta_count
        levels.append(LevelState(i, s_hat, m_hat, delta_count, b, a))
        m_hat_next, b_next, a_next = m_hat, b, a
    if not math.isfinite(a_next):
        raise CapacityError("the estimate is past the float range")
    return tuple(levels)


def run(
    header: StreamHeader,
    updates: Iterable[StreamUpdate],
    epsilon: float,
    delta: float,
    estimator_kind: str,
) -> RunReport:
    """One-pass end-to-end run: schedule, estimate every level, combine.

    Each update goes to the estimator once, with the top level that
    ``top_level``'s bisection, made inline, gives its weight; a weight
    outside [1, wmax], nan included, is left to ``top_level`` to refuse."""
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    schedule = build_schedule(epsilon, header.wmax)
    t = schedule.levels
    delta_prime = delta / (t + 1)
    est = make_estimator(estimator_kind, header.n, delta_prime, header.model, t)
    update, thresholds, wmax = est.update, schedule.thresholds, schedule.wmax
    for op, u, v, w in updates:
        if not 1.0 <= w <= wmax:
            top_level(schedule, w)  # raises its WeightRangeError
        update(op, u, v, bisect_right(thresholds, w) - 1)
    # McmEstimate(value, words_stored) per level, unzipped so they go before combine
    s_hats, level_words = zip(*est.finalize())
    levels = combine(schedule, s_hats)
    return RunReport(schedule, levels, levels[-1].a, estimator_kind, delta, delta_prime,
                     level_words)


def check_lemma1(report: RunReport) -> bool:
    """b <= ceil(m_hat) and m_hat <= 2*b at every level. Exact integer
    comparison for integer estimates; the ceiling covers fractional ones."""
    return all(
        st.b <= math.ceil(st.m_hat) and st.m_hat <= 2 * st.b
        for st in report.levels
    )


def check_observations(report: RunReport) -> bool:
    """b is the exact suffix sum of delta; a the threshold-weighted suffix
    sum within a relative slack of REL_SLACK."""
    thresholds = report.schedule.thresholds
    b_sum = 0
    a_sum = 0.0
    for st in report.levels:  # already ordered top level down to 0
        b_sum += st.delta_count
        a_sum += thresholds[st.level] * st.delta_count
        if st.b != b_sum:
            return False
        if abs(st.a - a_sum) > REL_SLACK * max(1.0, abs(a_sum)):
            return False
    return True


def check_sandwich(report: RunReport, mwm: float) -> tuple[float, float, bool]:
    """End-to-end guarantee estimate <= mwm <= 2*lambda*(1+eps)*estimate for
    a report from ``run``, as (ratio, bound, ok) with ratio = mwm/estimate.
    Both zero counts as ratio 1; a zero estimate of a positive MWM as inf.
    The ratio is checked within a relative slack of REL_SLACK."""
    bound = 2.0 * ESTIMATORS[report.estimator].LAM * (1.0 + report.schedule.epsilon)
    if report.estimate == 0.0:
        ratio = 1.0 if mwm == 0.0 else float("inf")
    else:
        ratio = mwm / report.estimate
    return ratio, bound, 1.0 - REL_SLACK <= ratio <= bound * (1.0 + REL_SLACK)


def check_lemma2(
    report: RunReport,
    snapshot: GraphSnapshot,
    matching_weights: Sequence[float],
) -> bool:
    """Both halves of lemma 2 for a report on the final graph ``snapshot``;
    matching_weights are the edge weights of an optimal weighted matching M*.

    Lower: one matching M of the graph has at least b_j edges of weight
    >= thresholds[j] at every level j at once, and w(M) >= estimate within
    a relative slack of REL_SLACK. M is built as in the proof: from the top
    level down, add delta_j edges of a maximum cardinality matching of level
    j's substream whose endpoints M leaves free. Each used vertex blocks at
    most one such edge, so this succeeds whenever
    delta_j <= MCM_j - 2*b_{j+1}, as combine ensures for s_hat <= MCM.

    Upper: #{e in M* : w(e) >= thresholds[j]} <= 2*lambda*b_j per level.

    M* itself need not reach b_j: a heavy edge alone on the top levels gives
    b_j = 1 there, while M* may take two lighter edges at its endpoints.

    The level matchings come from the exact oracle, so the snapshot must be
    within its edge cap (MAX_ORACLE_EDGES); a larger one raises
    CapacityError whatever the report.
    """
    check_oracle_cap(snapshot.edges)
    lam = ESTIMATORS[report.estimator].LAM
    thresholds = report.schedule.thresholds
    weight = {(u, v): w for u, v, w in snapshot.edges}
    used: set[int] = set()
    picked: list[float] = []
    for st in report.levels:  # top level down
        t = thresholds[st.level]
        if st.delta_count > 0:
            level = GraphSnapshot(snapshot.n, tuple(e for e in snapshot.edges if e[2] >= t))
            free = [
                (u, v) for u, v, _ in exact_mcm(level).witness
                if u not in used and v not in used
            ]
            if len(free) < st.delta_count:
                return False
            for u, v in free[: st.delta_count]:
                used.update((u, v))
                picked.append(weight[u, v])
        if len(picked) < st.b:  # every edge picked so far weighs >= t
            return False
        if sum(1 for w in matching_weights if w >= t) > 2 * lam * st.b:
            return False
    return sum(picked) >= report.estimate * (1.0 - REL_SLACK)


class Verdict(NamedTuple):
    oracle_mwm: float
    ratio: float
    bound: float
    lemma1_ok: bool
    obs_ok: bool
    lemma2_ok: bool
    sandwich_ok: bool
    ok: bool  # all four checks hold


def verify(report: RunReport, snapshot: GraphSnapshot) -> Verdict:
    """The one verdict of ``eval`` and ``estimate --verify`` on a report from
    ``run`` and its final graph: the exact MWM, then the sandwich, lemma 1,
    the observations and lemma 2. A snapshot past the 24-edge oracle cap
    raises CapacityError from ``exact_mwm`` before any check runs."""
    result = exact_mwm(snapshot)
    ratio, bound, sandwich_ok = check_sandwich(report, result.value)
    lemma1_ok = check_lemma1(report)
    obs_ok = check_observations(report)
    lemma2_ok = check_lemma2(report, snapshot, [w for _, _, w in result.witness])
    return Verdict(result.value, ratio, bound, lemma1_ok, obs_ok, lemma2_ok, sandwich_ok,
                   lemma1_ok and obs_ok and lemma2_ok and sandwich_ok)


def report_to_dict(report: RunReport) -> dict:
    """The report as the JSON object that ``report_json`` writes."""
    return json.loads("".join(report_json(report, {})))


def report_json(report: RunReport, extra: dict) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2) + "\\n"``, where payload is
    the report's head keys, its levels and then the ``extra`` keys: the only
    spelling of the report. The levels are written one at a time, since the
    indenting encoder is pure Python and a long schedule's report would spend
    seconds in it. Every level value is an int or a finite float, and JSON
    spells a finite float as repr does."""
    schedule = report.schedule
    head = {"epsilon": schedule.epsilon, "wmax": schedule.wmax, "T": schedule.levels,
            "estimate": report.estimate, "delta": report.delta,
            "delta_prime": report.delta_prime, "estimator": report.estimator,
            "total_words": report.total_words}
    yield json.dumps(head, indent=2)[:-2] + ',\n  "levels": [\n'
    thresholds = schedule.thresholds
    sep = ""
    for i, s_hat, m_hat, delta_i, b, a in report.levels:
        yield (f'{sep}    {{\n      "i": {i},\n      "threshold": {thresholds[i]!r},\n'
               f'      "s_hat": {s_hat!r},\n      "m_hat": {m_hat!r},\n'
               f'      "delta_i": {delta_i},\n      "b": {b},\n      "a": {a!r}\n    }}')
        sep = ",\n"
    yield "\n  ]" + ("," + json.dumps(extra, indent=2)[1:] if extra else "\n}") + "\n"

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wmstream import (
    CapacityError,
    GenConfig,
    ParameterError,
    RunReport,
    Verdict,
    WeightRangeError,
    build_schedule,
    check_lemma1,
    check_lemma2,
    check_observations,
    check_sandwich,
    combine,
    exact_mwm,
    generate,
    make_estimator,
    parse_stream,
    replay,
    report_to_dict,
    run,
    top_level,
    verify,
)
from wmstream.estimators import EXACT_OFFLINE, GREEDY
from wmstream import reduction
from wmstream.reduction import LevelState, report_json
from wmstream.stream_io import DYNAMIC, INSERT_ONLY, StreamHeader, StreamUpdate

from helpers import combined_report, python_calls, report_dict_reference

TWO_EDGE_STREAM = "n 4 wmax 4 model insert-only\n+ 1 2 1\n+ 3 4 4\n"


def _s_hats(report):
    """Per-level s_hat of a report, indexed by level."""
    return [st.s_hat for st in reversed(report.levels)]


def test_run_counts_an_edge_on_every_level_it_reaches():
    # thresholds 1, 2, 4: weight 4 reaches levels 0..2, weight 1 only level 0;
    # the edges are disjoint, so each greedy level counts the edges it saw
    header = StreamHeader(4, 4.0, INSERT_ONLY)
    heavy = StreamUpdate("insert", 3, 4, 4.0)
    light = StreamUpdate("insert", 1, 2, 1.0)
    assert _s_hats(run(header, [heavy], 1.0, 0.1, GREEDY)) == [1.0, 1.0, 1.0]
    assert _s_hats(run(header, [heavy, light], 1.0, 0.1, GREEDY)) == [2.0, 1.0, 1.0]


def test_run_delete_leaves_the_levels_its_insert_reached():
    # weight 3 reaches levels 0..1; the delete must leave exactly those levels:
    # they held the pair at their peak, and every level ends empty
    header = StreamHeader(4, 4.0, DYNAMIC)
    updates = [StreamUpdate("insert", 1, 2, 3.0), StreamUpdate("delete", 1, 2, 3.0)]
    report = run(header, updates, 1.0, 0.1, EXACT_OFFLINE)
    assert report.level_words == (1, 1, 0)
    assert _s_hats(report) == [0.0, 0.0, 0.0]
    assert _s_hats(run(header, updates[:1], 1.0, 0.1, EXACT_OFFLINE)) == [1.0, 1.0, 0.0]


def test_combine_hand_trace():
    schedule = build_schedule(1.0, 4.0)
    levels = combine(schedule, [2.0, 1.0, 1.0])
    assert levels[-1].a == 4.0
    assert levels == (
        LevelState(2, 1.0, 1.0, 1, 1, 4.0),
        LevelState(1, 1.0, 1.0, 0, 1, 4.0),
        LevelState(0, 2.0, 2.0, 0, 1, 4.0),
    )


def test_combine_all_zero():
    schedule = build_schedule(1.0, 4.0)
    levels = combine(schedule, [0.0, 0.0, 0.0])
    assert levels[-1].a == 0.0
    assert all(st.delta_count == 0 for st in levels)


def test_combine_single_level():
    schedule = build_schedule(0.5, 1.0)
    levels = combine(schedule, [3.0])
    assert levels[0].delta_count == 3
    assert levels[0].b == 3
    assert levels[-1].a == 3.0


def test_combine_rejects_negative_estimate():
    schedule = build_schedule(1.0, 4.0)
    with pytest.raises(ParameterError):
        combine(schedule, [1.0, -1.0, 0.0])


def test_combine_refuses_an_estimate_past_the_float_range():
    schedule = build_schedule(0.1, 1e308)  # a finite top threshold above 1e308
    top = [0.0] * schedule.levels
    assert combine(schedule, [*top, 1.0])[-1].a == schedule.thresholds[-1]
    with pytest.raises(CapacityError, match="^the estimate is past the float range$"):
        combine(schedule, [*top, 2.0])


@pytest.mark.parametrize("kind", [EXACT_OFFLINE, GREEDY])
@pytest.mark.parametrize("text,epsilon,message", [
    ("n 3 wmax 1e308 model insert-only\n+ 1 2 1e308\n", 1.0, "overflow the top threshold"),
    ("n 4 wmax 1e308 model insert-only\n+ 1 2 1e308\n+ 3 4 1e308\n", 0.1,
     "the estimate is past the float range"),
])
def test_run_refuses_a_stream_whose_estimate_overflows(kind, text, epsilon, message):
    header, updates = parse_stream(text)
    with pytest.raises(CapacityError, match=message):
        run(header, updates, epsilon, 0.1, kind)


def test_run_triangle_unit_weights():
    header, updates = parse_stream(
        "n 3 wmax 1 model insert-only\n+ 1 2 1\n+ 2 3 1\n+ 1 3 1\n"
    )
    report = run(header, updates, 0.5, 0.1, EXACT_OFFLINE)
    assert report.schedule.levels == 0
    assert report.estimate == 1.0
    assert report.estimate == exact_mwm(replay(header, updates)).value


def test_run_two_edge_trace():
    header, updates = parse_stream(TWO_EDGE_STREAM)
    report = run(header, updates, 1.0, 0.1, EXACT_OFFLINE)
    assert report.estimate == 4.0
    oracle_value = exact_mwm(replay(header, updates)).value
    assert report.estimate <= oracle_value <= 2 * 1 * (1 + 1.0) * report.estimate


def test_run_dynamic_cancel_everything():
    header, updates = parse_stream(
        "n 4 wmax 4 model dynamic\n+ 1 2 2\n+ 3 4 4\n- 1 2 2\n- 3 4 4\n"
    )
    report = run(header, updates, 1.0, 0.1, EXACT_OFFLINE)
    assert report.estimate == 0.0


def test_run_splits_delta_across_levels():
    header, updates = parse_stream(TWO_EDGE_STREAM)
    report = run(header, updates, 1.0, 0.1, EXACT_OFFLINE)
    assert report.delta_prime == pytest.approx(0.1 / 3)
    assert report.estimator == EXACT_OFFLINE


@pytest.mark.parametrize("kind", [EXACT_OFFLINE, GREEDY])
@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 0.5,
                               math.nextafter(1.0, -math.inf), math.nextafter(4.0, math.inf)])
def test_run_refuses_a_code_built_weight_outside_1_wmax_as_top_level_does(kind, w):
    # records built in code skip the parser's weight check; run must still
    # refuse them, with top_level's class and message
    header = StreamHeader(4, 4.0, INSERT_ONLY)
    updates = [StreamUpdate("insert", 1, 2, 2.0), StreamUpdate("insert", 3, 4, w)]
    with pytest.raises(WeightRangeError) as expected:
        top_level(build_schedule(1.0, header.wmax), w)
    with pytest.raises(WeightRangeError) as got:
        run(header, updates, 1.0, 0.1, kind)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("kind, model", [(GREEDY, INSERT_ONLY), (EXACT_OFFLINE, DYNAMIC)])
def test_run_makes_one_python_call_per_update(kind, model):
    # the estimator's update is the one call: an update is routed inline
    def updates(m):  # a star, so greedy matches the same two vertices at any m
        if model == INSERT_ONLY:
            return [StreamUpdate("insert", 1, u, 2.0) for u in range(2, m + 2)]
        return [StreamUpdate(op, 1, u, 2.0) for u in range(2, m // 2 + 2)
                for op in ("insert", "delete")]
    header = StreamHeader(20_001, 8.0, model)
    small, large = (python_calls(run, header, updates(m), 0.5, 0.1, kind)
                    for m in (2_000, 20_000))
    assert large - small == 18_000


def _top_level_routed_report(header, updates, epsilon, delta, kind):
    """``run`` as a reference: every update routed by ``top_level``."""
    schedule = build_schedule(epsilon, header.wmax)
    t = schedule.levels
    est = make_estimator(kind, header.n, delta / (t + 1), header.model, t)
    for op, u, v, w in updates:
        est.update(op, u, v, top_level(schedule, w))
    estimates = est.finalize()
    levels = combine(schedule, [e.value for e in estimates])
    return RunReport(schedule, levels, levels[-1].a, kind, delta, delta / (t + 1),
                     tuple(e.words_stored for e in estimates))


@pytest.mark.parametrize("epsilon,wmax", [(1.0, 4.0), (0.1, 1024.0), (0.3, 7.0), (0.5, 1.0)])
def test_run_routes_weights_at_and_beside_every_threshold_as_top_level_does(epsilon, wmax):
    # one disjoint edge per weight, so every level counts exactly the edges
    # routed to it or above: a weight sent one level off changes the report
    thresholds = build_schedule(epsilon, wmax).thresholds
    weights = sorted({
        x
        for t in (*thresholds, wmax)
        for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))
        if 1.0 <= x <= wmax
    })
    inserts = [StreamUpdate("insert", 2 * i + 1, 2 * i + 2, w) for i, w in enumerate(weights)]
    n = 2 * len(weights)
    cases = [(StreamHeader(n, wmax, INSERT_ONLY), inserts, GREEDY)]
    for start in range(0, len(inserts), 24):  # exact finalize's oracle cap
        chunk = inserts[start:start + 24]
        deletes = [StreamUpdate("delete", *upd[1:]) for upd in chunk[::3]]
        cases += [(StreamHeader(n, wmax, INSERT_ONLY), chunk, EXACT_OFFLINE),
                  (StreamHeader(n, wmax, DYNAMIC), chunk + deletes, EXACT_OFFLINE)]
    for header, updates, kind in cases:
        expected = _top_level_routed_report(header, updates, epsilon, 0.1, kind)
        assert run(header, updates, epsilon, 0.1, kind) == expected


@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_run_rejects_delta_outside_0_1(delta):
    header, updates = parse_stream(TWO_EDGE_STREAM)
    with pytest.raises(ParameterError):
        run(header, updates, 1.0, delta, EXACT_OFFLINE)


def test_check_lemma1_accepts_and_rejects():
    schedule = build_schedule(1.0, 4.0)
    report = combined_report(schedule, [2.0, 1.0, 1.0])
    assert check_lemma1(report)
    assert check_lemma1(combined_report(schedule, [0.0, 0.0, 0.0]))
    forged = report._replace(
        levels=(
            report.levels[0],
            LevelState(1, 3.0, 3.0, 0, 0, 4.0),
            report.levels[2],
        ),
    )
    assert not check_lemma1(forged)


def test_check_observations_accepts_and_rejects():
    schedule = build_schedule(1.0, 4.0)
    report = combined_report(schedule, [2.0, 1.0, 1.0])
    assert check_observations(report)
    tampered = report._replace(
        levels=(
            report.levels[0],
            report.levels[1]._replace(a=report.levels[1].a + 1.0),
            report.levels[2],
        ),
    )
    assert not check_observations(tampered)


def test_check_lemma2_on_two_edge_instance():
    header, updates = parse_stream(TWO_EDGE_STREAM)
    report = run(header, updates, 1.0, 0.1, EXACT_OFFLINE)
    snapshot = replay(header, updates)
    witness = exact_mwm(snapshot).witness
    assert check_lemma2(report, snapshot, [w for _, _, w in witness])
    # and on the path 3-1-2-4 at one level: b = 2 is met only by the maximum
    # matching {(1, 3), (2, 4)}, not by the maximal one the first edge starts
    header, updates = parse_stream(
        "n 4 wmax 1 model insert-only\n+ 1 2 1\n+ 1 3 1\n+ 2 4 1\n"
    )
    report = run(header, updates, 0.5, 0.1, EXACT_OFFLINE)
    assert [st.b for st in report.levels] == [2]
    snapshot = replay(header, updates)
    witness = exact_mwm(snapshot).witness
    assert check_lemma2(report, snapshot, [w for _, _, w in witness])


def test_check_lemma2_refuses_a_graph_over_the_oracle_cap():
    # 25 disjoint edges, one over the cap. The report of the empty stream has
    # no delta, so no level matching is needed; the graph is refused anyway.
    stream = "n 50 wmax 1 model insert-only\n" + "".join(
        f"+ {2 * i + 1} {2 * i + 2} 1\n" for i in range(25)
    )
    header, updates = parse_stream(stream)
    report = run(header, [], 0.5, 0.1, GREEDY)
    assert all(st.delta_count == 0 for st in report.levels)
    with pytest.raises(CapacityError):
        check_lemma2(report, replay(header, updates), [])


def test_verify_is_the_oracle_and_the_four_checks():
    header, updates = parse_stream(TWO_EDGE_STREAM)
    snapshot = replay(header, updates)
    weights = [w for _, _, w in exact_mwm(snapshot).witness]
    for kind in (EXACT_OFFLINE, GREEDY):
        report = run(header, updates, 1.0, 0.1, kind)
        ratio, bound, sandwich_ok = check_sandwich(report, 5.0)
        lemma2_ok = check_lemma2(report, snapshot, weights)
        assert verify(report, snapshot) == Verdict(
            5.0, ratio, bound, check_lemma1(report), check_observations(report), lemma2_ok,
            sandwich_ok, True)


def test_verify_refuses_a_graph_over_the_oracle_cap_before_any_check(monkeypatch):
    def called(*args):
        raise AssertionError("a check ran")

    for check in ("check_sandwich", "check_lemma1", "check_observations", "check_lemma2"):
        monkeypatch.setattr(reduction, check, called)
    stream = "n 50 wmax 1 model insert-only\n" + "".join(
        f"+ {2 * i + 1} {2 * i + 2} 1\n" for i in range(25)
    )
    header, updates = parse_stream(stream)
    report = run(header, [], 0.5, 0.1, GREEDY)
    with pytest.raises(CapacityError, match="exceed oracle cap 24"):
        verify(report, replay(header, updates))


# The stream is + 4 5 11, + 3 4 30, + 2 4 43, + 1 6 51, + 1 4 62: the edge of
# weight 62 alone gives b = 1 on the levels with thresholds in (51, 62], while
# the optimal weighted matching is {(1, 6, 51), (2, 4, 43)}.
HEAVY_EDGE_ALONE = GenConfig(family="forest-union", n=6, nu=1,
                             weights="uniform-int", wmax=64.0,
                             order="shuffled", seed=1606)


def _heavy_edge_alone_run():
    header, updates = generate(HEAVY_EDGE_ALONE)
    snapshot = replay(header, updates)
    report = run(header, updates, 0.1, 0.1, EXACT_OFFLINE)
    weights = [w for _, _, w in exact_mwm(snapshot).witness]
    return snapshot, report, weights


def test_check_lemma2_holds_where_optimal_matching_misses_the_top_level():
    snapshot, report, weights = _heavy_edge_alone_run()
    assert check_lemma2(report, snapshot, weights)
    # the dropped form, b_j <= #{e in M*: w(e) >= thresholds[j]}, is false here
    top = next(st for st in report.levels if st.b > 0)
    threshold = report.schedule.thresholds[top.level]
    assert 51.0 < threshold <= 62.0
    assert top.b == 1
    assert sorted(weights) == [43.0, 51.0]
    assert sum(1 for w in weights if w >= threshold) == 0
    # upper half: b = 1 allows at most 2*lam = 2 edges of M* at this level
    assert not check_lemma2(report, snapshot, [62.0, 62.0, 62.0])


def _raise_delta(report, level):
    """One more delta at ``level``, carried into b and a at it and below, so
    that check_observations still holds."""
    extra = report.schedule.thresholds[level]
    levels = tuple(
        st._replace(delta_count=st.delta_count + (st.level == level),
                    b=st.b + 1, a=st.a + extra) if st.level <= level else st
        for st in report.levels
    )
    return report._replace(levels=levels, estimate=levels[-1].a)


def test_check_lemma2_rejects_counts_no_single_matching_realises():
    snapshot, report, weights = _heavy_edge_alone_run()
    top = next(st for st in report.levels if st.b > 0)
    # the top levels hold one edge, so b = 2 there cannot be realised
    tampered = _raise_delta(report, top.level)
    assert check_observations(tampered)
    assert not check_lemma2(tampered, snapshot, weights)
    # Level 0 holds the whole graph, whose maximum matching has 2 edges, so
    # b_0 = 2 passes lemma 1 and the per-level bracket b_0 <= MCM_0 <= 2*b_0.
    # Every edge touches vertex 1 or 4, which the top-level edge (1, 4) uses,
    # so no one matching has b = 1 on top and b = 2 at level 0.
    tampered = _raise_delta(report, 0)
    assert check_observations(tampered)
    assert check_lemma1(tampered)
    assert not check_lemma2(tampered, snapshot, weights)
    # b or the estimate raised alone, beyond what the deltas' matching gives
    forged_b = report._replace(levels=report.levels[:-1]
                               + (report.levels[-1]._replace(b=report.levels[-1].b + 1),))
    assert not check_lemma2(forged_b, snapshot, weights)
    forged_estimate = report._replace(estimate=report.estimate + 10.0)
    assert not check_lemma2(forged_estimate, snapshot, weights)
    # a delta the top level's one edge cannot supply, with b left as it was
    forged_delta = report._replace(levels=tuple(
        st._replace(delta_count=st.delta_count + 1) if st is top else st
        for st in report.levels
    ))
    assert not check_lemma2(forged_delta, snapshot, weights)


@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
    st.floats(0.1, 1.0),
)
def test_lemma1_and_observations_hold_on_fuzzed_vectors(values, epsilon):
    schedule = build_schedule(epsilon, float((1 + epsilon) ** (len(values) - 1)) if len(values) > 1 else 1.0)
    s_hats = [float(v) for v in values[: schedule.levels + 1]]
    s_hats += [0.0] * (schedule.levels + 1 - len(s_hats))
    report = combined_report(schedule, s_hats)
    assert check_lemma1(report)
    assert check_observations(report)


@given(
    st.lists(st.floats(0.0, 9.0), min_size=1, max_size=10),
    st.floats(0.1, 1.0),
)
def test_lemma1_holds_for_fractional_estimates(values, epsilon):
    schedule = build_schedule(epsilon, float((1 + epsilon) ** (len(values) - 1)) if len(values) > 1 else 1.0)
    s_hats = list(values[: schedule.levels + 1])
    s_hats += [0.0] * (schedule.levels + 1 - len(s_hats))
    assert check_lemma1(combined_report(schedule, s_hats))


def test_m_hat_monotone_from_top_down():
    rng = random.Random(3)
    schedule = build_schedule(0.5, 30.0)
    for _ in range(30):
        s_hats = [float(rng.randint(0, 6)) for _ in range(schedule.levels + 1)]
        m_hats = [st.m_hat for st in combine(schedule, s_hats)]  # top level first
        assert m_hats == sorted(m_hats)


def test_sandwich_on_random_instances_both_estimators():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(3, 9)
        pairs = list(
            {
                tuple(sorted(rng.sample(range(1, n + 1), 2)))
                for _ in range(rng.randint(1, 10))
            }
        )
        wmax = 16.0
        updates = [
            StreamUpdate("insert", u, v, float(rng.randint(1, 16))) for u, v in pairs
        ]
        header = StreamHeader(n, wmax, INSERT_ONLY)
        oracle_value = exact_mwm(replay(header, updates)).value
        for kind, lam in ((EXACT_OFFLINE, 1.0), (GREEDY, 2.0)):
            for epsilon in (0.25, 1.0):
                report = run(header, updates, epsilon, 0.1, kind)
                bound = 2 * lam * (1 + epsilon)
                assert report.estimate <= oracle_value * (1 + 1e-9)
                assert oracle_value <= bound * report.estimate * (1 + 1e-9)


def test_run_deterministic_reports():
    header, updates = parse_stream(TWO_EDGE_STREAM)
    a = run(header, updates, 1.0, 0.1, EXACT_OFFLINE)
    b = run(header, updates, 1.0, 0.1, EXACT_OFFLINE)
    assert a == b
    assert json.dumps(report_to_dict(a), indent=2) == json.dumps(report_to_dict(b), indent=2)


def test_report_json_schema():
    header, updates = parse_stream(TWO_EDGE_STREAM)
    report = run(header, updates, 1.0, 0.1, EXACT_OFFLINE)
    payload = report_to_dict(report)
    assert list(payload) == [
        "epsilon", "wmax", "T", "estimate", "delta", "delta_prime",
        "estimator", "total_words", "levels",
    ]
    assert [lvl["i"] for lvl in payload["levels"]] == [2, 1, 0]
    assert list(payload["levels"][0]) == [
        "i", "threshold", "s_hat", "m_hat", "delta_i", "b", "a",
    ]


@st.composite
def _reports(draw):
    wmax = draw(st.one_of(st.just(1.0), st.floats(1.0, 64.0)))  # wmax 1 gives T = 0
    schedule = build_schedule(draw(st.floats(0.05, 1.0)), wmax)
    width = schedule.levels + 1
    s_hats = draw(st.lists(st.floats(0.0, 1e6), min_size=width, max_size=width))
    report = combined_report(schedule, s_hats, draw(st.sampled_from(["greedy", "exact"])))
    delta = draw(st.floats(0.001, 0.999))
    words = draw(st.lists(st.integers(0, 2**40), min_size=width, max_size=width))
    return report._replace(delta=delta, delta_prime=delta / width, level_words=tuple(words))


_VERIFY_KEYS = st.one_of(st.just({}), st.fixed_dictionaries({
    "oracle_mwm": st.floats(0.0, 1e9), "bound": st.floats(2.0, 8.0), "sandwich_ok": st.booleans(),
}))


def _value_types(value):
    """``value`` with each leaf replaced by its type, through dicts and lists."""
    if isinstance(value, dict):
        return {key: _value_types(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_value_types(v) for v in value]
    return type(value)


@settings(max_examples=200, deadline=None)
@given(_reports(), _VERIFY_KEYS)
def test_the_report_writer_spells_the_report_as_json_dumps(report, verify):
    payload = report_dict_reference(report)
    parsed = report_to_dict(report)
    assert parsed == payload
    assert _value_types(parsed) == _value_types(payload)  # 1 == 1.0, but "1" != "1.0"
    payload.update(verify)
    assert "".join(report_json(report, verify)) == json.dumps(payload, indent=2) + "\n"


def test_greedy_estimator_tracks_space_per_level():
    header, updates = parse_stream(TWO_EDGE_STREAM)
    report = run(header, updates, 1.0, 0.1, GREEDY)
    assert len(report.level_words) == report.schedule.levels + 1
    assert report.total_words == sum(report.level_words)
    assert all(w <= header.n // 2 for w in report.level_words)


def _sandwich(estimate, mwm, kind=EXACT_OFFLINE, epsilon=0.5):
    schedule = build_schedule(epsilon, 4.0)
    report = combined_report(schedule, [0.0] * (schedule.levels + 1), kind)
    return check_sandwich(report._replace(estimate=estimate), mwm)


def test_check_sandwich_both_zero_is_ok():
    assert _sandwich(0.0, 0.0) == (1.0, 3.0, True)


def test_check_sandwich_zero_estimate_of_positive_mwm_fails():
    ratio, _, ok = _sandwich(0.0, 5.0)
    assert ratio == float("inf")
    assert not ok


def test_check_sandwich_ratio_at_bound_is_ok():
    # bound = 2 * lambda * (1 + eps): 3 for exact, 6 for greedy at eps = 0.5
    assert _sandwich(2.0, 6.0) == (3.0, 3.0, True)
    assert _sandwich(1.0, 6.0, kind=GREEDY) == (6.0, 6.0, True)
    assert not _sandwich(1.0, 6.1, kind=GREEDY)[2]


def test_check_sandwich_estimate_above_mwm_fails():
    ratio, _, ok = _sandwich(5.0, 4.0)
    assert ratio == 0.8
    assert not ok


def test_combine_refuses_the_wrong_number_of_estimates():
    schedule = build_schedule(1.0, 4.0)  # levels 0..2
    with pytest.raises(ParameterError, match=r"^expected 3 estimates, got 2$") as info:
        combine(schedule, [1.0, 1.0])
    assert info.value.exit_code == 2


def test_check_observations_rejects_a_wrong_b_and_a_wrong_a_on_their_own():
    report = combined_report(build_schedule(1.0, 4.0), [2.0, 1.0, 1.0])
    top, mid, low = report.levels
    wrong_b = mid._replace(b=mid.b + 1)  # a still the weighted suffix sum
    wrong_a = mid._replace(a=mid.a * 2 + 1.0)  # b still the suffix sum
    assert not check_observations(report._replace(levels=(top, wrong_b, low)))
    assert not check_observations(report._replace(levels=(top, wrong_a, low)))

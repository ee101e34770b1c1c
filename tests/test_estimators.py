import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import exact_level_reference, greedy_level_reference
from wmstream import (
    ESTIMATORS,
    CapabilityError,
    CapacityError,
    ParameterError,
    StreamError,
    StreamHeader,
    StreamUpdate,
    build_schedule,
    estimators,
    exact_mcm,
    make_estimator,
    replay,
    run,
    top_level,
)
from wmstream.estimators import EXACT_OFFLINE, GREEDY
from wmstream.stream_io import DELETE, DYNAMIC, INSERT, INSERT_ONLY


def test_greedy_reports_lambda_2():
    est = make_estimator(GREEDY, 10, 0.05, INSERT_ONLY)
    assert est.LAM == 2.0
    assert not est.SUPPORTS_DELETES


def test_exact_reports_lambda_1():
    est = make_estimator(EXACT_OFFLINE, 10, 0.05, INSERT_ONLY)
    assert est.LAM == 1.0
    assert est.SUPPORTS_DELETES


def test_greedy_refuses_dynamic_stream():
    with pytest.raises(CapabilityError):
        make_estimator(GREEDY, 10, 0.05, DYNAMIC)


def test_make_estimator_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        make_estimator("bogus", 10, 0.05, INSERT_ONLY)


@pytest.mark.parametrize("kind", [EXACT_OFFLINE, GREEDY])
def test_make_estimator_rejects_empty_vertex_set(kind):
    with pytest.raises(ParameterError):
        make_estimator(kind, 0, 0.05, INSERT_ONLY)


def test_every_estimator_declares_lambda_at_least_1():
    # the sandwich bound 2*lambda*(1+eps) and lemma 2 assume lambda >= 1
    assert all(cls.LAM >= 1.0 for cls in ESTIMATORS.values())


def test_greedy_refuses_delete_update():
    for levels in (0, 5):
        est = make_estimator(GREEDY, 4, 0.05, INSERT_ONLY, levels)
        est.update(INSERT, 1, 2, levels)
        with pytest.raises(CapabilityError):
            est.update(DELETE, 1, 2, levels)


def test_greedy_refuses_a_vertex_outside_1_to_n():
    est = make_estimator(GREEDY, 4, 0.05, INSERT_ONLY, 2)
    for u, v in [(-1, 2), (0, 2), (1, 5), (1, 1)]:
        with pytest.raises(StreamError):
            est.update(INSERT, u, v, 2)
    est.update(INSERT, 4, 3, 2)
    assert [e.value for e in est.finalize()] == [1.0, 1.0, 1.0]


def test_exact_refuses_a_self_loop_or_a_vertex_outside_1_to_n():
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC, 2)
    for u, v in [(1, 1), (0, 2), (1, 5)]:
        with pytest.raises(StreamError):
            est.update(INSERT, u, v, 2)
    est.update(INSERT, 4, 3, 2)
    assert [e.value for e in est.finalize()] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("u, v", [(2, 2), (0, 2), (2, 4), (4, 2), (5, 1)])
def test_a_bad_edge_is_refused_in_the_same_words_by_replay_and_each_estimator(u, v):
    # the edge is named smaller id first, in whichever order the update gave it
    words = f"edge ({min(u, v)}, {max(u, v)}) is a self-loop or has a vertex outside 1..3"
    with pytest.raises(StreamError) as info:
        replay(StreamHeader(3, 4.0, INSERT_ONLY), [StreamUpdate(INSERT, u, v, 2.0)])
    assert str(info.value) == words
    for kind in (EXACT_OFFLINE, GREEDY):
        with pytest.raises(StreamError) as info:
            make_estimator(kind, 3, 0.05, INSERT_ONLY).update(INSERT, u, v, 0)
        assert str(info.value) == words


@pytest.mark.parametrize("kind", [EXACT_OFFLINE, GREEDY])
@pytest.mark.parametrize("top", [-1, 3])
def test_update_refuses_a_top_level_outside_0_to_levels(kind, top):
    est = make_estimator(kind, 4, 0.05, INSERT_ONLY, 2)
    with pytest.raises(ParameterError, match="top level"):
        est.update(INSERT, 1, 2, top)
    with pytest.raises(StreamError):  # a bad edge is named before a bad top
        est.update(INSERT, 1, 1, top)
    est.update(INSERT, 4, 3, 2)
    assert [e.value for e in est.finalize()] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("kind", [EXACT_OFFLINE, GREEDY])
def test_run_refuses_a_self_loop_built_without_the_parser(kind):
    header = StreamHeader(3, 4.0, INSERT_ONLY)
    with pytest.raises(StreamError):
        run(header, [StreamUpdate(INSERT, 1, 1, 2.0)], 0.5, 0.1, kind)


def test_greedy_state_does_not_grow_with_levels_squared():
    # an all-ones mask per level would cost about T^2/2 bits (26 MiB here)
    levels = 20_000
    tracemalloc.start()
    try:
        est = make_estimator(GREEDY, 2, 0.01, INSERT_ONLY, levels)
        est.update(INSERT, 1, 2, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert {e.value for e in est.finalize()} == {1.0}


def test_exact_state_does_not_grow_with_levels_squared():
    # one packed counter field per level; a table of the ones of levels
    # 0..top for every top would cost about T^2 * width / 2 bits (48 MiB here)
    levels = 20_000
    tracemalloc.start()
    try:
        est = make_estimator(EXACT_OFFLINE, 2, 0.01, DYNAMIC, levels)
        est.update(INSERT, 1, 2, levels)
        est.update(DELETE, 1, 2, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert set(est.finalize()) == {(0.0, 1)}


def test_greedy_refuses_an_unknown_op():
    est = make_estimator(GREEDY, 4, 0.05, INSERT_ONLY, 2)
    with pytest.raises(StreamError, match="unknown op 'bogus'"):
        est.update("bogus", 1, 2, 0)
    assert [e.value for e in est.finalize()] == [0.0] * 3
    header = StreamHeader(3, 4.0, INSERT_ONLY)
    with pytest.raises(StreamError, match="unknown op"):
        run(header, [StreamUpdate("bogus", 1, 2, 2.0)], 0.5, 0.1, GREEDY)


def test_exact_refuses_an_unknown_op_before_any_state_changes():
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC, 2)
    est.update(INSERT, 1, 2, 1)
    with pytest.raises(StreamError, match="unknown op 'bogus'"):
        est.update("bogus", 1, 2, 1)  # not taken for a delete of the live pair
    with pytest.raises(StreamError, match="unknown op"):
        est.update("bogus", 3, 4, 2)
    assert est.finalize() == [(1.0, 1), (1.0, 1), (0.0, 0)]


def test_greedy_path_in_order():
    est = make_estimator(GREEDY, 4, 0.05, INSERT_ONLY)
    for u, v in [(1, 2), (2, 3), (3, 4)]:
        est.update(INSERT, u, v)
    assert est.finalize()[0].value == 2.0


def test_greedy_path_middle_edge_first():
    # hand simulation of the first-come rule: (2,3) blocks both ends,
    # giving 1 while the exact MCM is 2, consistent with lambda = 2
    est = make_estimator(GREEDY, 4, 0.05, INSERT_ONLY)
    for u, v in [(2, 3), (1, 2), (3, 4)]:
        est.update(INSERT, u, v)
    assert est.finalize()[0].value == 1.0


def test_greedy_star_collapses_to_one():
    est = make_estimator(GREEDY, 5, 0.05, INSERT_ONLY)
    for u, v in [(5, 1), (5, 2), (5, 3)]:
        est.update(INSERT, u, v)
    assert est.finalize()[0].value == 1.0


def test_exact_offline_cancellation():
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC)
    est.update(INSERT, 1, 2)
    est.update(DELETE, 1, 2)
    result = est.finalize()[0]
    assert result.value == 0.0
    assert result.words_stored == 1  # one edge was retained at peak


def test_exact_offline_rejects_negative_multiplicity():
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC)
    with pytest.raises(StreamError):
        est.update(DELETE, 1, 2)


def test_exact_offline_triangle():
    est = make_estimator(EXACT_OFFLINE, 3, 0.05, INSERT_ONLY)
    for u, v in [(1, 2), (2, 3), (1, 3)]:
        est.update(INSERT, u, v)
    assert est.finalize()[0].value == 1.0


def test_two_disjoint_edges_either_estimator():
    for kind in (EXACT_OFFLINE, GREEDY):
        est = make_estimator(kind, 4, 0.05, INSERT_ONLY)
        est.update(INSERT, 1, 2)
        est.update(INSERT, 3, 4)
        assert est.finalize()[0].value == 2.0


def _random_edge_list(rng, n, max_edges):
    edges = list(
        {
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(0, max_edges))
        }
    )
    rng.shuffle(edges)
    return edges


def test_greedy_two_approximation_vs_oracle():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 12)
        edges = _random_edge_list(rng, n, 14)
        est = make_estimator(GREEDY, n, 0.05, INSERT_ONLY)
        for u, v in edges:
            est.update(INSERT, u, v)
        g = est.finalize()[0].value
        m = exact_mcm([(u, v, 1.0) for u, v in edges]).value
        assert g <= m <= 2 * g or (g == 0 and m == 0)


def test_greedy_space_bounded_by_half_n():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 12)
        est = make_estimator(GREEDY, n, 0.05, INSERT_ONLY)
        for u, v in _random_edge_list(rng, n, 20):
            est.update(INSERT, u, v)
        assert est.finalize()[0].words_stored <= n // 2


def test_exact_offline_matches_oracle_on_replayed_snapshot():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 10)
        edges = _random_edge_list(rng, n, 12)
        est = make_estimator(EXACT_OFFLINE, n, 0.05, INSERT_ONLY)
        for u, v in edges:
            est.update(INSERT, u, v)
        expected = exact_mcm([(u, v, 1.0) for u, v in edges]).value
        assert est.finalize()[0].value == float(expected)


def test_estimators_deterministic():
    edges = [(1, 2), (3, 4), (2, 3), (4, 5), (1, 5)]
    for kind in (EXACT_OFFLINE, GREEDY):
        results = []
        for _ in range(2):
            est = make_estimator(kind, 5, 0.05, INSERT_ONLY)
            for u, v in edges:
                est.update(INSERT, u, v)
            results.append(est.finalize())
        assert results[0] == results[1]


# --- the nested estimator against one plain reference per level ----------------


def _weight(rng, schedule):
    """A weight in [1, wmax]: an exact threshold, an integer or a float."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([t for t in schedule.thresholds if t <= schedule.wmax])
    if kind == 1:
        return float(rng.randint(1, int(schedule.wmax)))
    return rng.uniform(1.0, schedule.wmax)


def _weighted_stream(rng, schedule, n, length, deletes):
    """(op, u, v, w) updates on at most n vertices, weighted by ``_weight``.
    With ``deletes``, the stream is a simple graph: live pairs are deleted
    with their weight, and a pair drawn again while live is deleted instead
    of inserted."""
    live: dict[tuple[int, int], float] = {}  # pair -> w
    out = []
    for _ in range(length):
        if deletes and live and rng.random() < 0.35:
            pair = rng.choice(sorted(live))
            out.append((DELETE, *pair, live.pop(pair)))
            continue
        u, v = rng.sample(range(1, n + 1), 2)
        pair = (min(u, v), max(u, v))
        if pair in live:
            out.append((DELETE, u, v, live.pop(pair)))
            continue
        w = _weight(rng, schedule)
        if deletes:
            live[pair] = w
        out.append((INSERT, u, v, w))
    return out


def _nested_vs_reference(kind, schedule, n, stream):
    model = DYNAMIC if kind == EXACT_OFFLINE else INSERT_ONLY
    est = make_estimator(kind, n, 0.05, model, schedule.levels)
    for op, u, v, w in stream:
        est.update(op, u, v, top_level(schedule, w))
    got = [(e.value, e.words_stored) for e in est.finalize()]
    want = []
    for t in schedule.thresholds:  # level i sees exactly the updates with w >= t_i
        level = [(op, u, v) for op, u, v, w in stream if w >= t]
        if kind == GREEDY:
            want.append(greedy_level_reference((u, v) for _, u, v in level))
        else:
            want.append(exact_level_reference(level))
    return got, want


@pytest.mark.parametrize("kind", [GREEDY, EXACT_OFFLINE])
# levels + 1 is 45, 8, 4, 1, and then 9 and 17: the top level one bit past a
# byte boundary, where the greedy masks need one more byte
@pytest.mark.parametrize(
    "epsilon,wmax",
    [(0.1, 64.0), (0.5, 16.0), (1.0, 5.0), (0.3, 1.0), (1.0, 200.0), (0.5, 500.0)],
)
def test_nested_estimator_matches_per_level_reference(kind, epsilon, wmax):
    schedule = build_schedule(epsilon, wmax)
    rng = random.Random(f"{kind}/{epsilon}/{wmax}")
    for _ in range(60):
        n = rng.randint(2, 7)  # at most 21 pairs: within the oracle cap on every level
        stream = _weighted_stream(rng, schedule, n, rng.randint(0, 40), kind == EXACT_OFFLINE)
        got, want = _nested_vs_reference(kind, schedule, n, stream)
        assert got == want, stream


def test_greedy_matches_per_level_reference_on_a_large_stream():
    # past the exact estimator's cap: 300 vertices, 3,000 distinct inserts, T = 73
    schedule = build_schedule(0.1, 1024.0)
    rng = random.Random("greedy/large")
    pairs = set()
    while len(pairs) < 3000:
        u, v = rng.sample(range(1, 301), 2)
        pairs.add((min(u, v), max(u, v)))
    stream = [(INSERT, *pair, _weight(rng, schedule)) for pair in rng.sample(sorted(pairs), 3000)]
    got, want = _nested_vs_reference(GREEDY, schedule, 300, stream)
    assert got == want
    # the top threshold, 1.1^73, is above wmax; the level below it is reached
    assert got[0][0] > got[-2][0] > got[-1][0] == 0


def test_greedy_finalize_memory_follows_the_matched_vertices():
    # a byte row for each of the n + 1 masks would take n * T / 8 bytes (25 MB here)
    est = make_estimator(GREEDY, 50_000, 0.01, INSERT_ONLY, 4_000)
    est.update(INSERT, 1, 2, 4_000)
    tracemalloc.start()
    try:
        out = est.finalize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert set(out) == {(1.0, 1)}


@pytest.mark.parametrize("levels, bound", [(73, 1 << 20), (7, 1 << 19)])
def test_greedy_finalize_temporary_memory_is_about_the_rows(levels, bound):
    # every vertex matched: the rows hold (levels + 8) // 8 bytes per vertex.
    # Measured peaks: 0.33 MB at T = 73 and 0.11 MB at T = 7; one bytes
    # object per mask joined into the rows, with all byte columns alive at
    # once, took 2.83 MB and 2.47 MB
    n = 20_000
    est = make_estimator(GREEDY, n, 0.01, INSERT_ONLY, levels)
    for u in range(1, n, 2):
        est.update(INSERT, u, u + 1, levels)
    tracemalloc.start()
    try:
        out = est.finalize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert set(out) == {(n / 2, n // 2)}


@st.composite
def _masks_and_width(draw):
    width = draw(st.one_of(st.integers(1, 70), st.just(1500)))
    masks = draw(st.lists(st.one_of(st.just(0), st.integers(0, (1 << width) - 1)), max_size=40))
    return masks, width


@settings(max_examples=300, deadline=None)
@given(_masks_and_width())
@example(([0, 1, 0x80, 0xFF], 8))
@example(([0x8001, 0, 0xFFFF, 0x100], 16))
@example(([0xFFFFFF, 0x800000, 0], 24))
@example(([(1 << 64) - 1, 1 << 63, 0, 1 << 7], 64))
def test_bit_counts_matches_a_count_per_bit(case):
    masks, width = case
    want = [sum(m >> i & 1 for m in masks) for i in range(width)]
    assert estimators._bit_counts(masks, width) == want


def _churned_stream(rng, schedule, n, grow, churn):
    """A simple-graph stream whose updates delete a random live pair with
    probability 0.3 for the first ``grow`` updates and 0.7 for the next
    ``churn``, and insert a pair that is not live otherwise; it then drains
    to at most 24 live pairs (the oracle's cap), oldest first."""
    live: dict[tuple[int, int], float] = {}  # pair -> w, in insertion order
    out = []
    while len(out) < grow + churn:
        if live and rng.random() < (0.3 if len(out) < grow else 0.7):
            pair = rng.choice(list(live))
            out.append((DELETE, *pair, live.pop(pair)))
            continue
        u, v = rng.sample(range(1, n + 1), 2)
        if (pair := (min(u, v), max(u, v))) not in live:
            live[pair] = w = _weight(rng, schedule)
            out.append((INSERT, v, u, w))
    while len(live) > 24:
        pair = next(iter(live))
        out.append((DELETE, *pair, live.pop(pair)))
    return out


def _brute_force_peaks(schedule, stream):
    """Each level's peak live count, counted on its own substream."""
    peaks = []
    for t in schedule.thresholds:
        live = peak = 0
        for op, _, _, w in stream:
            if w >= t:
                live += 1 if op == INSERT else -1
                peak = max(peak, live)
        peaks.append(peak)
    return peaks


@pytest.mark.parametrize("epsilon", [0.1, 0.5])
def test_nested_exact_counts_peaks_in_the_hundreds_on_a_long_churned_stream(epsilon):
    schedule = build_schedule(epsilon, 1024.0)
    stream = _churned_stream(random.Random(epsilon), schedule, 200, 1100, 900)
    got, want = _nested_vs_reference(EXACT_OFFLINE, schedule, 200, stream)
    assert got == want
    peaks = _brute_force_peaks(schedule, stream)
    assert [words for _, words in got] == peaks
    assert len(stream) >= 2000 and peaks[0] >= 300 and peaks[schedule.levels // 2] >= 100


@pytest.mark.parametrize("levels", [0, 1, 6])
def test_nested_exact_on_the_smallest_vertex_counts(levels):
    # n = 1 has no pair, and n = 2 one pair, whose counter fields are 2 bits
    one = make_estimator(EXACT_OFFLINE, 1, 0.05, DYNAMIC, levels)
    for op in (INSERT, DELETE):
        with pytest.raises(StreamError):
            one.update(op, 1, 1, levels)
    assert one.finalize() == [(0.0, 0)] * (levels + 1)
    rng = random.Random(levels)
    est = make_estimator(EXACT_OFFLINE, 2, 0.05, DYNAMIC, levels)
    stream, peaks = [], [0] * (levels + 1)
    for _ in range(30):
        top = rng.randint(0, levels)
        stream += [(INSERT, 1, 2, top), (DELETE, 2, 1, top)]
        peaks[: top + 1] = [1] * (top + 1)
    stream.append((INSERT, 2, 1, levels // 2))
    for op, u, v, top in stream:
        est.update(op, u, v, top)
    live = levels // 2 + 1
    assert est.finalize() == [(1.0, 1)] * live + [(0.0, p) for p in peaks[live:]]


def test_nested_exact_with_repeated_inserts_and_deletes_of_one_pair():
    schedule = build_schedule(0.5, 16.0)
    w = 5.0  # levels 0..3; 16.0 reaches 0..6, and no weight reaches level 7
    stream = [(INSERT, 1, 2, w), (INSERT, 3, 4, 1.0), (DELETE, 2, 1, w),
              (DELETE, 3, 4, 1.0), (INSERT, 2, 1, w), (DELETE, 1, 2, w),
              (INSERT, 1, 2, 16.0)]
    got, want = _nested_vs_reference(EXACT_OFFLINE, schedule, 4, stream)
    assert got == want
    assert [words for _, words in got] == [2, 1, 1, 1, 1, 1, 1, 0]
    assert [value for value, _ in got] == [1.0] * 7 + [0.0]


def test_nested_exact_refuses_a_live_pair_at_another_top_level():
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC, 3)
    est.update(INSERT, 1, 2, 2)
    with pytest.raises(StreamError):
        est.update(INSERT, 2, 1, 3)
    with pytest.raises(StreamError):
        est.update(DELETE, 1, 2, 1)
    est.update(DELETE, 1, 2, 2)
    est.update(INSERT, 1, 2, 3)  # gone, so it may come back at another level
    assert [e.value for e in est.finalize()] == [1.0] * 4


@pytest.mark.parametrize("stream,message", [
    ([(INSERT, 1, 2, 3.0), (INSERT, 2, 1, 3.0)], "duplicate insert of edge (1, 2)"),
    ([(INSERT, 1, 2, 3.0), (DELETE, 3, 1, 3.0)], "delete of absent edge (1, 3)"),
], ids=["duplicate-insert", "absent-delete"])
def test_exact_and_replay_refuse_what_a_simple_graph_cannot_hold(stream, message):
    updates = [StreamUpdate(*upd) for upd in stream]
    with pytest.raises(StreamError, match=re.escape(message)):
        replay(StreamHeader(4, 4.0, DYNAMIC), updates)
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC)
    for op, u, v, _ in updates[:-1]:
        est.update(op, u, v)
    op, u, v, _ = updates[-1]
    with pytest.raises(StreamError, match=re.escape(message)):
        est.update(op, u, v)


@pytest.mark.parametrize("first,second", [((1, 4), (4, 1)), ((4, 1), (1, 4))],
                         ids=["low-id-first", "high-id-first"])
def test_exact_refusals_name_the_ordered_pair_in_either_orientation(first, second):
    # ids 1 and n are the ends of the packed key u*(n+1)+v
    est = make_estimator(EXACT_OFFLINE, 4, 0.05, DYNAMIC, 3)
    est.update(INSERT, *first, 2)
    for update, message in [((INSERT, *second, 3), "duplicate insert of edge (1, 4)"),
                            ((DELETE, *second, 1), "edge (1, 4) at top level 1, live at 2")]:
        with pytest.raises(StreamError, match=f"^{re.escape(message)}$"):
            est.update(*update)
    est.update(DELETE, *second, 2)
    with pytest.raises(StreamError, match=f"^{re.escape('delete of absent edge (1, 4)')}$"):
        est.update(DELETE, *first, 2)


@pytest.mark.parametrize("seed", range(4))
def test_nested_exact_matches_per_level_reference_with_pairs_in_both_orientations(seed):
    # inserts arrive either way round and deletes low id first, on ids 1..n
    n = 8
    schedule = build_schedule(0.5, 16.0)
    stream = _churned_stream(random.Random(seed), schedule, n, 60, 60)
    assert {u < v for op, u, v, _ in stream if op == INSERT} == {True, False}
    assert {1, n} <= {x for _, u, v, _ in stream for x in (u, v)}
    got, want = _nested_vs_reference(EXACT_OFFLINE, schedule, n, stream)
    assert got == want


def test_exact_finalize_asks_the_oracle_once_per_distinct_level(monkeypatch):
    asked = []

    def counted(edges):
        asked.append(len(edges))
        return exact_mcm(edges)

    monkeypatch.setattr(estimators, "exact_mcm", counted)
    # weights 1 and 16 at eps 0.1: level 0 holds every edge, levels 1..29 the
    # weight-16 edges, and level 30 (threshold 1.1**30 > 16) none
    stream = [(INSERT, 1, 2, 16.0), (INSERT, 3, 4, 1.0), (INSERT, 2, 3, 1.0),
              (INSERT, 5, 6, 16.0), (INSERT, 4, 5, 16.0), (DELETE, 5, 6, 16.0),
              (INSERT, 1, 6, 1.0)]
    header = StreamHeader(6, 16.0, DYNAMIC)
    report = run(header, [StreamUpdate(*upd) for upd in stream], 0.1, 0.1, EXACT_OFFLINE)
    assert report.schedule.levels == 30
    assert asked == [2, 5]  # top first; no call for a level that adds no edges
    got = [(st.s_hat, report.level_words[st.level]) for st in reversed(report.levels)]
    want = [exact_level_reference([(op, u, v) for op, u, v, w in stream if w >= t])
            for t in report.schedule.thresholds]
    assert got == want


def test_exact_finalize_skips_a_level_whose_value_is_already_at_its_ceiling(monkeypatch):
    asked = []

    def counted(edges):
        asked.append(len(edges))
        return exact_mcm(edges)

    monkeypatch.setattr(estimators, "exact_mcm", counted)
    # at eps 1 and wmax 4 the heavy edges reach level 2; they match all four
    # vertices, so level 0, which adds the light (2, 3), cannot beat their 2
    schedule = build_schedule(1.0, 4.0)
    stream = [(INSERT, 1, 2, 4.0), (INSERT, 3, 4, 4.0), (INSERT, 2, 3, 1.0)]
    got, want = _nested_vs_reference(EXACT_OFFLINE, schedule, 4, stream)
    assert asked == [2]
    assert got == want


@pytest.mark.parametrize("seed", range(6))
def test_exact_walk_carries_values_down_through_levels_that_add_no_edges(seed):
    # eps 0.1 at wmax 64 gives 44 levels, and a churned stream drained to at
    # most 24 live pairs leaves many levels between its tops adding none
    schedule = build_schedule(0.1, 64.0)
    stream = _churned_stream(random.Random(seed), schedule, 12, 60, 20)
    got, want = _nested_vs_reference(EXACT_OFFLINE, schedule, 12, stream)
    assert got == want
    live = replay(StreamHeader(12, 64.0, DYNAMIC), stream)
    tops = {top_level(schedule, w) for _, _, w in live}
    assert len(live) <= 24 and len(tops) >= 2
    assert len(set(range(max(tops))) - tops) >= 10  # levels below the top adding none


@pytest.mark.parametrize("low,mid", [(24, 0), (5, 24)], ids=["25-pairs", "level-1-over-the-cap"])
def test_exact_finalize_checks_the_oracle_cap_on_every_live_pair_first(monkeypatch, low, mid):
    asked = []
    monkeypatch.setattr(estimators, "exact_mcm", asked.append)
    est = make_estimator(EXACT_OFFLINE, 40, 0.05, DYNAMIC, 3)
    est.update(INSERT, 1, 2, 3)  # the top level alone holds one pair
    for k, v in enumerate(range(3, 3 + mid + low)):
        est.update(INSERT, 1, v, 1 if k < mid else 0)
    # level 0 holds every live pair, so that count is the one refused
    message = f"{1 + mid + low} edges exceed oracle cap 24"
    with pytest.raises(CapacityError, match=re.escape(message)):
        est.finalize()
    assert asked == []

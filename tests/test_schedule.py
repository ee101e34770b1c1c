import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from wmstream import (
    CapacityError,
    GenConfig,
    ParameterError,
    ParseError,
    WeightRangeError,
    WmStreamError,
    build_schedule,
    generate,
    make_estimator,
    parse_stream,
    top_level,
)
from wmstream.schedule import MAX_LEVELS
from wmstream.stream_io import INSERT_ONLY


def test_power_of_two_levels():
    s = build_schedule(1.0, 4.0)
    assert s.levels == 2
    assert s.thresholds == (1.0, 2.0, 4.0)


def test_degenerate_single_level():
    s = build_schedule(0.5, 1.0)
    assert s.levels == 0
    assert s.thresholds == (1.0,)


def test_a_power_of_two_gets_its_exponent_at_epsilon_1():
    # the float quotient log(2**k) / log1p(1) overshoots k for 220 of these
    for k in range(1024):
        s = build_schedule(1.0, 2.0**k)
        assert s.levels == k
        assert s.thresholds[-1] == 2.0**k


@example(epsilon=0.1, wmax=1.1)  # log(1.1) / log1p(0.1) is just above 1
@given(epsilon=st.floats(0.0, 1.0, exclude_min=True), wmax=st.floats(1.0, 1e6))
def test_the_top_threshold_is_the_first_to_reach_wmax(epsilon, wmax):
    try:
        s = build_schedule(epsilon, wmax)
    except CapacityError:
        # refused only when MAX_LEVELS steps stay below wmax; a power and
        # 2**18 rounded products differ by far less than 1e-9
        assert (1.0 + epsilon) ** MAX_LEVELS < wmax * (1.0 + 1e-9)
        return
    assert s.thresholds[-1] >= wmax
    if s.levels > 0:
        assert s.thresholds[-2] < wmax


def test_half_epsilon_thresholds():
    # independently recomputed: T = ceil(ln 10 / ln 1.5) = 6, and the
    # running products are exact binary fractions 3^i / 2^i
    assert math.ceil(math.log(10) / math.log(1.5)) == 6
    expected = [float(Fraction(3, 2) ** i) for i in range(7)]
    s = build_schedule(0.5, 10.0)
    assert s.levels == 6
    assert list(s.thresholds) == expected
    assert expected == [1, 1.5, 2.25, 3.375, 5.0625, 7.59375, 11.390625]


@pytest.mark.parametrize(
    "epsilon,wmax",
    [(0.0, 4.0), (-0.5, 4.0), (1.5, 4.0), (0.5, 0.5), (float("nan"), 4.0),
     (0.5, float("inf"))],
)
def test_rejects_bad_parameters(epsilon, wmax):
    with pytest.raises(ParameterError):
        build_schedule(epsilon, wmax)


def refusal(call) -> tuple[type, str]:
    """The class and the words of the error that ``call()`` raises."""
    with pytest.raises(WmStreamError) as info:
        call()
    return type(info.value), str(info.value)


# Each rule's three callers: the parser (one header field set to the value),
# ``generate`` and the library call that checks it. The parser reads n as an
# int and wmax as a float, so the other callers get the same types.
CALLERS = {
    "n": ("n {} wmax 4 model insert-only\n",
          lambda n: generate(GenConfig("forest-union", n=n)),
          lambda n: make_estimator("greedy", n, 0.5, INSERT_ONLY)),
    "wmax": ("n 2 wmax {} model insert-only\n",
             lambda wmax: generate(GenConfig("grid", rows=2, cols=2, wmax=wmax)),
             lambda wmax: build_schedule(0.5, wmax)),
}


@pytest.mark.parametrize("field, value, words", [
    ("wmax", 0.5, "wmax must be finite and >= 1, got 0.5"),
    ("wmax", 0.0, "wmax must be finite and >= 1, got 0.0"),
    ("wmax", math.inf, "wmax must be finite and >= 1, got inf"),
    ("wmax", math.nan, "wmax must be finite and >= 1, got nan"),
    ("n", 0, "n must be >= 1, got 0"),
    ("n", -1, "n must be >= 1, got -1"),
])
def test_a_bad_n_or_wmax_is_refused_in_the_same_words_by_each_caller(field, value, words):
    header, gen, library = CALLERS[field]
    assert refusal(lambda: parse_stream(header.format(value))) == (ParseError, f"line 1: {words}")
    assert refusal(lambda: gen(value)) == (ParameterError, words)
    assert refusal(lambda: library(value)) == (ParameterError, words)


# Values the parser never gives, as it reads n with int() and wmax with float().
@pytest.mark.parametrize("field, value, words", [
    ("wmax", 0, "wmax must be finite and >= 1, got 0"),
    ("wmax", "8", "wmax must be finite and >= 1, got '8'"),
    ("n", "5", "n must be >= 1, got '5'"),
    ("n", 1.5, "n must be >= 1, got 1.5"),
])
def test_a_bad_value_only_the_library_can_pass_is_refused_in_the_same_words(field, value, words):
    for call in CALLERS[field][1:]:
        assert refusal(lambda: call(value)) == (ParameterError, words)


@pytest.mark.parametrize("w", [0.5, 4.5, math.nan, math.inf, -math.inf])
def test_a_weight_outside_1_to_wmax_is_refused_in_the_same_words_by_parser_and_top_level(w):
    words = f"weight {w} outside [1, 4.0]"
    stream = f"n 2 wmax 4 model insert-only\n+ 1 2 {w}\n"
    assert refusal(lambda: parse_stream(stream)) == (ParseError, f"line 2: {words}")
    assert refusal(lambda: top_level(build_schedule(0.5, 4.0), w)) == (WeightRangeError, words)


@pytest.mark.parametrize("epsilon", [0, 0.0, -0.5, 1.5, math.nan, math.inf, -math.inf, "0.5", None])
def test_a_bad_epsilon_is_refused_in_one_message(epsilon):
    assert refusal(lambda: build_schedule(epsilon, 4.0)) == (
        ParameterError, f"epsilon must be in (0, 1], got {epsilon!r}")


def test_top_level_boundaries():
    s = build_schedule(1.0, 4.0)
    assert top_level(s, 1.0) == 0
    assert top_level(s, 3.999) == 1
    assert top_level(s, 4.0) == 2


def test_top_level_rejects_out_of_range():
    s = build_schedule(1.0, 4.0)
    # nan fails every comparison, so the range check refuses it too
    for w in (0.5, 4.001, math.nan, math.inf, -math.inf):
        with pytest.raises(WeightRangeError) as excinfo:
            top_level(s, w)
        assert str(excinfo.value) == f"weight {w} outside [1, 4.0]"
        assert excinfo.value.exit_code == 2  # through its base, ParameterError


@given(
    epsilon=st.floats(0.01, 1.0),
    wmax=st.floats(1.0, 1e6),
    w=st.floats(0.0, 1.0),
)
def test_level_is_threshold_interval(epsilon, wmax, w):
    s = build_schedule(epsilon, wmax)
    weight = 1.0 + w * (wmax - 1.0)
    i = top_level(s, weight)
    assert s.thresholds[i] <= weight
    if i < s.levels:
        assert weight < s.thresholds[i + 1]


@given(
    epsilon=st.floats(0.01, 1.0),
    wmax=st.floats(1.0, 1e6),
    pair=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_top_level_monotone(epsilon, wmax, pair):
    s = build_schedule(epsilon, wmax)
    w1, w2 = sorted(1.0 + t * (wmax - 1.0) for t in pair)
    assert top_level(s, w1) <= top_level(s, w2)


@given(epsilon=st.floats(0.01, 1.0), wmax=st.floats(1.0, 1e6))
def test_threshold_structure(epsilon, wmax):
    s = build_schedule(epsilon, wmax)
    assert s.thresholds[0] == 1.0
    for lo, hi in zip(s.thresholds, s.thresholds[1:]):
        assert hi > lo
        assert math.isclose(hi, lo * (1.0 + epsilon), rel_tol=1e-12)


def test_substream_nesting_on_random_weights():
    import random

    rng = random.Random(7)
    s = build_schedule(0.3, 50.0)
    weights = [rng.uniform(1.0, 50.0) for _ in range(200)]
    members = [
        {w for w in weights if top_level(s, w) >= i} for i in range(s.levels + 1)
    ]
    for inner, outer in zip(members[1:], members):
        assert inner <= outer


@pytest.mark.parametrize("epsilon,wmax", [(1e-7, 4.0), (1e-17, 4.0), (0.001, 1e308), (5e-324, 4.0)])
def test_a_schedule_over_max_levels_is_refused_before_it_is_built(epsilon, wmax):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"more than {MAX_LEVELS} levels"):
            build_schedule(epsilon, wmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _product_count(step: float, wmax: float) -> int:
    """How many multiplications by ``step`` take 1.0 to ``wmax`` or past it."""
    top, count = 1.0, 0
    while top < wmax:
        top *= step
        count += 1
    return count


def test_max_levels_is_the_longest_schedule_built():
    assert build_schedule(1e-5, 4.0).levels == 138_631
    # the smallest step 1 + epsilon whose products reach 4 within the cap
    step = 1.0 + math.expm1(math.log(4.0) / MAX_LEVELS)
    while _product_count(step, 4.0) <= MAX_LEVELS:
        step = math.nextafter(step, 1.0)
    while _product_count(step, 4.0) > MAX_LEVELS:
        step = math.nextafter(step, 2.0)
    # the smallest epsilon that rounds to it: 1 + epsilon is a tie between
    # step and the float below it at step - 1 - 2**-53, resolved to the even one
    epsilon = step - 1.0 - 2.0**-53
    if 1.0 + epsilon != step:
        epsilon = math.nextafter(epsilon, 1.0)
    s = build_schedule(epsilon, 4.0)
    assert s.levels == MAX_LEVELS
    assert s.thresholds[-2] < 4.0 <= s.thresholds[-1]
    with pytest.raises(CapacityError, match=f"more than {MAX_LEVELS} levels"):
        build_schedule(math.nextafter(epsilon, 0.0), 4.0)


def test_a_top_threshold_past_the_float_range_is_refused():
    # 2^1024 is past the largest float; (1.1)^7441 is not, at about 1.007e308
    message = r"^epsilon 1.0 and wmax 1e\+308 overflow the top threshold$"
    with pytest.raises(CapacityError, match=message):
        build_schedule(1.0, 1e308)
    assert build_schedule(1.0, 1.5 * 2.0**1022).thresholds[-1] == 2.0**1023
    assert math.isfinite(build_schedule(0.1, 1e308).thresholds[-1])

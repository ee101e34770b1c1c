import pytest
from hypothesis import given, strategies as st

from wmstream import (
    GenConfig,
    ParseError,
    StreamError,
    StreamHeader,
    StreamUpdate,
    generate,
    parse_stream,
    replay,
    serialize,
)
from wmstream.stream_io import DELETE, DYNAMIC, INSERT, INSERT_ONLY

from helpers import snapshot_stream


def test_parse_basic_insert_only():
    header, updates = parse_stream(
        "n 4 wmax 4 model insert-only\n+ 1 2 1\n+ 3 4 4\n"
    )
    assert header == StreamHeader(4, 4.0, INSERT_ONLY)
    assert updates == [
        StreamUpdate(INSERT, 1, 2, 1.0),
        StreamUpdate(INSERT, 3, 4, 4.0),
    ]


def test_records_unpack_as_plain_tuples():
    _, parsed = parse_stream("n 3 wmax 4 model dynamic\n+ 1 2 3\n- 2 1 3\n")
    assert [(op, u, v, w) for op, u, v, w in parsed] == [
        (INSERT, 1, 2, 3.0),
        (DELETE, 2, 1, 3.0),
    ]
    config = GenConfig(family="grid", rows=2, cols=2, order="heavy-first", churn=0.5)
    _, generated = generate(config)
    for upd in generated:
        op, u, v, w = upd
        assert isinstance(upd, tuple)
        assert (op, u, v, w) == (upd.op, upd.u, upd.v, upd.w)


def test_parse_dynamic_cancellation():
    header, updates = parse_stream("n 2 wmax 1 model dynamic\n+ 1 2 1\n- 1 2 1\n")
    assert header.model == DYNAMIC
    assert replay(header, updates).edges == ()


def test_parse_comments_and_blank_lines():
    header, updates = parse_stream(
        "# a comment\n\nn 2 wmax 1 model insert-only\n\n+ 1 2 1\n# trailing\n"
    )
    assert len(updates) == 1


@pytest.mark.parametrize(
    "text",
    [
        "n 2 wmax 1 model insert-only\n- 1 2 1\n",  # delete in insert-only
        "n 2 wmax 1 model insert-only\n+ 1 1 1\n",  # self-loop
        "n 2 wmax 1 model insert-only\n+ 1 3 1\n",  # vertex out of range
        "n 2 wmax 2 model insert-only\n+ 1 2 3\n",  # weight above wmax
        "n 2 wmax 2 model insert-only\n+ 1 2 0.5\n",  # weight below 1
        "n 2 wmax 2 model insert-only\n+ 1 2 nan\n",  # weight not a number
        "n 2 wmax 2 model insert-only\n+ 1 2 inf\n",  # infinite weight
        "n 2 wmax 1 model trickle\n",  # unknown model
        "n 0 wmax 1 model insert-only\n",  # bad n
        "+ 1 2 1\n",  # missing header
        "n 2 wmax 1 model insert-only\n+ 1 2\n",  # short line
        b"n 2 wmax 1 model insert-only\n+ 1 2 \xff\n",  # not UTF-8
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_stream(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_stream("n 2 wmax 1 model insert-only\n+ 1 2 1\nbogus\n")


def test_strict_rejects_duplicate_insert():
    with pytest.raises(StreamError):
        parse_stream("n 2 wmax 1 model insert-only\n+ 1 2 1\n+ 2 1 1\n")


def test_strict_rejects_delete_of_absent_edge():
    with pytest.raises(StreamError):
        parse_stream("n 3 wmax 1 model dynamic\n+ 1 2 1\n- 2 3 1\n")


def test_strict_rejects_delete_weight_mismatch():
    with pytest.raises(StreamError):
        parse_stream("n 2 wmax 4 model dynamic\n+ 1 2 3\n- 1 2 4\n")


def test_replay_reinsert_after_delete():
    header = StreamHeader(2, 4.0, DYNAMIC)
    updates = [
        StreamUpdate(INSERT, 1, 2, 3.0),
        StreamUpdate(DELETE, 1, 2, 3.0),
        StreamUpdate(INSERT, 1, 2, 3.0),
    ]
    snap = replay(header, updates)
    assert snap.edges == ((1, 2, 3.0),)


def test_replay_normalizes_endpoints():
    header = StreamHeader(3, 5.0, INSERT_ONLY)
    snap = replay(header, [StreamUpdate(INSERT, 3, 1, 5.0)])
    assert snap.edges == ((1, 3, 5.0),)


@pytest.mark.parametrize("u, v", [(1, 1), (0, 2), (2, 4)])
def test_replay_refuses_a_self_loop_or_a_vertex_outside_1_to_n(u, v):
    with pytest.raises(StreamError):
        replay(StreamHeader(3, 4.0, INSERT_ONLY), [StreamUpdate(INSERT, u, v, 2.0)])


@pytest.mark.parametrize("updates", [
    # packed as u*(n+1)+v, (0, 6) would alias (1, 2) and read as a duplicate
    [StreamUpdate(INSERT, 1, 2, 2.0), StreamUpdate(INSERT, 0, 6, 2.0)],
    # refused as it comes, not only if it survives to the final graph
    [StreamUpdate(INSERT, 2, 4, 2.0), StreamUpdate(DELETE, 2, 4, 2.0)],
])
def test_replay_refuses_a_bad_pair_before_packing_it(updates):
    with pytest.raises(StreamError, match="outside 1..3"):
        replay(StreamHeader(3, 4.0, DYNAMIC), updates)


@pytest.mark.parametrize("model", [INSERT_ONLY, DYNAMIC])
def test_replay_refuses_an_unknown_op(model):
    # neither counted as an insert nor taken for a delete of the live pair
    updates = [StreamUpdate(INSERT, 1, 2, 2.0), StreamUpdate("bogus", 1, 2, 2.0)]
    with pytest.raises(StreamError, match="unknown op 'bogus'"):
        replay(StreamHeader(3, 4.0, model), updates)


def test_export_snapshot_round_trips():
    header, updates = parse_stream(
        "n 4 wmax 4 model dynamic\n+ 3 4 4\n+ 1 2 1\n- 3 4 4\n"
    )
    snap = replay(header, updates)
    text = serialize(*snapshot_stream(snap, header.wmax))
    header2, updates2 = parse_stream(text)
    assert replay(header2, updates2).edges == snap.edges


@st.composite
def streams(draw):
    n = draw(st.integers(2, 8))
    wmax = draw(st.integers(1, 16))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                lambda p: p[0] != p[1]
            ),
            unique_by=lambda p: tuple(sorted(p)),
            max_size=10,
        )
    )
    updates = [
        StreamUpdate(INSERT, u, v, float(draw(st.integers(1, wmax))))
        for u, v in pairs
    ]
    return StreamHeader(n, float(wmax), INSERT_ONLY), updates


@given(streams())
def test_round_trip_identity(stream):
    header, updates = stream
    parsed_header, parsed_updates = parse_stream(serialize(header, updates))
    assert parsed_header == header
    assert parsed_updates == updates


@given(streams(), st.randoms(use_true_random=False))
def test_replay_order_insensitive_for_inserts(stream, rng):
    header, updates = stream
    shuffled = list(updates)
    rng.shuffle(shuffled)
    assert replay(header, shuffled).edges == replay(header, updates).edges


def test_replay_refuses_a_delete_in_an_insert_only_stream_built_in_code():
    header = StreamHeader(2, 1.0, INSERT_ONLY)
    updates = [StreamUpdate(INSERT, 1, 2, 1.0), StreamUpdate(DELETE, 1, 2, 1.0)]
    with pytest.raises(StreamError, match=r"^delete in insert-only stream$") as info:
        replay(header, updates)
    assert info.value.exit_code == 2

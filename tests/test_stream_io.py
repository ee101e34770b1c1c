import gc
import io
import random
import tracemalloc
from itertools import accumulate, islice
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

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
from wmstream import stream_io
from wmstream.cli import main
from wmstream.generators import dynamify
from wmstream.stream_io import DELETE, DYNAMIC, INSERT, INSERT_ONLY

from helpers import checked_records_reference, python_calls, snapshot_stream


def test_parse_basic_insert_only():
    header, updates = parse_stream(
        "n 4 wmax 4 model insert-only\n+ 1 2 1\n+ 3 4 4\n"
    )
    assert header == StreamHeader(4, 4.0, INSERT_ONLY)
    assert list(updates) == [
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
        "  # c\n\t#+ 1 2 3\n \xa0\u3000\n"
    )
    assert list(updates) == [StreamUpdate(INSERT, 1, 2, 1.0)]


@pytest.mark.parametrize("comment", ["#", "#c", "  #!wmstream", "\t## n 2 wmax 1 model dynamic"])
def test_the_header_and_the_updates_skip_a_comment_by_its_first_field(comment):
    text = f"{comment}\n \xa0\nn 2 wmax 1 model insert-only\n{comment}\n+ 1 2 1\n"
    header, updates = parse_stream(text)
    assert (header, list(updates)) == (StreamHeader(2, 1.0, INSERT_ONLY), [(INSERT, 1, 2, 1.0)])


@pytest.mark.parametrize("line", ["+ 0 2 1", "+ 2 0 1", "+ -1 2 1", "+ 1 3 1", "- 3 1 1"])
def test_a_vertex_outside_1_to_n_is_a_line_error(line):
    with pytest.raises(ParseError) as info:
        parse_stream(f"n 2 wmax 1 model dynamic\n{line}\n")
    assert (info.value.line, str(info.value)) == (2, f"line 2: vertex out of range in {line!r}")


# every line splits into the same four fields: Unicode whitespace (tab, NBSP,
# ideographic space) pads the line or separates its fields
@pytest.mark.parametrize("sep, pad", [(" ", ""), ("\t", " "), ("\xa0", "\t"), ("\u3000", "\xa0 ")])
def test_update_fields_split_on_any_whitespace(sep, pad):
    text = "n 3 wmax 4 model dynamic\n" + "".join(
        f"{pad}{sep.join(fields)}{pad}\n" for fields in (
            ("+", "1", "2", "3"), ("+", "3", "2", "1.5"), ("-", "2", "1", "3")))
    assert list(parse_stream(text)[1]) == [
        StreamUpdate(INSERT, 1, 2, 3.0),
        StreamUpdate(INSERT, 3, 2, 1.5),
        StreamUpdate(DELETE, 2, 1, 3.0),
    ]


@pytest.mark.parametrize("pad", [" ", "\t", "\xa0", "\u3000"])
@pytest.mark.parametrize("line, message", [
    ("+ 1 1 2", "self-loop in '+ 1 1 2'"),
    ("+ 1 2 3 4", "bad update '+ 1 2 3 4'"),
    ("+ 1 2 x", "bad update fields in '+ 1 2 x'"),
])
def test_a_padded_line_is_quoted_stripped_with_its_line_number(pad, line, message):
    text = f"n 3 wmax 4 model insert-only\n\n{pad}# c\n+ 2 3 1\n{pad}{line}{pad}\n"
    with pytest.raises(ParseError) as info:
        parse_stream(text)
    assert (info.value.line, str(info.value)) == (5, f"line 5: {message}")


@pytest.mark.parametrize("weight, shown", [
    ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf"), ("NaN", "nan")])
def test_parse_refuses_a_weight_that_is_not_finite(weight, shown):
    with pytest.raises(ParseError) as info:
        parse_stream(f"n 2 wmax 2 model insert-only\n+ 1 2 1\n# c\n+ 2 1 {weight}\n")
    assert (info.value.line, str(info.value)) == (4, f"line 4: weight {shown} outside [1, 2.0]")


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


def _assert_multiset_error(header, updates, message):
    # the same message from the parsed text and from replay of the records
    for check in (lambda: parse_stream(serialize(header, updates)),
                  lambda: replay(header, updates)):
        with pytest.raises(StreamError) as info:
            check()
        assert str(info.value) == message
        assert info.value.exit_code == 2


def test_strict_rejects_duplicate_insert():
    _assert_multiset_error(
        StreamHeader(2, 1.0, INSERT_ONLY),
        [StreamUpdate(INSERT, 1, 2, 1.0), StreamUpdate(INSERT, 2, 1, 1.0)],
        "duplicate insert of edge (1, 2)")


def test_strict_rejects_delete_of_absent_edge():
    _assert_multiset_error(
        StreamHeader(3, 1.0, DYNAMIC),
        [StreamUpdate(INSERT, 2, 3, 1.0), StreamUpdate(DELETE, 2, 1, 1.0)],
        "delete of absent edge (1, 2)")


def test_strict_rejects_delete_weight_mismatch():
    _assert_multiset_error(
        StreamHeader(2, 4.0, DYNAMIC),
        [StreamUpdate(INSERT, 1, 2, 3.0), StreamUpdate(DELETE, 1, 2, 4.0)],
        "delete weight 4.0 != inserted weight 3.0 for edge (1, 2)")


@st.composite
def _streams_with_a_multiset_fault(draw):
    """(header, updates, message): an insert-only or churned stream with one
    duplicate insert, delete of an absent edge or delete at another weight
    injected at a drawn place, and the error that the fault raises. The
    prefix before it is valid, so the fault is the first error."""
    header, updates = draw(streams())
    churn = draw(st.sampled_from([0.0, 0.5, 1.0]))
    header, updates = dynamify(header, updates, churn, draw(st.integers(0, 99)))
    at = draw(st.integers(0, len(updates)))
    live = {(u, v): w for u, v, w in replay(header, updates[:at]).edges}
    u, v = draw(st.tuples(st.integers(1, header.n), st.integers(1, header.n))
                .filter(lambda p: p[0] != p[1]))
    pair = (min(u, v), max(u, v))
    fault = draw(st.sampled_from(["duplicate", "absent", "weight"]))
    w = live.get(pair, float(draw(st.integers(1, int(header.wmax)))))
    injected = [] if pair in live else [StreamUpdate(INSERT, v, u, w)]
    if fault == "duplicate":
        injected.append(StreamUpdate(INSERT, u, v, float(draw(st.integers(1, int(header.wmax))))))
        message = f"duplicate insert of edge {pair}"
    elif fault == "absent":
        injected += [StreamUpdate(DELETE, v, u, w), StreamUpdate(DELETE, u, v, w)]
        message = f"delete of absent edge {pair}"
    else:
        header = header._replace(wmax=max(header.wmax, 2.0))
        other = w % header.wmax + 1.0
        injected.append(StreamUpdate(DELETE, u, v, other))
        message = f"delete weight {other} != inserted weight {w} for edge {pair}"
    if fault != "duplicate":
        header = header._replace(model=DYNAMIC)
    return header, updates[:at] + injected + updates[at:], message


@given(_streams_with_a_multiset_fault())
def test_parse_and_replay_raise_one_multiset_error_text(case):
    header, updates, message = case
    _assert_multiset_error(header, updates, message)


def test_the_parse_makes_no_python_call_per_update_line():
    def churned(m):  # each edge inserted and then deleted, m lines
        return "n 20000 wmax 8 model dynamic\n" + "".join(
            f"+ {u} {u + 1} 2\n- {u + 1} {u} 2\n" for u in range(1, m // 2 + 1))
    small, large = (python_calls(parse_stream, churned(m)) for m in (2_000, 20_000))
    assert small == large


@pytest.mark.parametrize("model, lines, message", [
    (INSERT_ONLY, ["+ 1 2 3", "+ 3 2 1", "+ 4 1 2"], None),
    (DYNAMIC, ["+ 1 2 3", "- 2 1 3", "+ 1 2 2", "+ 3 4 1", "- 4 3 1"], None),
    (DYNAMIC, ["+ 1 2 3", "+ 3 4 1", "+ 2 1 3", "+ 1 4 1"], "duplicate insert of edge (1, 2)"),
    (DYNAMIC, ["+ 1 2 3", "- 2 1 3", "- 1 2 3", "+ 1 4 1"], "delete of absent edge (1, 2)"),
    (DYNAMIC, ["+ 1 2 3", "+ 3 4 1", "- 2 1 2", "+ 1 4 1"],
     "delete weight 2.0 != inserted weight 3.0 for edge (1, 2)"),
    (INSERT_ONLY, ["+ 1 2 3", "+ 3 4 1", "+ 2 1 3", "+ 1 4 1"], "duplicate insert of edge (1, 2)"),
])
def test_only_a_multiset_fault_has_the_parse_run_live_edges(model, lines, message):
    # the parse detects a fault and _live_edges words it: a valid stream is
    # never read a second time, and a faulty one once, whose words it raises
    text = f"n 4 wmax 4 model {model}\n" + "".join(f"{line}\n" for line in lines)
    raised = None
    with mock.patch.object(stream_io, "_live_edges", wraps=stream_io._live_edges) as spy:
        try:
            parse_stream(text)
        except StreamError as exc:
            raised = str(exc)
    assert (raised, spy.call_count) == (message, 0 if message is None else 1)


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
    assert list(parsed_updates) == updates


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


# --- block ingest from an open file -------------------------------------------

SEPARATORS = ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]


def _block_stream(blocks: int, tail: bytes) -> bytes:
    """A valid dynamic stream on vertices 1..38 that the reader takes in
    ``blocks`` pieces, followed by ``tail``. Its lines end in every separator
    that ``str.splitlines`` knows, with comments, blank lines and multi-byte
    UTF-8 between them. Each piece's ``_BLOCK``-byte read starts where the
    previous piece ended and stops inside a four-byte character; the last LF
    before that stop follows a two-byte character, and ``readline()`` ends
    the piece at the LF of the four-byte character's line. The pieces that
    ``stream_io._text_pieces`` yields are checked to end there."""
    rng = random.Random(5)
    size = stream_io._BLOCK
    out = bytearray("# wmstream ✓ 𝄞 é\u2028\nn 40 wmax 8 model dynamic\r\n".encode())
    live: dict[tuple[int, int], int] = {}

    def line() -> str:
        pick = rng.random()
        if pick < 0.05:
            return "# comment é ✓ 𝄞"
        if pick < 0.1:
            return "  "
        if live and pick < 0.4:
            (u, v), w = live.popitem()
            return f"- {v} {u} {w}"
        u, v = rng.sample(range(1, 39), 2)
        if (u, v) in live or (v, u) in live:
            return "# taken"
        live[u, v] = rng.randint(1, 8)
        return f"+ {u} {v} {live[u, v]}"

    ends: list[int] = []
    for _ in range(blocks):
        stop = (ends[-1] if ends else 0) + size  # where this piece's read stops
        while len(out) < stop - 200:
            out += (line() + rng.choice(SEPARATORS)).encode()
        out += ("#" + "x" * (stop - 6 - len(out)) + "é\n").encode()  # LF at stop - 3
        out += "#𝄞 across the read's stop\u2028\n".encode()
        assert out.index("𝄞".encode(), stop - 3) == stop - 1
        ends.append(len(out))
    data = bytes(out) + tail
    pieces = islice(stream_io._text_pieces(data), blocks)
    assert list(accumulate(len(piece.encode()) for piece in pieces)) == ends
    return data


def test_an_open_file_parses_as_its_bytes_and_its_text():
    # the last line is longer than a block and has no LF
    data = _block_stream(3, ("+ 39 40 3\r# " + "é" * stream_io._BLOCK + "\x0c- 40 39 3").encode())
    assert len(data) > 4 * stream_io._BLOCK
    header, updates = parse_stream(io.BufferedReader(io.BytesIO(data)))
    records = list(updates)
    for source in (data, data.decode("utf-8")):
        other_header, others = parse_stream(source)
        assert (other_header, list(others)) == (header, records)
    assert header == StreamHeader(40, 8.0, DYNAMIC)
    assert len(updates) == len(records) > 10_000
    assert records[-2:] == [(INSERT, 39, 40, 3.0), (DELETE, 40, 39, 3.0)]


def _parse_error(source):
    with pytest.raises((ParseError, StreamError)) as info:
        parse_stream(source)
    exc = info.value
    return type(exc), exc.exit_code, getattr(exc, "line", None), str(exc)


@pytest.mark.parametrize("bad,kind,message", [
    ("+ 1 2 x", ParseError, "bad update fields in '+ 1 2 x'"),
    ("+ 39 41 3", ParseError, "vertex out of range in '+ 39 41 3'"),
    ("+ 40 39 1\n+ 39 40 1", StreamError, "duplicate insert of edge (39, 40)"),
    ("- 40 39 1", StreamError, "delete of absent edge (39, 40)"),
    ("+ 40 39 1\n- 39 40 2", StreamError, "delete weight 2.0 != inserted weight 1.0 for edge (39, 40)"),
])
def test_errors_past_the_first_block_keep_their_class_exit_code_and_line(bad, kind, message):
    data = _block_stream(2, f"{bad}\n# after\n".encode())
    if kind is ParseError:
        line = len(data.decode("utf-8").splitlines()) - 1
        want = (kind, 2, line, f"line {line}: {message}")
    else:  # a multiset error carries no line number
        want = (kind, 2, None, message)
    assert _parse_error(io.BytesIO(data)) == _parse_error(data) == want
    assert _parse_error(data.decode("utf-8")) == want


@pytest.mark.parametrize("blocks", [0, 2])
@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82(", b"\xe2\x82"])
def test_a_non_utf8_byte_is_placed_in_the_whole_file(bad, blocks):
    data = _block_stream(blocks, b"# " + bad)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert whole.value.start > blocks * stream_io._BLOCK
    assert f"position {whole.value.start}" in str(whole.value)
    want = (ParseError, 2, None, f"stream is not UTF-8: {whole.value}")
    assert _parse_error(io.BytesIO(data)) == _parse_error(data) == want


def test_a_multiset_error_is_reported_before_a_line_error_on_a_later_line(tmp_path, capsys):
    # one order that one-pass checking changes: the duplicate on line 3 now
    # wins over the out-of-range vertex on line 4; both exit 2
    text = "n 3 wmax 4 model insert-only\n+ 1 2 3\n+ 2 1 3\n+ 1 9 3\n"
    assert _parse_error(text) == (StreamError, 2, None, "duplicate insert of edge (1, 2)")
    path = tmp_path / "two-errors.stream"
    path.write_text(text)
    assert main(["estimate", "--stream", str(path), "--epsilon", "0.5"]) == 2
    assert capsys.readouterr().err == "wmstream: duplicate insert of edge (1, 2)\n"


@pytest.mark.parametrize("bad,kind,message", [
    ("+ 1 2 x", ParseError, "bad update fields in '+ 1 2 x'"),
    ("- 1 2 3", StreamError, "delete of absent edge (1, 2)"),
])
def test_an_error_in_the_first_block_is_reported_before_a_non_utf8_byte_in_the_third(
        bad, kind, message, tmp_path, capsys):
    # the other order that block reading changes: the whole input is no
    # longer decoded before its first line is read
    head = "# wmstream ✓ 𝄞 é\u2028\nn 40 wmax 8 model dynamic\r\n"
    data = _block_stream(2, b"# \xff\n").replace(head.encode(), f"{head}{bad}\n".encode(), 1)
    assert data.index(b"\xff") > 2 * stream_io._BLOCK
    if kind is ParseError:
        line = len(head.splitlines()) + 1
        want = (kind, 2, line, f"line {line}: {message}")
    else:
        want = (kind, 2, None, message)
    assert _parse_error(io.BytesIO(data)) == _parse_error(data) == want
    path = tmp_path / "bad-late.stream"
    path.write_bytes(data)
    assert main(["estimate", "--stream", str(path), "--epsilon", "0.5"]) == 2
    assert capsys.readouterr().err == f"wmstream: {want[3]}\n"


# --- an insert-only stream's repeats, found after the pass ----------------------
# The parse finds a repeated pair of an insert-only stream by sorting the
# packed pairs once the lines are read; these pin that the error and its
# order are as if each line were checked as it came.

@pytest.mark.parametrize("later, kind", [
    ("+ 1 9 3", "vertex out of range"), ("+ 1 2 x", "bad update fields"),
    ("- 1 3 3", "delete in insert-only stream"), ("+ 3 3 1", "self-loop"),
    ("+ 1 3 9", "weight 9.0 outside"), ("bogus", "bad update")])
def test_an_insert_only_repeat_comes_before_a_line_error_on_a_later_line(later, kind):
    text = f"n 3 wmax 4 model insert-only\n+ 1 2 3\n+ 1 3 3\n+ 2 1 3\n{later}\n"
    assert kind in _parse_error(text.replace("+ 2 1 3\n", ""))[3]  # alone, a line error
    want = (StreamError, 2, None, "duplicate insert of edge (1, 2)")
    assert _outcomes(text.encode(), text) == [want] * 3


def test_an_insert_only_line_error_comes_before_a_repeat_on_a_later_line():
    text = "n 3 wmax 4 model insert-only\n+ 1 2 3\n# c\n+ 1 9 3\n+ 2 1 3\n"
    want = (ParseError, 2, 4, "line 4: vertex out of range in '+ 1 9 3'")
    assert _outcomes(text.encode(), text) == [want] * 3


@pytest.mark.parametrize("n, lines, pair", [
    # the first repeat in stream order is of the pair with the larger key
    (5, ["+ 3 4 1", "+ 1 2 1", "+ 4 3 1", "+ 2 1 1"], (3, 4)),
    # the first repeated line, not the pair first inserted
    (5, ["+ 1 2 1", "+ 3 4 1", "+ 4 3 1", "+ 2 1 1"], (3, 4)),
    # a pair's third insert is not its first repeat
    (5, ["+ 4 5 1", "+ 1 2 1", "+ 2 1 1", "+ 5 4 1", "+ 1 2 1"], (1, 2)),
    # packed keys past 2**64
    (2**64, [f"+ {2**64} 1 1", f"+ 3 {2**64 - 1} 1", "+ 2 1 1", f"+ {2**64 - 1} 3 1",
             f"+ 1 {2**64} 1"], (3, 2**64 - 1)),
])
def test_of_two_insert_only_repeats_the_first_in_stream_order_is_reported(n, lines, pair):
    text = f"n {n} wmax 4 model insert-only\n" + "".join(f"{line}\n" for line in lines)
    want = (StreamError, 2, None, f"duplicate insert of edge {pair}")
    assert _outcomes(text.encode(), text) == [want] * 3


def _insert_only_blocks(head: str, blocks: int, tail: bytes) -> bytes:
    """An insert-only stream on vertices 1..400: ``head``, then distinct
    inserts on 3..400 until ``blocks`` reads of ``_BLOCK`` bytes are passed,
    then ``tail``."""
    rng = random.Random(7)
    pairs = iter(rng.sample([(u, v) for u in range(3, 401) for v in range(u + 1, 401)], 20_000))
    out = bytearray(f"n 400 wmax 8 model insert-only\n{head}".encode())
    while len(out) <= blocks * stream_io._BLOCK:
        u, v = next(pairs)
        out += f"+ {v} {u} {rng.randint(1, 8)}\n".encode()
    return bytes(out) + tail


@pytest.mark.parametrize("head, kind, message", [
    ("+ 1 2 3\n+ 3 1 3\n+ 2 1 3\n", StreamError, "duplicate insert of edge (1, 2)"),
    ("+ 1 2 3\n+ 1 2 x\n", ParseError, "line 3: bad update fields in '+ 1 2 x'"),
])
def test_an_insert_only_error_in_the_first_block_comes_before_a_non_utf8_byte_in_the_third(
        head, kind, message, tmp_path, capsys):
    data = _insert_only_blocks(head, 2, b"# \xff\n")
    assert data.index(b"\xff") > 2 * stream_io._BLOCK
    want = (kind, 2, 3 if kind is ParseError else None, message)
    assert _parse_error(io.BytesIO(data)) == _parse_error(data) == want
    path = tmp_path / "bad-late.stream"
    path.write_bytes(data)
    assert main(["estimate", "--stream", str(path), "--epsilon", "0.5"]) == 2
    assert capsys.readouterr().err == f"wmstream: {message}\n"


def _uniform_pairs(ids, count):
    """``count`` distinct pairs of ``ids``, drawn with a fixed seed."""
    return random.Random(5).sample([(u, v) for u in ids for v in ids if u < v], count)


@pytest.mark.parametrize("n, pairs", [
    # 20,000 distinct pairs over the ids 1001..2000
    (2000, lambda: _uniform_pairs(range(1001, 2001), 20_000)),
    # a star on vertex 1: every smaller endpoint is 1, so bucketing by the
    # keys' high bits puts them all in one bucket
    (20_001, lambda: [(1, v) for v in range(2, 20_002)]),
    # a star on vertex n = 2**16 - 1: every key is u * 2**16 + n, so
    # bucketing by the keys' low bits puts them all in one bucket
    (2**16 - 1, lambda: [(u, 2**16 - 1) for u in range(1, 20_001)]),
    # n declared far above the ids used: the keys' high bits are all 0
    (10**6, lambda: _uniform_pairs(range(1, 1001), 20_000)),
], ids=["uniform", "star-on-1", "star-on-n", "n-over-declared"])
def test_an_insert_only_parse_holds_its_pairs_in_typed_buckets(n, pairs):
    # the parse's transient, (peak - held) per update, on bytes, so that the
    # block reader holds one block of lines: 22-29 B per update with the
    # pairs' packed keys spread over 251 arrays sorted one at a time after
    # the pass, 42-51 B with them all in one of them, 54 B with them in one
    # list sorted whole, 76 B with them in a dict filled during the pass
    data = (f"n {n} wmax 8 model insert-only\n" + "".join(
        f"+ {u} {v} 2\n" for u, v in pairs())).encode()
    tracemalloc.start()
    try:
        _, updates = parse_stream(data)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(updates) == 20_000
    assert (peak - held) / len(updates) < 35


@pytest.mark.parametrize("n, lines, pair", [
    # keys 1210 and 1461 share bucket 206: the repeat is found only once
    # the bucket is sorted
    (400, ["+ 3 7 1", "+ 3 258 1", "+ 7 3 1"], (3, 7)),
    # key 502 is in the first of the 251 buckets, key 501 in the last
    (400, ["+ 1 101 1", "+ 2 5 1", "+ 101 1 1"], (1, 101)),
    (400, ["+ 1 100 1", "+ 2 5 1", "+ 100 1 1"], (1, 100)),
])
def test_an_insert_only_repeat_is_found_in_any_bucket(n, lines, pair):
    text = f"n {n} wmax 4 model insert-only\n" + "".join(f"{line}\n" for line in lines)
    want = (StreamError, 2, None, f"duplicate insert of edge {pair}")
    assert _outcomes(text.encode(), text) == [want] * 3


# --- typed columns: each id column takes the smallest unsigned typecode that
# holds n, and a list past 2**64 - 1 ----------------------------------------------

@pytest.mark.parametrize("n", [
    2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70])
@pytest.mark.parametrize("model", [INSERT_ONLY, DYNAMIC])
def test_ids_at_the_edge_of_a_typecode_round_trip_through_replay(n, model):
    lines = [f"+ {n} {n - 1} 2", f"+ 1 {n} 3.5", f"+ {n - 1} 1 1"]
    if model == DYNAMIC:
        lines += [f"- {n - 1} {n} 2", f"+ {n - 1} {n} 4"]
    text = f"n {n} wmax 4 model {model}\n" + "".join(f"{line}\n" for line in lines)
    header, updates = parse_stream(text)
    assert serialize(header, updates) == text
    assert len(updates) == len(lines)
    assert replay(header, updates).edges == (
        (1, n - 1, 1.0), (1, n, 3.5), (n - 1, n, 4.0 if model == DYNAMIC else 2.0))


def test_the_columns_have_a_length_and_iterate_as_records():
    text = "n 300 wmax 4 model dynamic\n+ 1 300 2\n+ 299 2 1.5\n- 300 1 2\n"
    _, updates = parse_stream(text)
    records = [StreamUpdate(INSERT, 1, 300, 2.0), StreamUpdate(INSERT, 299, 2, 1.5),
               StreamUpdate(DELETE, 300, 1, 2.0)]
    assert len(updates) == 3
    assert list(updates) == list(updates) == records
    assert all(type(record) is StreamUpdate for record in updates)
    _, inserts = parse_stream("n 3 wmax 4 model insert-only\n+ 3 1 2\n")
    assert len(inserts) == 1 and list(inserts) == [(INSERT, 3, 1, 2.0)]


# Each test below reads with 16-byte blocks. The 29-byte header fills the
# first block and the start of the second, so the first piece is the header
# and the second piece's block starts at byte 29.
HEADER_29 = b"n 9 wmax 8 model insert-only\n"


def _outcomes(data: bytes, text: str) -> list:
    """``parse_stream``'s result, or its error's class, exit code, line and
    message, on ``data`` as bytes, through a BufferedReader, and as ``text``."""
    def outcome(source):
        try:
            header, updates = parse_stream(source)
            return header, list(updates)
        except (ParseError, StreamError) as exc:
            return type(exc), exc.exit_code, getattr(exc, "line", None), str(exc)
    return [outcome(data), outcome(io.BufferedReader(io.BytesIO(data))), outcome(text)]


def test_a_block_that_ends_at_a_lf_is_read_on_to_the_end_of_the_next_line(monkeypatch):
    monkeypatch.setattr(stream_io, "_BLOCK", 16)
    data = HEADER_29 + b"+ 1 2 3\n+ 3 4 5\n" + b"+ 5 6 7\n" + b"+ 7 8 8\n"
    assert data[29 + 15:29 + 16] == b"\n"
    assert list(stream_io._text_pieces(data)) == [
        HEADER_29.decode(), "+ 1 2 3\n+ 3 4 5\n+ 5 6 7\n", "+ 7 8 8\n"]
    want = (StreamHeader(9, 8.0, INSERT_ONLY),
            [(INSERT, u, u + 1, float(w)) for u, w in ((1, 3), (3, 5), (5, 7), (7, 8))])
    assert _outcomes(data, data.decode()) == [want] * 3
    bad = data.replace(b"+ 7 8 8", b"+ 7 8 x")
    assert _outcomes(bad, bad.decode()) == [
        (ParseError, 2, 5, "line 5: bad update fields in '+ 7 8 x'")] * 3


# The third piece's block ends inside "# abcdef\xff gh", and readline
# brings in the bad byte, at 29 + 24 + 16 = 69.
LATE_BAD_BYTE = HEADER_29 + b"+ 1 2 3\n+ 3 4 5\n+ 5 6 7\n" + b"+ 7 8 8\n# abcdef\xff gh\n"


def test_a_non_utf8_byte_in_a_line_finished_past_its_block_is_placed_in_the_whole_file(
        monkeypatch):
    monkeypatch.setattr(stream_io, "_BLOCK", 16)
    data = LATE_BAD_BYTE
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert "byte 0xff in position 69: invalid start byte" in str(whole.value)
    want = (ParseError, 2, None, f"stream is not UTF-8: {whole.value}")
    from_bytes, from_file, from_text = _outcomes(data, data.decode("utf-8", "surrogateescape"))
    assert from_bytes == from_file == want
    assert len(from_text[1]) == 4  # in the str the byte is a surrogate escape in a comment


def test_a_line_error_in_an_earlier_block_comes_before_a_bad_byte_finished_past_a_later_one(
        monkeypatch):
    monkeypatch.setattr(stream_io, "_BLOCK", 16)
    data = LATE_BAD_BYTE.replace(b"+ 1 2 3", b"+ 1 2 x")
    assert data.index(b"\xff") == 69
    want = (ParseError, 2, 2, "line 2: bad update fields in '+ 1 2 x'")
    assert _outcomes(data, data.decode("utf-8", "surrogateescape")) == [want] * 3


def test_a_crlf_split_by_a_block_end_is_one_line_end(monkeypatch):
    # "\r\n" ends one line; were the "\r" and the "\n" in two pieces,
    # they would end two lines, and the bad line would be line 5
    monkeypatch.setattr(stream_io, "_BLOCK", 16)
    data = HEADER_29 + b"+ 1 2 3\n+ 3 4 5\r\n" + b"+ 5 6 x\n"
    assert data[29 + 15:29 + 17] == b"\r\n"
    assert list(stream_io._text_pieces(data))[1] == "+ 1 2 3\n+ 3 4 5\r\n"
    assert _outcomes(data, data.decode()) == [
        (ParseError, 2, 4, "line 4: bad update fields in '+ 5 6 x'")] * 3


def test_parsing_an_open_file_holds_little_beyond_its_records(tmp_path):
    # a churned stream that drains to a few live edges: the records are all
    # that grows with its length. Reading the whole file, its text and its
    # line list at once would add about 5 MiB here on top of them.
    rng = random.Random(3)
    pairs = [(u, v) for u in range(1, 301) for v in range(u + 1, 301)]
    rng.shuffle(pairs)
    lines = ["n 300 wmax 1024 model dynamic"]
    for i, (u, v) in enumerate(pairs[:30_000]):
        lines.append(f"+ {u} {v} {(u * v) % 1024 + 1}")
        if i >= 50:
            a, b = pairs[i - 50]
            lines.append(f"- {b} {a} {(a * b) % 1024 + 1}")
    path = tmp_path / "churn.stream"
    path.write_text("\n".join(lines) + "\n")
    del lines, pairs
    with open(path, "rb") as fh:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            header, updates = parse_stream(fh)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(updates) == 59_950
    assert len(replay(header, updates).edges) == 50
    assert peak - held < 2**20


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_stream_leaves_the_collector_as_it_found_it(enabled):
    text = "n 100 wmax 4 model insert-only\n" + "".join(
        f"+ {u} {v} 2\n" for u in range(1, 101) for v in range(u + 1, 101))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert len(parse_stream(text)[1]) == 4950
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError):
            parse_stream(text + "+ 1 2 x\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# --- the one-loop parse against the reference loop, and what it holds -------

def _parsed(text, checker=stream_io._checked_records):
    """``parse_stream``'s records of ``text``, or its error's class, line and
    message, with ``checker`` as its loop over the update lines."""
    with mock.patch.object(stream_io, "_checked_records", checker):
        try:
            return list(parse_stream(text)[1])
        except (ParseError, StreamError) as exc:
            return type(exc), getattr(exc, "line", None), str(exc)


# several spellings of a few ids of 400, ids past n or below 1, malformed ones
ID_TOKENS = ["3", "03", "+3", "7", "07", "+7", "10", "1_0", "300", "0300", "+300", "3_00",
             "301", "399", "400", "0", "401", "-1", "999", "x", "1.5", "7_", "0x1"]
WEIGHT_TOKENS = ["1", "2", "2.0", "8", "9", "0.5", "x", "nan"]


@st.composite
def _id_streams(draw):
    model = draw(st.sampled_from([INSERT_ONLY, DYNAMIC]))
    line = st.one_of(
        st.tuples(st.sampled_from("++++-"), st.sampled_from(ID_TOKENS),
                  st.sampled_from(ID_TOKENS), st.sampled_from(WEIGHT_TOKENS)).map(" ".join),
        st.sampled_from(["", "# 3 4 2", "+ 3 4", "* 3 4 2"]))
    return f"n 400 wmax 8 model {model}\n" + "".join(
        f"{text}\n" for text in draw(st.lists(line, max_size=30)))


@given(_id_streams())
@example("n 400 wmax 8 model dynamic\n+ 300 301 2\n+ 300 301 x\n")  # bad weight, known ids
@example("n 400 wmax 8 model insert-only\n+ 300 301 2\n- 300 999 2\n")  # delete before range
@example("n 400 wmax 8 model dynamic\n+ 3 4 2\n+ 3 03 2\n")  # a self-loop spelled two ways
@example("n 400 wmax 8 model dynamic\n+ 300 4 2\n+ 0300 300 2\n")
@example("n 400 wmax 8 model dynamic\n+ 7 300 2\n- 07 +300 2\n+ 1_0 3_00 2\n")
def test_shared_ids_parse_as_the_reference_checker(text):
    assert _parsed(text) == _parsed(text, checked_records_reference)


def _held_per_update(text, checker=stream_io._checked_records):
    """Traced bytes that the parse of ``text`` leaves held, per record."""
    with mock.patch.object(stream_io, "_checked_records", checker):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, updates = parse_stream(text)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    return held / len(updates)


def test_an_insert_only_parse_holds_at_most_24_bytes_per_update():
    # 20,000 distinct pairs over the ids 1001..2000, past CPython's cached
    # small ints: two ids in the smallest array that holds n and a weight in
    # an array of doubles. A StreamUpdate per update, with two ints of its
    # own, would hold about 167 B per update
    text = "n 2000 wmax 8 model insert-only\n" + "".join(
        f"+ {u} {v} 2\n" for u, v in _uniform_pairs(range(1001, 2001), 20_000))
    assert _held_per_update(text) <= 24
    assert _held_per_update(text, checked_records_reference) > 160


def test_a_dynamic_parse_holds_at_most_24_bytes_per_update():
    # one more byte per update for the op; one StreamUpdate per update,
    # each delete sharing its insert's float, held 102 B here
    rng = random.Random(5)
    pairs = rng.sample([(u, v) for u in range(1001, 2001) for v in range(u + 1, 2001)], 10_050)
    lines = ["n 2000 wmax 8 model dynamic"]
    for i, (u, v) in enumerate(pairs):
        lines.append(f"+ {u} {v} {u % 7 + 1.5}")
        if i >= 100:  # the oldest of the 100 live pairs goes, its ids swapped
            a, b = pairs[i - 100]
            lines.append(f"- {b} {a} {a % 7 + 1.5}")
    assert len(lines) == 20_001
    assert _held_per_update("\n".join(lines) + "\n") <= 24


def test_ids_that_each_occur_once_hold_no_more_than_the_reference():
    # a perfect matching: no id repeats
    text = "n 20000 wmax 8 model insert-only\n" + "".join(
        f"+ {u} {u + 1} 2\n" for u in range(1, 20_000, 2))
    assert _held_per_update(text) <= _held_per_update(text, checked_records_reference) + 1


def test_a_parse_error_frees_the_records_before_the_collector_resumes():
    text = "n 100 wmax 4 model insert-only\n" + "".join(
        f"+ {u} {v} 2\n" for u in range(1, 101) for v in range(u + 1, 101)) + "+ 1 2 x\n"
    young = []  # for each collection started, the objects of generation 0 it walks
    counted = lambda phase, info: phase == "start" and young.append(len(gc.get_objects(0)))  # noqa: E731
    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(counted)
    try:
        with pytest.raises(ParseError):
            parse_stream(text)
        gc.collect(0)  # the records, were they still held, would all be in generation 0
    finally:
        gc.callbacks.remove(counted)
        (gc.enable if was else gc.disable)()
    assert young and all(size < 4950 for size in young)

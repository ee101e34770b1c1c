"""Edge-stream data model and the bit-exact text format.

Format (UTF-8, LF):
    line 1: ``n <int> wmax <decimal> model <insert-only|dynamic>``
    then:   ``+ <u> <v> <w>`` or ``- <u> <v> <w>``
``#``-prefixed lines and blank lines are ignored.
"""

from __future__ import annotations

import io
from array import array
from itertools import chain, islice, repeat
from operator import eq
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .errors import ParseError, StreamError
from .schedule import weight_refusal, wmax_refusal

INSERT_ONLY = "insert-only"
DYNAMIC = "dynamic"

INSERT = "insert"
DELETE = "delete"

_OP_CHARS = {"+": INSERT, "-": DELETE}
_OP_TO_CHAR = {op: char for char, op in _OP_CHARS.items()}
# A dynamic stream's op column holds 1 for an insert and 0 for a delete. A
# list, since list.__getitem__ is a faster call than a tuple's.
_OPS = [DELETE, INSERT]

_BLOCK = 1 << 16  # bytes read at a time from an open file


class StreamHeader(NamedTuple):
    n: int
    wmax: float
    model: str


class StreamUpdate(NamedTuple):
    """One update line as a plain ``(op, u, v, w)`` tuple."""

    op: str
    u: int
    v: int
    w: float


class UpdateColumns:
    """A parsed stream's updates held as typed columns: ``u`` and ``v`` in
    the smallest unsigned ``array`` that holds ``n``, or a list past
    2**64 - 1; ``w`` in an ``array("d")``; and the op as ``repeat(INSERT)``
    on an insert-only stream, or as a ``bytearray`` of ``_OPS`` codes on a
    dynamic one. It has a length and can be iterated any number of times,
    each pass building a ``StreamUpdate`` per update from ``_plain_updates``'
    tuple as it is reached; that is its whole interface to library callers
    and the benchmark. ``run`` and ``replay`` build no records: they read
    the columns through ``_plain_updates``."""

    __slots__ = ("_op", "_u", "_v", "_w")

    def __init__(self, n: int, insert_only: bool):
        self._op = repeat(INSERT) if insert_only else bytearray()
        self._u, self._v, self._w = _column(n), _column(n), array("d")

    def __len__(self) -> int:
        return len(self._w)

    def __iter__(self) -> Iterator[StreamUpdate]:
        return map(tuple.__new__, repeat(StreamUpdate), _plain_updates(self))


def _plain_updates(updates: Iterable[StreamUpdate]) -> Iterator[tuple]:
    """``updates`` as plain ``(op, u, v, w)`` tuples, the one home of the op
    decoding: an ``UpdateColumns``' columns zipped, a dynamic stream's op
    codes mapped through ``_OPS``, or any other iterable as it is. A pass
    that builds a ``StreamUpdate`` per update takes about twice as long as
    one over these tuples, so ``run`` and ``_live_edges`` read through this.
    Private, so that the benchmark's tracer adds no span per run."""
    if not isinstance(updates, UpdateColumns):
        return iter(updates)
    ops = updates._op
    if isinstance(ops, bytearray):
        ops = map(_OPS.__getitem__, ops)
    return zip(ops, updates._u, updates._v, updates._w)


def _column(top: int) -> array | list:
    """An empty column for ints in 0..top: an ``array`` of the smallest
    unsigned typecode that holds ``top``, or a list past 2**64 - 1."""
    for code in "BHIQ":
        if top < 1 << 8 * array(code).itemsize:
            return array(code)
    return []


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def decode_text(text: str | bytes, what: str, offset: int = 0) -> str:
    """``text`` as a str; bytes must be UTF-8, or a ParseError names ``what``
    and the bad bytes' position, counted from ``offset`` for a piece that
    starts there in a larger text. The message is the codec's own."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        first, last = offset + exc.start, offset + exc.end - 1
        where = (f"byte 0x{text[exc.start]:02x} in position {first}" if first == last
                 else f"bytes in position {first}-{last}")
        raise ParseError(
            f"{what} is not UTF-8: '{exc.encoding}' codec can't decode {where}: {exc.reason}"
        ) from None


def parse_stream(source: str | bytes | BinaryIO) -> tuple[StreamHeader, UpdateColumns]:
    """Parse a stream into (header, updates) in one pass. ``source`` is the
    text, its UTF-8 bytes, or an open binary file, which is read in blocks of
    ``_BLOCK`` bytes so that only one block's lines are held beside the
    updates. The updates are ``UpdateColumns``: a length, and records built
    as they are iterated, as often as asked. ``_checked_records`` checks each
    update line against the header and then against the multiset rules, so
    a multiset error on an earlier line is reported before a line error on
    a later one. On both models the parse detects a multiset fault and
    ``_live_edges`` words it. An insert-only repeat check runs after the
    pass, so a ParseError from the pass first has ``_live_edges`` look for
    a repeat in the updates parsed so far. Each block is decoded just
    before its lines are read, so a line or multiset error in an earlier
    block is reported before a non-UTF-8 byte in a later one."""
    lines = enumerate(chain.from_iterable(map(str.splitlines, _text_pieces(source))), 1)
    for lineno, raw in lines:  # blank and comment lines as in _checked_records
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            header = _parse_header(parts, raw, lineno)
            break
    else:
        raise ParseError("missing header line")
    records = UpdateColumns(header.n, header.model == INSERT_ONLY)
    try:
        return header, _checked_records(header, lines, records)
    except ParseError:
        if header.model == INSERT_ONLY:  # a repeat on an earlier line wins
            _live_edges(header, records)
        raise


def _text_pieces(source: str | bytes | BinaryIO) -> Iterator[str]:
    """The text of ``source`` in pieces of ``_BLOCK`` bytes read on to a LF,
    or to the end. A LF ends a line under ``str.splitlines`` and is never
    part of a multi-byte UTF-8 sequence, so the pieces decode and split into
    the same lines as the whole text."""
    if isinstance(source, str):
        yield source
        return
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    offset = 0
    while piece := source.read(_BLOCK):
        piece += source.readline()
        yield decode_text(piece, "stream", offset)
        offset += len(piece)


def _checked_records(
    header: StreamHeader, lines: Iterator[tuple[int, str]], records: UpdateColumns
) -> UpdateColumns:
    """``records`` with the update lines of ``lines`` appended to its
    columns, in one loop: each line meets the header's rules, then the
    multiset rules, and then its fields are appended. A line is split once
    (``str.split`` and ``str.strip`` know the same whitespace) and stripped
    only to quote it in an error; only a line that is not four fields led by
    an op is tested for blank or comment. ``1.0 <= w <= wmax`` needs no
    ``isfinite``: the header makes wmax finite, and nan fails every
    comparison. Every value appended has passed its checks, so it fits its
    column.

    The multiset rules are ``_live_edges``', on pairs that the line rules
    have already bounded to 1..n and u != v, keyed by the same packed
    ``u*(n+1)+v``. The loop only detects a fault; ``_live_edges``, run over
    the records, words it, with no line number. A dynamic stream meets the
    rules inline in ``present``, where a delete finds its insert's weight;
    a faulty line is appended before ``_live_edges`` runs, and every
    earlier line passed, so it raises this line's fault. An insert-only
    stream's one rule is that no pair repeats: its keys go to 251 buckets
    by ``key % 251``, each a column as ``_column`` makes them, so equal
    keys share a bucket. After the pass each bucket is sorted on its own,
    small enough to stay in cache, and scanned for two equal neighbours;
    only on a repeat does ``_live_edges`` run over the records, to raise
    the first in stream order. A prime count spreads the keys whenever
    either endpoint varies, unless n+1 is a multiple of 251 and the larger
    endpoint is fixed; by the low bits, a star on vertex n would fill one
    bucket whenever n+1 is a power of two. Keys that do share one bucket
    cost one sort of them all."""
    n, wmax, insert_only = header.n, header.wmax, header.model == INSERT_ONLY
    size = n + 1
    present: dict[int, float] = {}
    popped = present.pop
    fault = False
    buckets = [_column(n * size) for _ in range(251 if insert_only else 0)]
    into = [bucket.append for bucket in buckets]
    put_u, put_v, put_w = records._u.append, records._v.append, records._w.append
    mark = None if insert_only else records._op.append
    for lineno, raw in lines:
        parts = raw.split()
        if len(parts) != 4 or (op := _OP_CHARS.get(parts[0])) is None:
            if not parts or parts[0].startswith("#"):
                continue
            raise ParseError(f"bad update {raw.strip()!r}", lineno)
        _, a, b, weight = parts
        try:
            u, v, w = int(a), int(b), float(weight)
        except ValueError:
            raise ParseError(f"bad update fields in {raw.strip()!r}", lineno) from None
        if op == DELETE and insert_only:
            raise ParseError("delete in insert-only stream", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range in {raw.strip()!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop in {raw.strip()!r}", lineno)
        if not 1.0 <= w <= wmax:
            raise ParseError(weight_refusal(w, wmax), lineno)
        key = u * size + v if u < v else v * size + u
        if insert_only:
            into[key % 251](key)
        elif op == INSERT:
            fault = key in present
            present[key] = w
            mark(1)
        else:
            fault = popped(key, None) != w
            mark(0)
        put_u(u)
        put_v(v)
        put_w(w)
        if fault:  # every earlier line passed, so this raises this line's fault
            _live_edges(header, records)
    for keys in map(sorted, buckets):
        if any(map(eq, keys, islice(keys, 1, None))):
            _live_edges(header, records)
    return records


def _parse_header(parts: list[str], raw: str, lineno: int) -> StreamHeader:
    """The header from the fields of its line ``raw``."""
    if len(parts) != 6 or parts[0] != "n" or parts[2] != "wmax" or parts[4] != "model":
        raise ParseError(f"bad header {raw.strip()!r}", lineno)
    try:
        n = int(parts[1])
        wmax = float(parts[3])
    except ValueError:
        raise ParseError(f"bad header numbers in {raw.strip()!r}", lineno) from None
    model = parts[5]
    if model not in (INSERT_ONLY, DYNAMIC):
        raise ParseError(f"unknown model {model!r}", lineno)
    if refusal := n_refusal(n) or wmax_refusal(wmax):
        raise ParseError(refusal, lineno)
    return StreamHeader(n, wmax, model)


def n_refusal(n: int) -> str | None:
    """The words refusing ``n``, or None for an int >= 1: the one home of the n rule."""
    return None if isinstance(n, int) and n >= 1 else f"n must be >= 1, got {n!r}"


def replay(header: StreamHeader, updates: Iterable[StreamUpdate]) -> tuple[tuple, ...]:
    """Replay updates to the final graph, its edges as sorted ``(u, v, w)``
    with u < v, enforcing strict multiset rules and refusing a self-loop or a
    vertex outside 1..n, which only updates built in code can hold."""
    size, live = header.n + 1, _live_edges(header, updates)
    return tuple(sorted((*divmod(key, size), w) for key, w in live.items()))


def edge_refusal(u: int, v: int, n: int) -> str:
    """The words refusing edge (u, v), smaller id first, for ``_live_edges`` and ``update``."""
    return f"edge ({min(u, v)}, {max(u, v)}) is a self-loop or has a vertex outside 1..{n}"


def _live_edges(header: StreamHeader, updates: Iterable[StreamUpdate]) -> dict:
    """Live edges after the updates, keyed by ``u*(n+1)+v`` with u < v and
    mapped to the weight; strict multiset rules for updates built in code,
    which ``replay`` gets, and the one home of their words. A parse that
    detects a multiset fault, or an insert-only parse that fails on a
    line, runs this over the columns it built, so the fault, or the first
    repeat in stream order, is raised in these words.
    ``updates`` is consumed once, in order, as ``_plain_updates`` yields
    it, so parsed columns build no records here. Each update's pair is
    checked before it is packed, so that no bad id can alias another
    pair."""
    n = header.n
    size = n + 1
    present: dict[int, float] = {}
    for op, u, v, w in _plain_updates(updates):
        if u > v:
            u, v = v, u
        if u == v or u < 1 or v > n:
            raise StreamError(edge_refusal(u, v, n))
        key = u * size + v
        if op == INSERT:
            if key in present:
                raise StreamError(f"duplicate insert of edge {(u, v)}")
            present[key] = w
        elif op != DELETE:
            raise StreamError(f"unknown op {op!r}")
        else:
            if header.model == INSERT_ONLY:
                raise StreamError("delete in insert-only stream")
            inserted = present.pop(key, None)
            if inserted is None:
                raise StreamError(f"delete of absent edge {(u, v)}")
            if inserted != w:
                raise StreamError(
                    f"delete weight {w} != inserted weight {inserted} "
                    f"for edge {(u, v)}"
                )
    return present


def serialize(header: StreamHeader, updates: Iterable[StreamUpdate]) -> str:
    lines = [f"n {header.n} wmax {_fmt(header.wmax)} model {header.model}"]
    for op, u, v, w in updates:
        lines.append(f"{_OP_TO_CHAR[op]} {u} {v} {_fmt(w)}")
    return "\n".join(lines) + "\n"

"""Edge-stream data model and the bit-exact text format.

Format (UTF-8, LF):
    line 1: ``n <int> wmax <decimal> model <insert-only|dynamic>``
    then:   ``+ <u> <v> <w>`` or ``- <u> <v> <w>``
``#``-prefixed lines and blank lines are ignored.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError, StreamError

INSERT_ONLY = "insert-only"
DYNAMIC = "dynamic"

INSERT = "insert"
DELETE = "delete"

_OP_CHARS = {"+": INSERT, "-": DELETE}
_OP_TO_CHAR = {op: char for char, op in _OP_CHARS.items()}


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


class GraphSnapshot(NamedTuple):
    """A materialized simple graph: edges are (u, v, w) with u < v."""

    n: int
    edges: tuple[tuple[int, int, float], ...]


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def decode_text(text: str | bytes, what: str) -> str:
    """``text`` as a str; bytes must be UTF-8, or a ParseError names ``what``."""
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not UTF-8: {exc}") from None
    return text


def parse_stream(text: str | bytes):
    """Parse a stream file into (header, updates), checking each update line
    against the header as it is read, then the multiset rules: no duplicate
    inserts, deletes of absent edges, or deletes whose weight differs from
    the matching insert."""
    text = decode_text(text, "stream")
    header = None
    updates: list[StreamUpdate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = _parse_header(line, lineno)
            n, wmax, insert_only = header.n, header.wmax, header.model == INSERT_ONLY
            continue
        parts = line.split()
        if len(parts) != 4 or (op := _OP_CHARS.get(parts[0])) is None:
            raise ParseError(f"bad update {line!r}", lineno)
        try:
            u, v, w = int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError:
            raise ParseError(f"bad update fields in {line!r}", lineno) from None
        if op == DELETE and insert_only:
            raise ParseError("delete in insert-only stream", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range in {line!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop in {line!r}", lineno)
        if not (math.isfinite(w) and 1.0 <= w <= wmax):
            raise ParseError(f"weight {w} outside [1, {wmax}]", lineno)
        updates.append(StreamUpdate(op, u, v, w))

    if header is None:
        raise ParseError("missing header line")
    _live_edges(header, updates)
    return header, updates


def _parse_header(line: str, lineno: int) -> StreamHeader:
    parts = line.split()
    if len(parts) != 6 or parts[0] != "n" or parts[2] != "wmax" or parts[4] != "model":
        raise ParseError(f"bad header {line!r}", lineno)
    try:
        n = int(parts[1])
        wmax = float(parts[3])
    except ValueError:
        raise ParseError(f"bad header numbers in {line!r}", lineno) from None
    model = parts[5]
    if model not in (INSERT_ONLY, DYNAMIC):
        raise ParseError(f"unknown model {model!r}", lineno)
    if n < 1:
        raise ParseError(f"n must be >= 1, got {n}", lineno)
    if not (math.isfinite(wmax) and wmax >= 1.0):
        raise ParseError(f"wmax must be >= 1, got {wmax}", lineno)
    return StreamHeader(n, wmax, model)


def replay(header: StreamHeader, updates: Sequence[StreamUpdate]) -> GraphSnapshot:
    """Replay updates to the final graph, enforcing strict multiset rules and
    refusing a self-loop or a vertex outside 1..n, which only updates built
    in code can hold."""
    size = header.n + 1
    edges = sorted(
        (*divmod(key, size), w) for key, w in _live_edges(header, updates).items()
    )
    return GraphSnapshot(header.n, tuple(edges))


def _live_edges(header: StreamHeader, updates: Sequence[StreamUpdate]) -> dict:
    """Live edges after the updates, keyed by ``u*(n+1)+v`` with u < v and
    mapped to the weight; strict multiset rules. Each update's pair is
    checked before it is packed, so that no bad id can alias another pair."""
    n = header.n
    size = n + 1
    present: dict[int, float] = {}
    for op, u, v, w in updates:
        if u > v:
            u, v = v, u
        if u == v or u < 1 or v > n:
            raise StreamError(f"edge ({u}, {v}) is a self-loop or has a vertex outside 1..{n}")
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
            if key not in present:
                raise StreamError(f"delete of absent edge {(u, v)}")
            if present[key] != w:
                raise StreamError(
                    f"delete weight {w} != inserted weight {present[key]} "
                    f"for edge {(u, v)}"
                )
            del present[key]
    return present


def serialize(header: StreamHeader, updates: Iterable[StreamUpdate]) -> str:
    lines = [f"n {header.n} wmax {_fmt(header.wmax)} model {header.model}"]
    for op, u, v, w in updates:
        lines.append(f"{_OP_TO_CHAR[op]} {u} {v} {_fmt(w)}")
    return "\n".join(lines) + "\n"

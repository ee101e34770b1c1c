"""Edge-stream data model and the bit-exact text format.

Format (UTF-8, LF):
    line 1: ``n <int> wmax <decimal> model <insert-only|dynamic>``
    then:   ``+ <u> <v> <w>`` or ``- <u> <v> <w>``
``#``-prefixed lines and blank lines are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError, StreamError

INSERT_ONLY = "insert-only"
DYNAMIC = "dynamic"

INSERT = "insert"
DELETE = "delete"

_OP_CHARS = {"+": INSERT, "-": DELETE}
_OP_TO_CHAR = {INSERT: "+", DELETE: "-"}


@dataclass(frozen=True)
class StreamHeader:
    n: int
    wmax: float
    model: str


@dataclass(frozen=True)
class StreamUpdate:
    op: str
    u: int
    v: int
    w: float


@dataclass(frozen=True)
class GraphSnapshot:
    """A materialized simple graph: edges are (u, v, w) with u < v."""

    n: int
    edges: tuple[tuple[int, int, float], ...]


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def parse_stream(text: str | bytes):
    """Parse a stream file into (header, updates).

    Validates every line against the header, then checks the multiset
    rules: no duplicate inserts, deletes of absent edges, or deletes whose
    weight differs from the matching insert.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"stream is not UTF-8: {exc}") from None

    header = None
    updates: list[StreamUpdate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = _parse_header(line, lineno)
            continue
        updates.append(_parse_update(line, lineno, header))

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


def _parse_update(line: str, lineno: int, header: StreamHeader) -> StreamUpdate:
    parts = line.split()
    if len(parts) != 4 or parts[0] not in _OP_CHARS:
        raise ParseError(f"bad update {line!r}", lineno)
    op = _OP_CHARS[parts[0]]
    try:
        u = int(parts[1])
        v = int(parts[2])
        w = float(parts[3])
    except ValueError:
        raise ParseError(f"bad update fields in {line!r}", lineno) from None
    if op == DELETE and header.model == INSERT_ONLY:
        raise ParseError("delete in insert-only stream", lineno)
    if not (1 <= u <= header.n and 1 <= v <= header.n):
        raise ParseError(f"vertex out of range in {line!r}", lineno)
    if u == v:
        raise ParseError(f"self-loop in {line!r}", lineno)
    if not (math.isfinite(w) and 1.0 <= w <= header.wmax):
        raise ParseError(f"weight {w} outside [1, {header.wmax}]", lineno)
    return StreamUpdate(op, u, v, w)


def replay(header: StreamHeader, updates: Sequence[StreamUpdate]) -> GraphSnapshot:
    """Replay updates to the final graph, enforcing strict multiset rules."""
    edges = sorted((u, v, w) for (u, v), w in _live_edges(header, updates).items())
    return GraphSnapshot(header.n, tuple(edges))


def _live_edges(header: StreamHeader, updates: Sequence[StreamUpdate]) -> dict:
    """Live edges after the updates, pair -> weight; strict multiset rules."""
    present: dict[tuple[int, int], float] = {}
    for upd in updates:
        key = (upd.u, upd.v) if upd.u < upd.v else (upd.v, upd.u)
        if upd.op == INSERT:
            if key in present:
                raise StreamError(f"duplicate insert of edge {key}")
            present[key] = upd.w
        else:
            if header.model == INSERT_ONLY:
                raise StreamError("delete in insert-only stream")
            if key not in present:
                raise StreamError(f"delete of absent edge {key}")
            if present[key] != upd.w:
                raise StreamError(
                    f"delete weight {upd.w} != inserted weight {present[key]} "
                    f"for edge {key}"
                )
            del present[key]
    return present


def serialize(header: StreamHeader, updates: Iterable[StreamUpdate]) -> str:
    lines = [f"n {header.n} wmax {_fmt(header.wmax)} model {header.model}"]
    for upd in updates:
        lines.append(f"{_OP_TO_CHAR[upd.op]} {upd.u} {upd.v} {_fmt(upd.w)}")
    return "\n".join(lines) + "\n"

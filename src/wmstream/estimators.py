"""Nested-level cardinality estimators.

The contract: one estimator serves every level of a run. ``update(op, u, v,
top)`` counts the unweighted edge on levels 0..top. It raises
``StreamError`` for an op other than insert and delete, a self-loop or a
vertex outside 1..n, and ``ParameterError`` for a ``top`` outside
0..levels. ``finalize()`` returns one ``McmEstimate`` per level, indexed by
level, whose ``value`` satisfies ``value <= MCM <= LAM * value`` for that
level's substream. Each estimator class declares its factor ``LAM`` and
whether it accepts deletes (``SUPPORTS_DELETES``), and is registered by
name in ``ESTIMATORS``. Two deterministic references ship here: a
streaming greedy maximal matching (insert-only) and an exact-offline
estimator (handles deletes by retaining the live edge set of the simple
graph and asking the oracle).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapabilityError, CapacityError, ParameterError, StreamError, WmStreamError
from .oracle import check_oracle_cap, exact_mcm
from .stream_io import DELETE, DYNAMIC, INSERT, edge_refusal, n_refusal

EXACT_OFFLINE = "exact"
GREEDY = "greedy"


class McmEstimate(NamedTuple):
    value: float
    words_stored: int


class GreedyEstimator:
    """Maximal matching built greedily in stream order on every level: an
    edge is taken at a level iff both endpoints are unmatched there.
    2-approximation to each level's MCM. Bit i of a vertex's mask says the
    vertex is matched at level i, so one update serves levels 0..top.
    Cannot un-match, so deletes are refused."""

    LAM = 2.0
    SUPPORTS_DELETES = False

    def __init__(self, n: int, levels: int):
        self.n = n
        self.levels = levels
        try:
            self._mask = [0] * (n + 1)
        except (MemoryError, OverflowError):  # raised before anything is allocated
            raise CapacityError(f"n = {n} is too large for the greedy estimator") from None

    def update(self, op: str, u: int, v: int, top: int = 0) -> None:
        if op != INSERT:
            if op == DELETE:
                raise CapabilityError("greedy estimator cannot process deletes")
            raise StreamError(f"unknown op {op!r}")
        # ids index the mask list; bit i of a mask is level i
        if u == v or not (0 < u <= self.n and 0 < v <= self.n and 0 <= top <= self.levels):
            raise _refusal(self, u, v, top)
        mask = self._mask
        new = ((2 << top) - 1) & ~(mask[u] | mask[v])
        if new:
            mask[u] |= new
            mask[v] |= new

    def finalize(self) -> list[McmEstimate]:
        # each level's matching only grows, so its final size is its peak
        return [
            McmEstimate(float(c // 2), c // 2)
            for c in _bit_counts(self._mask, self.levels + 1)
        ]


def _refusal(est, u: int, v: int, top: int) -> WmStreamError:
    """The error for an update that ``est`` refuses: a bad edge first, then a bad top."""
    if u == v or not (0 < u <= est.n and 0 < v <= est.n):
        return StreamError(edge_refusal(u, v, est.n))
    return ParameterError(f"top level {top} outside 0..{est.levels}")


def _bit_counts(masks, width: int) -> list[int]:
    """For each bit position below ``width``, how many masks have it set.
    Each mask is a little-endian row of ``size`` bytes, appended to one
    buffer; byte column j of the rows, read as one int, holds byte j of
    every mask, so bit b of that byte in every mask is counted by one
    popcount. Zero masks count nothing and are left out, which bounds the
    rows by the matched vertices rather than by n. The columns are read one
    at a time, so the temporary memory is the buffer (``size`` bytes per
    matched vertex) plus a few ints the size of one column."""
    size = (width + 7) // 8
    rows = bytearray()
    for m in filter(None, masks):
        rows += m.to_bytes(size, "little")
    ones = int.from_bytes(b"\1" * (len(rows) // size), "little")  # bit 0 of each row
    columns = (int.from_bytes(rows[j::size], "little") for j in range(size))
    return [(column >> b & ones).bit_count() for column in columns for b in range(8)][:width]


class ExactOfflineEstimator:
    """Retains the live edge set, each pair with its top level, and computes
    each level's exact MCM at finalize via the oracle: exact, not sublinear;
    the words counter (per level, the peak number of live pairs) shows it.
    A pair is keyed by ``u*(n+1)+v`` (u < v) as in ``_live_edges``, and
    ``finalize`` decodes the key with ``divmod`` as ``replay`` does.
    Like ``replay``, it refuses an insert of a live pair, a delete of an
    absent one and a delete at another top level. It cannot see a delete's
    weight or the stream model, which ``replay`` and the parser check.

    The peaks are packed counters: field i of the int ``_gap``, ``width``
    bits wide, holds level i's peak minus its live count. That gap never
    exceeds n(n-1)/2, so the top bit of each field stays clear; set as a
    guard before a subtraction, it keeps a borrow inside its field. An
    insert at ``top`` takes one from every positive field of levels 0..top
    (a level at its peak raises its peak instead), and a delete adds one to
    each; either is a few big-int operations, whatever ``levels`` is.
    ``finalize`` grows one edge list from the top level down, each level
    adding the pairs whose top it is. It asks the oracle only at a level
    that added some and whose value carried down from above (a floor, as the
    levels are nested) is below |V| // 2, the ceiling of any matching there;
    a level's words are the list's length plus its gap."""

    LAM = 1.0
    SUPPORTS_DELETES = True

    def __init__(self, n: int, levels: int):
        self.n = n
        self.levels = levels
        self._edges: dict[int, int] = {}  # packed live pair -> top level
        self._width = width = (n * (n - 1) // 2).bit_length() + 1
        # a 1 in the low bit of each of the levels + 1 fields
        self._ones = ((1 << width * (levels + 1)) - 1) // ((1 << width) - 1)
        self._gap = 0

    def update(self, op: str, u: int, v: int, top: int = 0) -> None:
        if u == v or not (0 < u <= self.n and 0 < v <= self.n and 0 <= top <= self.levels):
            raise _refusal(self, u, v, top)
        size, width = self.n + 1, self._width
        key = u * size + v if u < v else v * size + u
        ones = self._ones >> (self.levels - top) * width  # levels 0..top
        if op == INSERT:
            if key in self._edges:
                raise StreamError(f"duplicate insert of edge {divmod(key, size)}")
            self._edges[key] = top
            guards = ones << width - 1
            gap = self._gap
            # a field's guard survives taking one iff the field is positive
            self._gap = gap - ((((gap | guards) - ones) & guards) >> width - 1)
            return
        if op != DELETE:
            raise StreamError(f"unknown op {op!r}")
        at = self._edges.get(key)
        if at is None:
            raise StreamError(f"delete of absent edge {divmod(key, size)}")
        if at != top:
            raise StreamError(f"edge {divmod(key, size)} at top level {top}, live at {at}")
        del self._edges[key]
        self._gap += ones

    def finalize(self) -> list[McmEstimate]:
        check_oracle_cap(self._edges)  # level 0 holds every live pair
        added: dict[int, list] = {}  # level i adds the pairs whose top is i
        for key, top in self._edges.items():
            added.setdefault(top, []).append((*divmod(key, self.n + 1), 1.0))
        width = self._width
        field = (1 << width) - 1
        level, value, out, ends = [], 0.0, [], set()
        for i in range(self.levels, -1, -1):
            if i in added:  # a level that adds no edges keeps the value above it
                level += added[i]
                ends.update(x for u, v, _ in added[i] for x in (u, v))
                if value < len(ends) // 2:  # else the value is at the ceiling
                    value = float(exact_mcm(level).value)
            out.append(McmEstimate(value, len(level) + (self._gap >> i * width & field)))
        return out[::-1]


# Estimator name -> class; adding an estimator means adding one entry here.
ESTIMATORS = {EXACT_OFFLINE: ExactOfflineEstimator, GREEDY: GreedyEstimator}


def make_estimator(kind: str, n: int, delta_prime: float, model: str, levels: int = 0):
    """Instantiate a fresh estimator for levels 0..levels, refusing an unknown
    kind, a capability mismatch and a bad n. ``delta_prime`` is unread, as
    both estimators are deterministic; it keeps its positional slot for
    callers that pass it, and ``run`` checks the delta it comes from."""
    cls = ESTIMATORS.get(kind)
    if cls is None:
        raise ParameterError(f"unknown estimator kind {kind!r}")
    if model == DYNAMIC and not cls.SUPPORTS_DELETES:
        raise CapabilityError(f"{kind} estimator does not support dynamic streams")
    if refusal := n_refusal(n):
        raise ParameterError(refusal)
    return cls(n, levels)

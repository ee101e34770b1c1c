"""Exhaustive ground truth on small graphs: exact MWM and exact MCM.

The exact estimator's ``finalize`` and lemma 2's check call ``exact_mcm``;
``reduction.verify`` and ``oracle --mode mwm`` call ``exact_mwm``. A size
cap keeps every call well under a second; larger inputs are refused, not
degraded.

One exact search answers both questions: a forward dynamic program over the
sorted edge list, whose states are the used vertices that a later edge still
touches. Its cost follows the width of that frontier rather than the 2^m
include/exclude choices, and it returns the lexicographically smallest
optimal witness. ``exact_mcm`` runs it on unit weights, unless the greedy
maximal matching over the sorted edges already has floor(|V|/2) edges: no
matching is larger, and that one is the lexicographically smallest of its
size, so it is the search's own answer.

The weighted branch-and-bound that the dynamic program is checked against
lives with the tests, in ``tests/helpers.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CapacityError
from .stream_io import GraphSnapshot

MAX_ORACLE_EDGES = 24


class OracleResult(NamedTuple):
    value: float
    witness: tuple[tuple[int, int, float], ...]


def exact_mwm(snapshot: GraphSnapshot) -> OracleResult:
    """Maximum weighted matching by the frontier dynamic program over the
    sorted edge list: of the optimal matchings, the lexicographically smallest
    witness, its value summed in edge order. More than MAX_ORACLE_EDGES edges
    (checked before any search) or a value past the float range raises
    CapacityError."""
    check_oracle_cap(snapshot.edges)
    value, witness = _mwm_frontier(sorted(snapshot.edges))
    if value == math.inf:
        raise CapacityError("the matching weight is past the float range")
    return OracleResult(value, witness)


def exact_mcm(snapshot: GraphSnapshot) -> OracleResult:
    """Maximum cardinality matching, with unit weights on the witness and an
    int value. The first leaf of an include-first search over the sorted
    edges is the greedy maximal matching. When it has floor(|V|/2) edges it
    is maximum. It is also the lexicographically smallest of that size: a
    matching that agrees with it up to some edge cannot hold the next edge
    that the greedy pass skipped, so it first differs by lacking an edge
    that the pass took. Otherwise the dynamic program answers."""
    check_oracle_cap(snapshot.edges)
    unit = sorted((u, v, 1.0) for u, v, _ in snapshot.edges)
    ends = {x for u, v, _ in unit for x in (u, v)}
    used: set[int] = set()
    leaf = []
    for u, v, w in unit:
        if u not in used and v not in used:
            used.update((u, v))
            leaf.append((u, v, w))
    if len(leaf) == len(ends) // 2:
        return OracleResult(len(leaf), tuple(leaf))
    value, witness = _mwm_frontier(unit)
    return OracleResult(int(value), witness)


def check_oracle_cap(edges) -> None:
    """Raise CapacityError if ``edges`` are more than the oracle accepts."""
    if len(edges) > MAX_ORACLE_EDGES:
        raise CapacityError(f"{len(edges)} edges exceed oracle cap {MAX_ORACLE_EDGES}")


def _mwm_frontier(edges):
    """(value, witness) of a maximum weight matching of the sorted edges, whose
    weights are positive; the callers check the cap. Partial matchings that agree
    on the used vertices a later edge touches have the same completions, so one
    loop per layer keeps only the best of them. Where no vertex leaves the
    frontier, a skip keeps its key, so the layer starts as a copy and tries takes."""
    m = len(edges)
    bit = {x: i for i, x in enumerate(sorted({x for u, v, _ in edges for x in (u, v)}))}
    masks = [(1 << bit[u]) | (1 << bit[v]) for u, v, _ in edges]
    later = [0] * (m + 1)  # later[i] holds the vertices of edges i..m-1
    for i in range(m - 1, -1, -1):
        later[i] = later[i + 1] | masks[i]
    # A state maps its frontier to (value, chosen), edge i being bit m-1-i
    # of chosen. Of two witnesses of equal value, neither is a prefix of the
    # other (weights are positive), so the lexicographically smaller one has
    # the larger chosen, and the better state is simply the larger tuple.
    states = {0: (0.0, 0)}
    for idx, (_, _, w) in enumerate(edges):
        mask, keep, pick = masks[idx], later[idx + 1], 1 << (m - 1 - idx)
        stays = keep == later[idx]  # no vertex leaves, so every skip keeps its key and state
        nxt = states.copy() if stays else {}
        for used, state in states.items():
            if not stays:
                key = used & keep
                old = nxt.get(key)
                if old is None or state > old:
                    nxt[key] = state
            if not used & mask:
                key, state = (used | mask) & keep, (state[0] + w, state[1] | pick)
                old = nxt.get(key)
                if old is None or state > old:
                    nxt[key] = state
        states = nxt
    value, chosen = states[0]  # later[m] is empty, so one state is left
    return value, tuple(e for i, e in enumerate(edges) if chosen >> (m - 1 - i) & 1)

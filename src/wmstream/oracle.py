"""Exhaustive ground truth on small graphs: exact MWM and exact MCM.

The exact estimator's ``finalize`` and lemma 2's check call ``exact_mcm``;
``reduction.verify`` and ``oracle --mode mwm`` call ``exact_mwm``. A size
cap keeps every call well under a second; larger inputs are refused, not
degraded.

Two exact searches over the sorted edge list answer the matching questions,
and both return the lexicographically smallest optimal witness:

- ``exact_mwm`` runs a forward dynamic program. Its states are the used
  vertices that a later edge still touches, so its cost follows the width of
  that frontier rather than the 2^m include/exclude choices.
- ``exact_mcm`` runs an include/exclude branch-and-bound that reads no
  weight. A branch adds at most one edge per two free vertices that its
  remaining edges touch, and is pruned when that many cannot beat the best.
  Once the best reaches floor(|V|/2), that prune cuts every branch left, so
  the search needs no separate ceiling test to stop there.

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
    sorted edge list. Ties go to the lexicographically smallest witness, whose
    value is summed in edge order: the branch-and-bound's answer, bit for bit.
    A value past the float range raises CapacityError.
    """
    value, witness = _mwm_frontier(sorted(snapshot.edges))
    if value == math.inf:
        raise CapacityError("the matching weight is past the float range")
    return OracleResult(value, witness)


def exact_mcm(snapshot: GraphSnapshot) -> OracleResult:
    """Maximum cardinality matching by the branch-and-bound, which stops
    once no matching can be larger. The witness carries unit weights."""
    unit = sorted((u, v, 1.0) for u, v, _ in snapshot.edges)
    size, witness = _mcm_search(unit)
    return OracleResult(size, witness)


def check_oracle_cap(edges) -> None:
    """Raise CapacityError if ``edges`` are more than the oracle accepts."""
    if len(edges) > MAX_ORACLE_EDGES:
        raise CapacityError(f"{len(edges)} edges exceed oracle cap {MAX_ORACLE_EDGES}")


def _edge_masks(edges) -> tuple[list[int], list[int]]:
    """Each edge as the bit mask of its two endpoints, one bit per vertex,
    and the suffix unions: ``later[i]`` holds the vertices of edges i..m-1."""
    bit = {x: i for i, x in enumerate(sorted({x for u, v, _ in edges for x in (u, v)}))}
    masks = [(1 << bit[u]) | (1 << bit[v]) for u, v, _ in edges]
    later = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        later[i] = later[i + 1] | masks[i]
    return masks, later


def _mwm_frontier(edges):
    """(value, witness) of a maximum weight matching of the sorted edges,
    whose weights are positive. Partial matchings that agree on the used
    vertices a later edge touches have the same completions, so only the
    best of them is kept."""
    check_oracle_cap(edges)
    m = len(edges)
    masks, later = _edge_masks(edges)
    # A state maps its frontier to (value, chosen), edge i being bit m-1-i
    # of chosen. Of two witnesses of equal value, neither is a prefix of the
    # other (weights are positive), so the lexicographically smaller one has
    # the larger chosen, and the better state is simply the larger tuple.
    states = {0: (0.0, 0)}
    unset = (-1.0, 0)  # below every state
    for idx, (_, _, w) in enumerate(edges):
        mask, keep, pick = masks[idx], later[idx + 1], 1 << (m - 1 - idx)
        nxt: dict[int, tuple[float, int]] = {}
        for used, state in states.items():
            key = used & keep
            if state > nxt.get(key, unset):
                nxt[key] = state
            if not used & mask:
                key = (used | mask) & keep
                state = (state[0] + w, state[1] | pick)
                if state > nxt.get(key, unset):
                    nxt[key] = state
        states = nxt
    value, chosen = states[0]  # later[m] is empty, so one state is left
    return value, tuple(e for i, e in enumerate(edges) if chosen >> (m - 1 - i) & 1)


def _mcm_search(edges):
    """(size, witness) of a maximum cardinality matching of the sorted
    edges, the lexicographically smallest of that size. A branch at edge
    idx adds at most one edge per two free vertices that edges idx..m-1
    touch, so it is pruned when that many cannot beat the best."""
    check_oracle_cap(edges)
    masks, later = _edge_masks(edges)
    best: tuple[int, ...] = ()

    # Include-first DFS over sorted edges visits witnesses in lexicographic
    # order, so keeping the first strict improvement yields the canonical
    # (lexicographically smallest) optimum.
    stack = [(0, 0, ())]
    while stack:
        idx, used, chosen = stack.pop()
        if len(chosen) > len(best):
            best = chosen
        # later[m] is empty, so a branch past the last edge is pruned here
        if len(chosen) + (later[idx] & ~used).bit_count() // 2 <= len(best):
            continue
        # pushed in reverse so the include branch is explored first
        stack.append((idx + 1, used, chosen))
        if not masks[idx] & used:
            stack.append((idx + 1, used | masks[idx], chosen + (idx,)))
    return len(best), tuple(edges[i] for i in best)

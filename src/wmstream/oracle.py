"""Exhaustive ground truth on small graphs: exact MWM, exact MCM, and a
density-based arboricity check.

These are test instruments, not streaming components. Size caps keep every
call well under a second; larger inputs are refused rather than degraded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .errors import CapacityError
from .stream_io import GraphSnapshot

MAX_ORACLE_EDGES = 24
MAX_ARBORICITY_VERTICES = 12


@dataclass(frozen=True)
class OracleResult:
    value: float
    witness: tuple[tuple[int, int, float], ...]


def exact_mwm(snapshot: GraphSnapshot) -> OracleResult:
    """Maximum weighted matching by branch-and-bound over the sorted edge
    list (include-if-endpoints-free / exclude), pruning with the remaining
    weight sum. Ties broken toward the lexicographically smallest witness.
    """
    value, witness = _mwm_search(sorted(snapshot.edges))
    return OracleResult(value, witness)


def exact_mcm(snapshot: GraphSnapshot) -> OracleResult:
    """Maximum cardinality matching: exact_mwm on the unit-weighted graph."""
    unit = sorted((u, v, 1.0) for u, v, _ in snapshot.edges)
    value, witness = _mwm_search(unit)
    return OracleResult(int(value), witness)


def check_oracle_cap(edges) -> None:
    """Raise CapacityError if ``edges`` are more than the oracle accepts."""
    if len(edges) > MAX_ORACLE_EDGES:
        raise CapacityError(f"{len(edges)} edges exceed oracle cap {MAX_ORACLE_EDGES}")


def _mwm_search(edges):
    check_oracle_cap(edges)
    if not edges:
        return 0.0, ()
    verts = sorted({x for u, v, _ in edges for x in (u, v)})
    bit = {x: i for i, x in enumerate(verts)}
    masks = [(1 << bit[u]) | (1 << bit[v]) for u, v, _ in edges]
    weights = [w for _, _, w in edges]
    m = len(edges)
    suffix = [0.0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    # A matching has at most len(verts) // 2 edges, so none outweighs the
    # heaviest that many; a best value reaching it cannot be improved.
    ceiling = sum(sorted(weights, reverse=True)[: len(verts) // 2])
    best_val = 0.0
    best_wit: tuple[int, ...] = ()

    # Include-first DFS over sorted edges visits witnesses in lexicographic
    # order, so keeping the first strict improvement yields the canonical
    # (lexicographically smallest) optimum.
    stack = [(0, 0, 0.0, ())]
    while stack:
        idx, used, val, chosen = stack.pop()
        if val > best_val:
            best_val = val
            best_wit = chosen
            if best_val >= ceiling:
                break
        if idx == m or val + suffix[idx] <= best_val:
            continue
        # pushed in reverse so the include branch is explored first
        stack.append((idx + 1, used, val, chosen))
        if not masks[idx] & used:
            stack.append(
                (idx + 1, used | masks[idx], val + weights[idx], chosen + (idx,))
            )
    return best_val, tuple(edges[i] for i in best_wit)


def arboricity(snapshot: GraphSnapshot) -> int:
    """Density arboricity: max over vertex subsets U (|U| >= 2) of
    ceil(|E(U)| / (|U| - 1)), by exhaustive subset enumeration."""
    if snapshot.n > MAX_ARBORICITY_VERTICES:
        raise CapacityError(
            f"n={snapshot.n} exceeds arboricity cap {MAX_ARBORICITY_VERTICES}"
        )
    if not snapshot.edges:
        return 0
    edge_masks = [
        (1 << (u - 1)) | (1 << (v - 1)) for u, v, _ in snapshot.edges
    ]
    best = 0
    for mask in range(3, 1 << snapshot.n):
        size = mask.bit_count()
        if size < 2:
            continue
        inside = sum(1 for em in edge_masks if em & mask == em)
        best = max(best, ceil(inside / (size - 1)))
    return best

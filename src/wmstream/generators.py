"""Reproducible stream synthesis: graph families, weight laws, stream
orders and dynamic-stream churn, each one entry in a table keyed by name."""

from __future__ import annotations

import math
import random
from array import array
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import CapacityError, ParameterError
from .schedule import wmax_refusal
from .stream_io import (DELETE, DYNAMIC, INSERT, INSERT_ONLY, StreamHeader, StreamUpdate, _column,
                        n_refusal)


class GenConfig(NamedTuple):
    family: str
    n: int = 0
    rows: int = 0
    cols: int = 0
    nu: int = 1
    p: float = 0.0
    weights: str = "uniform-int"
    wmax: float = 8.0
    alpha: float = 2.0
    order: str = "as-generated"
    churn: float = 0.0
    seed: int = 0

    def summary(self) -> str:
        # an unknown family, which generate refuses, shows n and nu
        shape = _FAMILIES.get(self.family, (_N_NU,))[0]
        return (
            f"{self.family}({shape.format(**self._asdict())},w={self.weights}:{self.wmax},"
            f"order={self.order},churn={self.churn},seed={self.seed})"
        )


def _random_spanning_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    # Kruskal on a random permutation of the complete graph's pairs u < v, packed
    # as u*(n+1)+v < n*(n+2) in _column's narrowest typecode (1, 2, 4 or 8 bytes a
    # pair below n = 2**4, 2**8, 2**16, 2**32; a list past that), made in one
    # allocation and refused, before any pair, when no memory holds it; shuffle draws by length
    keys = _column(n * (n + 2))
    keys.append(0)
    try:
        keys *= n * (n - 1) // 2
    except (MemoryError, OverflowError):  # raised before anything is allocated
        raise CapacityError(f"n = {n} is too large for forest-union") from None
    at = 0
    for u in range(1, n):  # row u holds u*(n+1)+v for v = u+1..n
        keys[at:at + n - u] = array(keys.typecode, range(u * (n + 2) + 1, (u + 1) * (n + 1)))
        at += n - u
    rng.shuffle(keys)
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for key in keys:
        u, v = divmod(key, n + 1)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
            if len(tree) == n - 1:
                break
    return tree


def _forest_union(config: GenConfig, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    # the first copy of each edge of nu spanning trees, u < v already
    trees = (_random_spanning_tree(config.n, rng) for _ in range(config.nu))
    return config.n, list(dict.fromkeys(chain.from_iterable(trees)))


def _grid(config: GenConfig, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    # row-major ids 1..n: v's right neighbour is v+1 unless v ends a row
    cols, n = config.cols, config.rows * config.cols
    edges = []
    for v in range(1, n + 1):
        if v % cols:
            edges.append((v, v + 1))
        if v + cols <= n:
            edges.append((v, v + cols))
    return n, edges


def _erdos_renyi(config: GenConfig, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    edges = [
        (u, v)
        for u in range(1, config.n + 1)
        for v in range(u + 1, config.n + 1)
        if rng.random() < config.p
    ]
    return config.n, edges


def _powerlaw(config: GenConfig, rng: random.Random) -> float:
    # Pareto(alpha) floored at 1 and capped at wmax; a small alpha
    # can draw a value beyond the float range, which the cap also covers
    try:
        w = rng.paretovariate(config.alpha)
    except OverflowError:
        return float(config.wmax)
    return min(float(config.wmax), max(1.0, w))


# A family is (its fields in summary(), a str.format template; its (n, pairs)
# builder; then its field checks in order, each a config's refusal or None).
# A weight law is one draw, an order one in-place reordering of the (op, u, v, w) updates.
_N_NU = "n={n},nu={nu}"
_N_CHECK = lambda c: n_refusal(c.n)  # noqa: E731
_FAMILIES = {
    "forest-union": (_N_NU, _forest_union, _N_CHECK,
                     lambda c: None if c.nu >= 1 else f"nu must be >= 1, got {c.nu}"),
    "grid": ("{rows}x{cols}", _grid, lambda c: None if c.rows >= 1 and c.cols >= 1
             else "grid needs rows >= 1 and cols >= 1"),
    "erdos-renyi": ("n={n},p={p}", _erdos_renyi, _N_CHECK,
                    lambda c: None if 0.0 <= c.p <= 1.0 else f"p must be in [0, 1], got {c.p}"),
}
_WEIGHT_LAWS = {
    "uniform-int": lambda config, rng: float(rng.randint(1, int(config.wmax))),
    "powerlaw": _powerlaw,
    "constant": lambda config, rng: 1.0,
}
_ORDERS = {
    "as-generated": lambda updates, rng: None,
    "shuffled": lambda updates, rng: rng.shuffle(updates),
    "heavy-first": lambda updates, rng: updates.sort(key=lambda upd: (-upd[3], upd[1], upd[2])),
    "light-first": lambda updates, rng: updates.sort(key=lambda upd: (upd[3], upd[1], upd[2])),
}
# GenConfig's name fields in the order _validate checks them, each with the
# noun its refusal uses and its table; CHOICES lists each table's names for gen
_REGISTRY = {"family": ("family", _FAMILIES), "weights": ("weight distribution", _WEIGHT_LAWS),
             "order": ("order", _ORDERS)}
CHOICES = {field: tuple(table) for field, (_, table) in _REGISTRY.items()}


def _validate(config: GenConfig) -> None:
    for field, (noun, table) in _REGISTRY.items():
        if (name := getattr(config, field)) not in table:
            raise ParameterError(f"unknown {noun} {name!r}")
    for check in _FAMILIES[config.family][2:]:
        if refusal := check(config):
            raise ParameterError(refusal)
    if refusal := wmax_refusal(config.wmax):
        raise ParameterError(refusal)
    if not (math.isfinite(config.alpha) and config.alpha > 0.0):
        raise ParameterError(f"alpha must be finite and > 0, got {config.alpha}")


def generate(config: GenConfig) -> tuple[StreamHeader, list[StreamUpdate]]:
    """Produce a stream, deterministic per (config, seed): dynamic unless
    ``dynamify`` churns no edge (``round(churn * m) == 0`` for m edges).
    ``dynamify`` checks the churn, the last of the checks."""
    _validate(config)
    rng = random.Random(config.seed)
    n, pairs = _FAMILIES[config.family][1](config, rng)
    wmax = 1.0 if config.weights == "constant" else float(config.wmax)
    draw = _WEIGHT_LAWS[config.weights]
    updates = [StreamUpdate(INSERT, u, v, draw(config, rng)) for u, v in pairs]
    _ORDERS[config.order](updates, rng)
    return dynamify(StreamHeader(n, wmax, INSERT_ONLY), updates, config.churn, config.seed + 1)


def dynamify(
    header: StreamHeader,
    updates: Iterable[StreamUpdate],
    churn: float,
    seed: int,
) -> tuple[StreamHeader, list[StreamUpdate]]:
    """Turn an insertion-only stream of distinct edges into a dynamic one by
    giving a churn fraction of edges a delete + re-insert pair at random later
    positions; when ``round(churn * m)`` is 0 it comes back unchanged and
    insert-only. The replayed final snapshot is unchanged. O(m log m) for m
    updates. A delete, or an edge repeated in either orientation, is refused.
    ``updates`` may be any iterable, parsed columns included."""
    if not (0.0 <= churn <= 1.0):
        raise ParameterError(f"churn must be in [0, 1], got {churn}")
    updates = list(updates)
    if any(op != INSERT for op, _, _, _ in updates):
        raise ParameterError("dynamify input must be insertion-only")
    if len({(min(u, v), max(u, v)) for _, u, v, _ in updates}) < len(updates):
        raise ParameterError("dynamify input must not repeat an edge")

    m = len(updates)
    k = round(churn * m)
    if k == 0:
        return header, updates
    rng = random.Random(seed)

    # The output is kept as the originals in order, each followed by the
    # updates placed in the gap after it. A Fenwick tree over 1 + gap size per
    # original gives an original's position, and the gap that holds any
    # position, in O(log m) where a list search and insert cost O(m).
    gaps: list[list[StreamUpdate]] = [[] for _ in range(m)]
    tree = [i & -i for i in range(m + 1)]  # every original alone: all ones
    size = m
    top_bit = 1 << (m.bit_length() - 1)

    def position(g: int) -> int:  # index of original g in the list
        total = 0
        while g > 0:
            total += tree[g]
            g -= g & -g
        return total

    def place(j: int, upd: StreamUpdate) -> None:  # list.insert(j, upd), 1 <= j <= size
        g, before, step = 0, 0, top_bit
        while step:  # largest g with position(g) < j: item j-1 is original g or in its gap
            if g + step <= m and before + tree[g + step] < j:
                g += step
                before += tree[g]
            step >>= 1
        gaps[g].insert(j - before - 1, upd)
        g += 1
        while g <= m:
            tree[g] += 1
            g += g & -g

    for orig_idx in sorted(rng.sample(range(m), k)):
        _, u, v, w = updates[orig_idx]
        j1 = rng.randint(position(orig_idx) + 1, size)
        place(j1, StreamUpdate(DELETE, u, v, w))
        j2 = rng.randint(j1 + 1, size + 1)
        place(j2, StreamUpdate(INSERT, u, v, w))
        size += 2
    out: list[StreamUpdate] = []
    for upd, gap in zip(updates, gaps):
        out.append(upd)
        out.extend(gap)
    return StreamHeader(header.n, header.wmax, DYNAMIC), out

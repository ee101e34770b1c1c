"""Shared corpus builders and reference implementations for the randomized
suites."""

import cProfile
import gc
import pstats
import random
from math import ceil

from wmstream import (
    CapacityError,
    GenConfig,
    GraphSnapshot,
    ParameterError,
    ParseError,
    RunReport,
    StreamError,
    combine,
    exact_mcm,
    generate,
    replay,
)
from wmstream.estimators import EXACT_OFFLINE
from wmstream.oracle import MAX_ORACLE_EDGES, check_oracle_cap
from wmstream.stream_io import (
    DELETE, DYNAMIC, INSERT, INSERT_ONLY, StreamHeader, StreamUpdate, _live_edges,
)

MAX_ARBORICITY_VERTICES = 12


def corpus_configs():
    """Small-instance corpus: forest unions, grids, and sparse random
    graphs, with uniform integer weights in [1, 64]."""
    configs = []
    for nu in (1, 2, 3):
        for n in (6, 8, 10):
            for seed in range(10):
                configs.append(
                    GenConfig(
                        family="forest-union",
                        n=n,
                        nu=nu,
                        weights="uniform-int",
                        wmax=64.0,
                        order="shuffled",
                        seed=1000 * nu + 100 * n + seed,
                    )
                )
    for rows, cols in ((2, 2), (2, 3), (3, 3), (3, 4)):
        for seed in range(10):
            configs.append(
                GenConfig(
                    family="grid",
                    rows=rows,
                    cols=cols,
                    weights="uniform-int",
                    wmax=64.0,
                    order="shuffled",
                    seed=7000 + 100 * rows + 10 * cols + seed,
                )
            )
    for n in (6, 8, 10):
        for p in (0.2, 0.35):
            for seed in range(7):
                configs.append(
                    GenConfig(
                        family="erdos-renyi",
                        n=n,
                        p=p,
                        weights="uniform-int",
                        wmax=64.0,
                        order="shuffled",
                        seed=9000 + 100 * n + seed,
                    )
                )
    return configs


def corpus_instances():
    """Generated corpus streams whose final snapshots fit the oracle cap."""
    out = []
    for config in corpus_configs():
        header, updates = generate(config)
        if len(replay(header, updates).edges) <= MAX_ORACLE_EDGES:
            out.append((config, header, updates))
    return out


def snapshot_stream(snapshot, wmax):
    """A snapshot re-expressed as an insertion-only stream sorted by (u, v)."""
    header = StreamHeader(snapshot.n, wmax, INSERT_ONLY)
    return header, [StreamUpdate(INSERT, u, v, w) for u, v, w in snapshot.edges]


def combined_report(schedule, s_hats, estimator=EXACT_OFFLINE):
    """A whole report around combine's trace of ``s_hats``, for checks that
    take a report but need no stream: delta 0.1, no words stored."""
    levels = combine(schedule, s_hats)
    width = schedule.levels + 1
    return RunReport(schedule, levels, levels[-1].a, estimator, 0.1, 0.1 / width, (0,) * width)


def report_dict_reference(report):
    """The report as a dict built field by field, the reference that
    ``report_json``'s text is checked against."""
    return {
        "epsilon": report.schedule.epsilon,
        "wmax": report.schedule.wmax,
        "T": report.schedule.levels,
        "estimate": report.estimate,
        "delta": report.delta,
        "delta_prime": report.delta_prime,
        "estimator": report.estimator,
        "total_words": report.total_words,
        "levels": [
            {
                "i": st.level,
                "threshold": report.schedule.thresholds[st.level],
                "s_hat": st.s_hat,
                "m_hat": st.m_hat,
                "delta_i": st.delta_count,
                "b": st.b,
                "a": st.a,
            }
            for st in report.levels
        ],
    }


# --- arboricity, the bound the forest-union generator promises ----------------


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


# --- the weighted branch-and-bound, the reference for the exact oracles -------


def _mwm_search(edges):
    """(value, witness) of a maximum weight matching of the sorted edges,
    the lexicographically smallest optimum, by an include-first
    branch-and-bound: the reference for ``exact_mwm`` and, on unit weights,
    for ``exact_mcm``, whose greedy leaf is this search's first leaf."""
    check_oracle_cap(edges)
    if not edges:
        return 0.0, ()
    bit = {x: i for i, x in enumerate(sorted({x for u, v, _ in edges for x in (u, v)}))}
    masks = [(1 << bit[u]) | (1 << bit[v]) for u, v, _ in edges]
    weights = [w for _, _, w in edges]
    m = len(edges)
    suffix = [0.0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    # A matching has at most |V| // 2 edges, so none outweighs the heaviest
    # that many; a best value reaching it cannot be improved.
    ceiling = sum(sorted(weights, reverse=True)[: len(bit) // 2])
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


# --- single-level references for the nested estimators ------------------------


def greedy_level_reference(edges):
    """Greedy maximal matching of one level's (u, v) inserts, kept as a set
    of matched vertices: (value, words_stored) as the greedy estimator
    reports them for that level."""
    matched: set[int] = set()
    size = 0
    for u, v in edges:
        if u not in matched and v not in matched:
            matched.update((u, v))
            size += 1
    return float(size), size


def exact_level_reference(n, updates):
    """One level's (op, u, v) updates on a simple graph, kept as the set of
    live pairs: (exact MCM of the surviving pairs, peak number of live
    pairs). Like the exact estimator, it refuses an insert of a live pair
    and a delete of an absent one."""
    live: set[tuple[int, int]] = set()
    peak = 0
    for op, u, v in updates:
        key = (min(u, v), max(u, v))
        if op == INSERT:
            if key in live:
                raise StreamError(f"duplicate insert of edge {key}")
            live.add(key)
            peak = max(peak, len(live))
        elif key in live:
            live.remove(key)
        else:
            raise StreamError(f"delete of absent edge {key}")
    snapshot = GraphSnapshot(n, tuple(sorted((u, v, 1.0) for u, v in live)))
    return float(exact_mcm(snapshot).value), peak


# --- the quadratic dynamify, kept as the reference for the indexed one --------


def dynamify_reference(header, updates, churn, seed):
    """``generators.dynamify`` as first written: each chosen update is found
    with ``out.index`` and its delete/re-insert pair placed with
    ``out.insert``, O(m^2) in all."""
    if not (0.0 <= churn <= 1.0):
        raise ParameterError(f"churn must be in [0, 1], got {churn}")
    if any(upd.op != INSERT for upd in updates):
        raise ParameterError("dynamify input must be insertion-only")

    rng = random.Random(seed)
    out = list(updates)
    k = round(churn * len(out))
    if k == 0:
        return header, out

    chosen = rng.sample(range(len(updates)), k)
    for orig_idx in sorted(chosen):
        upd = updates[orig_idx]
        pos = out.index(upd)
        j1 = rng.randint(pos + 1, len(out))
        out.insert(j1, StreamUpdate(DELETE, upd.u, upd.v, upd.w))
        j2 = rng.randint(j1 + 1, len(out))
        out.insert(j2, StreamUpdate(INSERT, upd.u, upd.v, upd.w))
    return StreamHeader(header.n, header.wmax, DYNAMIC), out


def python_calls(fn, *args):
    """How many calls of Python functions, generator resumes included,
    ``fn(*args)`` makes; cProfile files a builtin under ``~``. The collector
    is off, as ``cli.main`` keeps it, so that no collection calls a callback
    that another library (hypothesis) registered."""
    profile = cProfile.Profile()
    was = gc.isenabled()
    gc.disable()
    try:
        profile.runcall(fn, *args)
    finally:
        (gc.enable if was else gc.disable)()
    return sum(calls for (path, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if path != "~")


# --- the per-line checker before the parse held typed columns ---------------


def checked_records_reference(header, lines, columns):
    """``stream_io._checked_records`` before it took in the multiset rules
    and held its updates in columns: every line converts both ids with
    ``int`` and range-checks them, and the records then pass through
    ``stream_io._live_edges`` one by one as their lines are read. It leaves
    ``columns``, the parse's empty columns, as they are, and returns a list
    of ``StreamUpdate`` records of its own. The reference that the one-loop
    parse is checked against."""
    records = []
    _live_edges(header, _line_records(header, lines, records.append))
    return records


def _line_records(header, lines, keep):
    """Each update line of ``lines`` as a record checked against the header;
    ``keep`` receives every record before it is yielded."""
    n, wmax, insert_only = header.n, header.wmax, header.model == INSERT_ONLY
    ops = {"+": INSERT, "-": DELETE}
    for lineno, raw in lines:
        parts = raw.split()
        if len(parts) != 4 or (op := ops.get(parts[0])) is None:
            if not parts or parts[0].startswith("#"):
                continue
            raise ParseError(f"bad update {raw.strip()!r}", lineno)
        try:
            u, v, w = int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError:
            raise ParseError(f"bad update fields in {raw.strip()!r}", lineno) from None
        if op == DELETE and insert_only:
            raise ParseError("delete in insert-only stream", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range in {raw.strip()!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop in {raw.strip()!r}", lineno)
        if not 1.0 <= w <= wmax:
            raise ParseError(f"weight {w} outside [1, {wmax}]", lineno)
        record = StreamUpdate(op, u, v, w)
        keep(record)
        yield record

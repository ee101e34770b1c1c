"""Independent references that the benchmark checks every program output against.

Nothing here imports the estimators, reduction or oracle under test. The level
schedule and the descending combine are re-derived from their definitions in
README.md; per-level greedy is a per-vertex bitmask re-implementation;
matchings come from networkx.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right

import networkx as nx

REL_TOL = 1e-9


def thresholds(epsilon: float, wmax: float) -> list[float]:
    """(1+eps)^i for i = 0..T by repeated multiplication, T = ceil(log_{1+eps} wmax)."""
    levels = 0 if wmax == 1.0 else math.ceil(math.log(wmax) / math.log1p(epsilon))
    out = [1.0]
    for _ in range(levels):
        out.append(out[-1] * (1.0 + epsilon))
    return out


def top_level(thr: list[float], w: float) -> int:
    return bisect_right(thr, w) - 1


def greedy_s_hat(n: int, thr: list[float], updates) -> list[int]:
    """Per-level greedy maximal matching sizes in one pass: bit i of mask[x]
    says whether vertex x is matched at level i."""
    mask = [0] * (n + 1)
    for _, u, v, w in updates:
        new = ((2 << top_level(thr, w)) - 1) & ~(mask[u] | mask[v])
        if new:
            mask[u] |= new
            mask[v] |= new
    matched = [m for m in mask if m]
    return [sum((m >> i) & 1 for m in matched) // 2 for i in range(len(thr))]


def exact_s_hat(thr: list[float], edges) -> list[int]:
    """Per-level maximum cardinality matching of the final edge set."""
    out = []
    for t in thr:
        g = nx.Graph()
        g.add_edges_from((u, v) for u, v, w in edges if w >= t)
        out.append(len(nx.max_weight_matching(g, maxcardinality=True, weight=None)))
    return out


def exact_level_peaks(thr: list[float], updates) -> list[int]:
    """Per level, the largest number of simultaneously live edges."""
    live = [0] * len(thr)
    peak = [0] * len(thr)
    for op, _, _, w in updates:
        top = top_level(thr, w)
        step = 1 if op == "+" else -1
        for i in range(top + 1):
            live[i] += step
            if live[i] > peak[i]:
                peak[i] = live[i]
    return peak


def combine(thr: list[float], s_hats: list[float]) -> tuple[list[dict], float]:
    """Descending greedy combine; levels are returned top level first."""
    levels = []
    m_next, b_next, a_next = 0.0, 0, 0.0
    for i in range(len(thr) - 1, -1, -1):
        m_hat = max(m_next, float(s_hats[i]))
        delta = max(0, math.ceil(m_hat - 2 * b_next))
        b = b_next + delta
        a = a_next + thr[i] * delta
        levels.append({"i": i, "s_hat": float(s_hats[i]), "m_hat": m_hat,
                       "delta_i": delta, "b": b, "a": a})
        m_next, b_next, a_next = m_hat, b, a
    return levels, levels[-1]["a"]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def expected_report(stream, epsilon: float, estimator: str) -> dict:
    """The values an ``estimate`` report must carry for this stream."""
    thr = thresholds(epsilon, float(stream.wmax))
    if estimator == "greedy":
        s_hat = greedy_s_hat(stream.n, thr, stream.updates)
        words = sum(s_hat)
    else:
        s_hat = exact_s_hat(thr, final_edges(stream.updates))
        words = sum(exact_level_peaks(thr, stream.updates))
    levels, estimate = combine(thr, s_hat)
    return {"T": len(thr) - 1, "levels": levels, "estimate": estimate,
            "total_words": words, "estimator": estimator}


def check_report(text: str, expected: dict) -> list[str]:
    """Compare one ``estimate`` JSON report with the reference; returns problems."""
    try:
        return _report_problems(json.loads(text), expected)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"]


def _report_problems(got: dict, expected: dict) -> list[str]:
    problems = []
    for key in ("T", "total_words", "estimator"):
        if got.get(key) != expected[key]:
            problems.append(f"{key}: got {got.get(key)!r}, want {expected[key]!r}")
    if not _close(float(got.get("estimate", -1.0)), expected["estimate"]):
        problems.append(f"estimate: got {got.get('estimate')!r}, want {expected['estimate']!r}")
    got_levels = got.get("levels", [])
    if len(got_levels) != len(expected["levels"]):
        return problems + [f"levels: got {len(got_levels)}, want {len(expected['levels'])}"]
    for g, e in zip(got_levels, expected["levels"]):
        for key in ("i", "delta_i", "b"):
            if g.get(key) != e[key]:
                problems.append(f"level {e['i']} {key}: got {g.get(key)!r}, want {e[key]!r}")
        for key in ("s_hat", "m_hat", "a"):
            if not _close(float(g.get(key, -1.0)), e[key]):
                problems.append(f"level {e['i']} {key}: got {g.get(key)!r}, want {e[key]!r}")
    return problems


def check_setup_report(text: str, epsilon: float, wmax: float) -> list[str]:
    """A header-only stream must estimate 0 over the full schedule."""
    try:
        got = json.loads(text)
        estimate, levels = got.get("estimate"), got.get("T")
    except (AttributeError, ValueError) as exc:
        return [f"unreadable set-up report: {exc!r}"]
    if estimate != 0.0 or levels != len(thresholds(epsilon, wmax)) - 1:
        return [f"set-up report: estimate {estimate!r}, T {levels!r}"]
    return []


def final_edges(updates) -> list[tuple[int, int, float]]:
    """Replay (op, u, v, w) updates to the surviving weighted edge set."""
    live: dict[tuple[int, int], float] = {}
    for op, u, v, w in updates:
        key = (u, v) if u < v else (v, u)
        if op == "+":
            live[key] = w
        else:
            del live[key]
    return [(u, v, w) for (u, v), w in live.items()]


def mwm_weight(edges) -> float:
    g = nx.Graph()
    g.add_weighted_edges_from(edges)
    return sum(g[u][v]["weight"] for u, v in nx.max_weight_matching(g))


LAMBDA = {"greedy": 2.0, "exact": 1.0}


def check_eval_csv(text: str, row_edges: list, row_meta: list) -> tuple[list[int], int, list[str]]:
    """Check each eval row against networkx and the sandwich.

    ``row_edges[k]`` is row k's final weighted edge set and ``row_meta[k]`` its
    (epsilon, estimator). Returns (indices of failed rows, number of
    ``invariant-failure`` rows, problems). An ``invariant-failure`` row counts as
    correct when its sandwich, lemma 1 and observation checks hold: only the
    lemma-2 check, documented as false in README.md, may fail.
    """
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    reader = list(csv.DictReader(io.StringIO("\n".join(body) + "\n")))
    problems: list[str] = []
    if len(reader) != len(row_edges):
        return list(range(len(row_edges))), 0, [f"eval rows: got {len(reader)}, want {len(row_edges)}"]
    failed: list[int] = []
    invariant_rows = 0
    worst: dict[tuple[str, float], float] = {}
    for k, (row, edges, (epsilon, estimator)) in enumerate(zip(reader, row_edges, row_meta)):
        try:
            why = _check_eval_row(row, edges, epsilon, estimator)
        except (KeyError, TypeError, ValueError) as exc:
            why = f"unreadable row: {exc!r}"
        if why:
            failed.append(k)
            problems.append(f"row {k} {row.get('config')}: {why}")
            continue
        if row["status"] == "invariant-failure":
            invariant_rows += 1
        else:
            key = (estimator, epsilon)
            worst[key] = max(worst.get(key, 0.0), float(row["ratio"]))
    footer = [line for line in lines if line.startswith("# max_ratio")]
    want = [f"# max_ratio estimator={e} epsilon={eps} ratio={r}"
            for (e, eps), r in sorted(worst.items())]
    if not failed and footer != want:
        problems.append(f"max_ratio footer: got {footer}, want {want}")
        failed = list(range(len(row_edges)))
    return failed, invariant_rows, problems


def _check_eval_row(row: dict, edges, epsilon: float, estimator: str) -> str:
    status = row.get("status")
    if status not in ("ok", "invariant-failure"):
        return f"status {status!r}"
    if row["estimator"] != estimator or float(row["epsilon"]) != epsilon:
        return "estimator/epsilon column mismatch"
    opt = mwm_weight(edges)
    if not _close(float(row["oracle_mwm"]), opt):
        return f"oracle_mwm {row['oracle_mwm']} != networkx {opt}"
    estimate = float(row["estimate"])
    bound = 2.0 * LAMBDA[estimator] * (1.0 + epsilon)
    if not _close(float(row["bound"]), bound):
        return f"bound {row['bound']} != {bound}"
    if estimate == 0.0:
        sandwich = opt == 0.0
    else:
        sandwich = (estimate <= opt * (1 + REL_TOL)
                    and opt <= bound * estimate * (1 + REL_TOL)
                    and _close(float(row["ratio"]), opt / estimate))
    if not sandwich:
        return f"sandwich fails: estimate {estimate}, MWM {opt}, bound {bound}"
    if row["lemma1_ok"] != "True" or row["obs_ok"] != "True":
        return "lemma 1 or observation check false"
    if status == "ok" and row["lemma2_ok"] != "True":
        return "status ok with lemma2_ok false"
    if status == "invariant-failure" and row["lemma2_ok"] != "False":
        return "invariant-failure without a lemma-2 failure"
    return ""

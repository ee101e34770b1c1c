import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from helpers import _mwm_search, arboricity
from wmstream import (
    CapacityError,
    exact_mcm,
    exact_mwm,
    oracle,
)
from wmstream.oracle import MAX_ORACLE_EDGES


def snap(edges):
    return tuple(sorted((u, v, float(w)) for u, v, w in edges))


def test_mwm_takes_heavier_of_adjacent_pair():
    result = exact_mwm(snap([(1, 2, 3), (2, 3, 5)]))
    assert result.value == 5.0
    assert result.witness == ((2, 3, 5.0),)


def test_mwm_disjoint_edges_both_taken():
    result = exact_mwm(snap([(1, 2, 1), (3, 4, 4)]))
    assert result.value == 5.0
    assert result.witness == ((1, 2, 1.0), (3, 4, 4.0))


def test_mwm_heavy_edge_beats_two_light():
    # all 5 matchings enumerated by hand; {(1,3),(2,4)} only weighs 2
    result = exact_mwm(snap([(1, 2, 4), (1, 3, 1), (2, 4, 1)]))
    assert result.value == 4.0
    assert result.witness == ((1, 2, 4.0),)


def test_mwm_empty_graph():
    result = exact_mwm(snap([]))
    assert result.value == 0.0
    assert result.witness == ()


def test_mwm_witness_is_a_matching():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 9)
        edges = {
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(0, 12))
        }
        s = snap([(u, v, rng.randint(1, 9)) for u, v in edges])
        result = exact_mwm(s)
        used = [x for u, v, _ in result.witness for x in (u, v)]
        assert len(used) == len(set(used))
        assert sum(w for _, _, w in result.witness) == result.value


def test_mwm_witness_is_the_lexicographically_smallest_optimum():
    # brute force over every edge subset; small integer weights give ties
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = sorted({
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(1, 10))
        })
        s = snap([(u, v, rng.randint(1, 3)) for u, v in edges])
        matchings = []
        for mask in range(1 << len(s)):
            chosen = tuple(e for i, e in enumerate(s) if mask >> i & 1)
            ends = [x for u, v, _ in chosen for x in (u, v)]
            if len(ends) == len(set(ends)):
                matchings.append((sum(w for _, _, w in chosen), chosen))
        best = max(value for value, _ in matchings)
        smallest = min(chosen for value, chosen in matchings if value == best)
        result = exact_mwm(s)
        assert result.value == best
        assert result.witness == smallest


def test_mwm_agrees_with_networkx():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 9)
        edges = {
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(0, 14))
        }
        weighted = [(u, v, rng.randint(1, 20)) for u, v in edges]
        g = nx.Graph()
        g.add_nodes_from(range(1, n + 1))
        g.add_weighted_edges_from(weighted)
        nx_matching = nx.max_weight_matching(g)
        nx_value = sum(g[u][v]["weight"] for u, v in nx_matching)
        assert exact_mwm(snap(weighted)).value == nx_value


def test_mcm_small_cases():
    assert exact_mcm(snap([(1, 2, 1), (2, 3, 1), (1, 3, 1)])).value == 1
    assert exact_mcm(snap([(1, 2, 1), (2, 3, 1), (3, 4, 1)])).value == 2


def test_mcm_complete_bipartite_2_3():
    edges = [(a, b, 1) for a in (1, 2) for b in (3, 4, 5)]
    result = exact_mcm(snap(edges))
    assert result.value == 2
    assert isinstance(result.value, int)


def test_mcm_equals_unit_weight_mwm():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = {
            tuple(sorted(rng.sample(range(1, n + 1), 2)))
            for _ in range(rng.randint(0, 10))
        }
        s = snap([(u, v, 1) for u, v in edges])
        assert exact_mcm(s).value == exact_mwm(s).value


def test_mcm_monotone_under_edge_removal():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(3, 9)
        edges = list(
            {
                tuple(sorted(rng.sample(range(1, n + 1), 2)))
                for _ in range(rng.randint(1, 12))
            }
        )
        full = exact_mcm(snap([(u, v, 1) for u, v in edges])).value
        kept = rng.sample(edges, rng.randint(0, len(edges)))
        sub = exact_mcm(snap([(u, v, 1) for u, v in kept])).value
        assert sub <= full


def test_capacity_cap_enforced(monkeypatch):
    # both public searches refuse before any search: the dynamic program is
    # replaced by one that fails if it runs
    def refused(edges):
        raise AssertionError(f"the search ran on {len(edges)} edges")

    monkeypatch.setattr(oracle, "_mwm_frontier", refused)
    star = [(1, i, 1) for i in range(2, 27)]  # 25 edges
    # the disjoint edges' greedy leaf reaches floor(|V|/2), so only a cap
    # check ahead of the leaf refuses them in exact_mcm
    disjoint = [(2 * i - 1, 2 * i, 1) for i in range(1, 26)]
    for edges in (star, disjoint):
        for search in (exact_mwm, exact_mcm):
            with pytest.raises(CapacityError, match="^25 edges exceed oracle cap 24$"):
                search(snap(edges))


def test_arboricity_examples():
    tree = snap([(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)])
    assert arboricity(5, tree) == 1
    triangle = snap([(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    assert arboricity(3, triangle) == 2
    k4 = snap([(u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)])
    assert arboricity(4, k4) == 2


def test_arboricity_empty_and_caps():
    assert arboricity(4, snap([])) == 0
    with pytest.raises(CapacityError):
        arboricity(13, snap([(1, 2, 1)]))


def test_arboricity_monotone_under_edge_removal():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(3, 9)
        edges = list(
            {
                tuple(sorted(rng.sample(range(1, n + 1), 2)))
                for _ in range(rng.randint(1, 14))
            }
        )
        full = arboricity(n, snap([(u, v, 1) for u, v in edges]))
        kept = rng.sample(edges, rng.randint(1, len(edges)))
        sub = arboricity(n, snap([(u, v, 1) for u, v in kept]))
        assert sub <= full


@st.composite
def small_graphs(draw):
    """Sorted simple graphs of at most the oracle cap, weights with ties or
    arbitrary floats."""
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n))
        .filter(lambda p: p[0] != p[1])
        .map(lambda p: (min(p), max(p))),
        max_size=MAX_ORACLE_EDGES, unique=True))
    weight = draw(st.sampled_from([
        st.sampled_from([1.0, 2.0, 3.0]),
        st.floats(1.0, 1024.0, allow_nan=False, allow_infinity=False),
    ]))
    return sorted((u, v, draw(weight)) for u, v in pairs)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_mwm_frontier_matches_the_branch_and_bound(edges):
    result = exact_mwm(edges)
    assert (result.value, result.witness) == _mwm_search(edges)
    # exact_mcm, from its leaf or the dynamic program, against the weighted
    # branch-and-bound on unit weights
    value, witness = _mwm_search([(u, v, 1.0) for u, v, _ in edges])
    mcm = exact_mcm(edges)
    assert (mcm.value, mcm.witness) == (value, witness)
    assert type(mcm.value) is int


@pytest.mark.parametrize("edges,from_dp", [
    ([(2 * i - 1, 2 * i) for i in range(1, 25)], None),
    ([(1, 2), (2, 3), (3, 4)], None),
    # the leaf is (1, 2) alone, or (1, 3) alone; the ceiling is 2 in both
    ([(1, 2), (1, 3), (2, 4)], ((1, 3, 1.0), (2, 4, 1.0))),
    ([(1, 3), (1, 4), (2, 3)], ((1, 4, 1.0), (2, 3, 1.0))),
], ids=["24-disjoint-edges", "path-1-2-3-4", "leaf-1-2", "leaf-1-3"])
def test_mcm_answers_from_the_greedy_leaf_or_the_dynamic_program(monkeypatch, edges, from_dp):
    asked = []
    search = oracle._mwm_frontier

    def counted(unit):
        asked.append(len(unit))
        return search(unit)

    monkeypatch.setattr(oracle, "_mwm_frontier", counted)
    graph = snap([(u, v, 1) for u, v in edges])
    mcm = exact_mcm(graph)
    assert asked == ([] if from_dp is None else [len(edges)])
    assert (mcm.value, mcm.witness) == _mwm_search(list(graph))
    assert type(mcm.value) is int
    if from_dp is not None:
        assert mcm.witness == from_dp


def _two_layer():
    return [(i, 100 + i) for i in range(1, 13)] + [(100 + i, 200 + i) for i in range(1, 13)]


def _ladder():
    # nine rungs and 15 rails; sorted, the rung ends 1..9 stay on the frontier
    return ([(i, 100 + i) for i in range(1, 10)] + [(i, i + 1) for i in range(1, 9)]
            + [(100 + i, 101 + i) for i in range(1, 8)])


@pytest.mark.parametrize("shape", [_two_layer, _ladder])
@pytest.mark.parametrize("seed", range(4))
def test_mwm_on_wide_frontiers_at_the_cap_agrees_with_networkx(shape, seed):
    rng = random.Random(seed)
    weighted = [(u, v, rng.choice([1, 2, 3, rng.uniform(1, 16)])) for u, v in shape()]
    assert len(weighted) == MAX_ORACLE_EDGES
    g = nx.Graph()
    g.add_weighted_edges_from(weighted)
    nx_value = sum(g[u][v]["weight"] for u, v in nx.max_weight_matching(g))
    graph = snap(weighted)
    result = exact_mwm(graph)
    assert result.value == pytest.approx(nx_value, rel=1e-12)
    assert (result.value, result.witness) == _mwm_search(list(graph))


def _cycle_with_pendant(first):
    # a 5-cycle on first..first+4 and a pendant edge to first+5
    ring = [(first + i, first + i + 1) for i in range(4)] + [(first, first + 4)]
    return ring + [(first, first + 5)]


# The structured worst cases at the cap: every graph has at most 24 edges.
STRUCTURED = {
    "8-disjoint-triangles": [(3 * t + a, 3 * t + b) for t in range(8)
                             for a, b in ((1, 2), (2, 3), (1, 3))],
    "four-5-cycles-with-pendants": [e for k in range(4) for e in _cycle_with_pendant(6 * k + 1)],
    "star-K1,24": [(1, i) for i in range(2, 26)],
    "24-disjoint-edges": [(2 * i - 1, 2 * i) for i in range(1, 25)],
    "K7": [(u, v) for u in range(1, 8) for v in range(u + 1, 8)],
    "24-edge-ladder": _ladder(),
}


@pytest.mark.parametrize("name", STRUCTURED)
def test_structured_worst_cases_at_the_cap_agree_with_networkx(name):
    pairs = STRUCTURED[name]
    assert len(pairs) <= MAX_ORACLE_EDGES
    rng = random.Random(name)
    weighted = [(u, v, rng.randint(1, 16)) for u, v in pairs]
    g = nx.Graph()
    g.add_weighted_edges_from(weighted)
    nx_value = sum(g[u][v]["weight"] for u, v in nx.max_weight_matching(g))
    nx_size = len(nx.max_weight_matching(g, maxcardinality=True))
    graph = snap(weighted)
    assert exact_mwm(graph).value == nx_value
    assert exact_mcm(graph).value == nx_size


def _random_matching(rng):
    # a matching of up to 24 edges over up to 48 vertices, some of its
    # pairs then joined by extra edges up to the cap
    ends = rng.sample(range(1, 49), 2 * rng.randint(1, 24))
    pairs = {(min(ends[i], ends[i + 1]), max(ends[i], ends[i + 1]))
             for i in range(0, len(ends), 2)}
    while len(pairs) < MAX_ORACLE_EDGES and rng.random() < 0.8:
        u, v = rng.sample(ends, 2)
        pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


@pytest.mark.parametrize("shape", [_two_layer, _ladder, _random_matching])
@pytest.mark.parametrize("seed", range(6))
def test_mcm_matches_the_unit_weight_reference_on_sparse_graphs(shape, seed):
    # the free vertices a branch can still reach bound it more tightly than
    # its remaining edges do; a relabelling varies the sorted edge order
    rng = random.Random(seed)
    pairs = shape(rng) if shape is _random_matching else shape()
    ids = sorted({x for e in pairs for x in e})
    label = dict(zip(ids, rng.sample(range(1, 49), len(ids))))
    graph = snap([(label[u], label[v], 1) for u, v in pairs])
    assert len(graph) <= MAX_ORACLE_EDGES
    mcm = exact_mcm(graph)
    assert (mcm.value, mcm.witness) == _mwm_search(list(graph))


def test_a_matching_weight_past_the_float_range_is_refused():
    heavy = snap([(1, 2, 1e308), (3, 4, 1e308)])
    with pytest.raises(CapacityError, match="^the matching weight is past the float range$"):
        exact_mwm(heavy)
    assert exact_mwm(snap([(1, 2, 1e308), (2, 3, 1e308)])).value == 1e308
    assert exact_mcm(heavy).value == 2
